"""Per-requester stack rows (multi-requester QoS).

The per-requester stacks are not a separate accounting: they are the
aggregate accountants' own units, routed to the requester that caused
them through the owner columns the controller records beside its
event-log timelines (:class:`~repro.dram.components.accounting.EventLog`;
entry i of ``burst_owners`` names the requester of burst i, and so on).

* :meth:`BandwidthStackAccountant.requester_cycles
  <repro.stacks.bandwidth.BandwidthStackAccountant.requester_cycles>`
  returns the rows its one sweep fills: bursts go to their owner, a
  precharging, activating or CAS-in-flight bank to the owner of the
  window that set its state, a blocked wait to its victim (as
  ``interference`` when another requester caused it, ``constraints``
  otherwise), and refresh (all-bank and per-bank), idle banks and
  channel idle to the shared row :data:`SHARED_REQUESTER`. The
  aggregate counters are :func:`fold_interference` of those rows, so
  the two agree by construction.
* :meth:`LatencyStackAccountant.account_requesters
  <repro.stacks.latency.LatencyStackAccountant.account_requesters>`
  runs the aggregate per-read decomposition and moves the queue cycles
  covered by other requesters' bursts into ``interference``. The
  components of each read still sum to its measured latency, and the
  read-weighted mean of the rows is the aggregate stack.

This module holds what both share: the shared row's key, the component
orders and the fold.
"""

from __future__ import annotations

#: Row key for cycles no single requester owns (refresh, idle banks,
#: channel idle, refresh-driven precharges).
SHARED_REQUESTER = -1

#: Canonical per-requester bandwidth component order. ``interference``
#: is the only addition over the aggregate components: waiting caused
#: by another requester's command, reported separately from the
#: requester's self-inflicted ``constraints``.
REQUESTER_BANDWIDTH_COMPONENTS = (
    "read",
    "write",
    "precharge",
    "activate",
    "refresh",
    "constraints",
    "interference",
    "bank_idle",
    "idle",
)

#: Per-requester latency component order (aggregate order with
#: ``interference`` carved out of ``queue``).
REQUESTER_LATENCY_COMPONENTS = (
    "base", "pre_act", "refresh", "writeburst", "interference", "queue",
)


def fold_interference(rows) -> dict[str, int]:
    """Sum requester rows back into aggregate-shaped channel counters.

    `rows` maps requester -> counters. ``interference`` folds into
    ``constraints`` (the aggregate does not distinguish who caused a
    wait). The result is directly comparable to
    ``BandwidthStackAccountant.account_cycles(...)[0]``.
    """
    merged: dict[str, int] = {}
    for counters in rows.values():
        for name, value in counters.items():
            key = "constraints" if name == "interference" else name
            merged[key] = merged.get(key, 0) + value
    return merged
