"""Accounting taps: what a controller records about its own run.

The tap owns the :class:`EventLog` — the complete channel timeline the
stack accountants (:mod:`repro.stacks`), the reliability fingerprint
(:mod:`repro.reliability.fingerprint`) and the offline trace tooling
consume. The controller and its banks append to the log's lists
directly (the lists are shared by reference and never reassigned), so
the recording fast path costs one ``list.append`` per window; the
typed *online* stream for live subscribers travels separately on the
:class:`~repro.core.events.EventBus`.

Two taps are registered:

* ``event-log`` (default) — record everything;
* ``null`` — record nothing (all appends are discarded). For pure
  timing runs where the stacks will never be built; the accountants
  see empty timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import Command
from repro.dram.rank import BlockScope


@dataclass
class EventLog:
    """Channel timeline recorded during simulation.

    All windows are half-open cycle intervals ``[start, end)``. Bank
    indices are flat (bank_group * banks_per_group + bank).
    """

    #: Data-bus bursts: (start, end, is_write, core_id).
    bursts: list = field(default_factory=list)
    #: Precharge windows: (start, end, flat_bank).
    pre_windows: list[tuple[int, int, int]] = field(default_factory=list)
    #: Activate windows: (start, end, flat_bank).
    act_windows: list[tuple[int, int, int]] = field(default_factory=list)
    #: CAS service windows (issue to data end): (start, end, flat_bank).
    cas_windows: list[tuple[int, int, int]] = field(default_factory=list)
    #: Refresh windows: (start, end).
    refresh_windows: list[tuple[int, int]] = field(default_factory=list)
    #: Per-bank (same-bank, REFsb) refresh windows: (start, end,
    #: flat_bank). Only the ``same-bank`` refresh policy appends here;
    #: it stays empty (and out of the fingerprint) under all-bank
    #: refresh, keeping historic digests intact.
    bank_refresh_windows: list[tuple[int, int, int]] = field(
        default_factory=list
    )
    #: Blocked-with-pending-work intervals:
    #: (start, end, BlockScope, bank_group, reason).
    blocked: list[tuple[int, int, BlockScope, int, str]] = field(
        default_factory=list
    )
    #: Forced write-drain windows: (start, end); shared with the
    #: write-drain policy.
    drain_windows: list[tuple[int, int]] = field(default_factory=list)
    #: Optional full command trace.
    commands: list[Command] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Requester-attribution sidecars (multi-requester QoS stacks).
    #
    # These lists annotate the core timelines above with the requester
    # that caused each window. They are *sidecars*: kept out of the
    # fingerprinted fields so single-requester runs stay bit-identical
    # to historic fixtures, and index-aligned with their primaries where
    # noted. Windows that bypass the issue path (refresh-driven
    # precharges) have no sidecar entry; the per-requester accountant
    # attributes them to the shared row (requester -1).
    # ------------------------------------------------------------------
    #: Requester of bursts[i] (index-aligned with ``bursts``).
    burst_owners: list[int] = field(default_factory=list)
    #: Requester of cas_windows[i] (index-aligned with ``cas_windows``).
    cas_owners: list[int] = field(default_factory=list)
    #: Request-triggered precharges: (start, end, flat_bank, requester).
    pre_owner_windows: list[tuple[int, int, int, int]] = field(
        default_factory=list
    )
    #: Request-triggered activates: (start, end, flat_bank, requester).
    act_owner_windows: list[tuple[int, int, int, int]] = field(
        default_factory=list
    )
    #: (victim_requester, is_interference) of blocked[i] — whether the
    #: binding constraint was created by a *different* requester's
    #: command (index-aligned with ``blocked``).
    blocked_owners: list[tuple[int, bool]] = field(default_factory=list)


#: Shared ``blocked_owners`` entries for victims -1..62, by
#: interference flag: far more requesters than any configuration uses.
_BLOCKED_OWNERS = tuple(
    tuple((victim, inter) for victim in range(-1, 63))
    for inter in (False, True)
)


def blocked_owner(victim: int, inter: bool) -> tuple[int, bool]:
    """The ``(victim, inter)`` entry for ``blocked_owners``: a shared
    tuple, not a fresh one per blocked window."""
    if -1 <= victim < 63:
        return _BLOCKED_OWNERS[inter][victim + 1]
    return (victim, inter)


class EventLogTap:
    """The default tap: materialize the full :class:`EventLog`."""

    name = "event-log"

    def __init__(self) -> None:
        self.log = EventLog()


class _DiscardList(list):
    """A list whose appends vanish; keeps the recording call shape."""

    def append(self, item) -> None:  # noqa: ARG002 - deliberate no-op
        pass


class NullTap:
    """Record nothing: every timeline stays empty.

    The log object still exists (same field layout), so consumers that
    merely *read* the timelines see empty lists instead of crashing.
    Blocked-window recording also relies on reading ``blocked[-1]`` for
    merge-on-append; the discard list is always empty, so that path
    degenerates to a no-op too.
    """

    name = "null"

    def __init__(self) -> None:
        self.log = EventLog(
            bursts=_DiscardList(),
            pre_windows=_DiscardList(),
            act_windows=_DiscardList(),
            cas_windows=_DiscardList(),
            refresh_windows=_DiscardList(),
            bank_refresh_windows=_DiscardList(),
            blocked=_DiscardList(),
            drain_windows=_DiscardList(),
            commands=_DiscardList(),
            burst_owners=_DiscardList(),
            cas_owners=_DiscardList(),
            pre_owner_windows=_DiscardList(),
            act_owner_windows=_DiscardList(),
            blocked_owners=_DiscardList(),
        )
