"""Per-requester bandwidth and latency stacks (multi-requester QoS).

The aggregate accountants attribute every channel cycle to a
*component*; this module additionally attributes it to the *requester*
that caused it, using the owner columns the controller records beside
the timelines of its event log
(:class:`~repro.dram.components.accounting.EventLog`): entry i of
``burst_owners`` names the requester of burst i, and so on.

The bandwidth decomposition partitions exactly the same integer units
(1/n_banks of a cycle) as
:class:`~repro.stacks.bandwidth.BandwidthStackAccountant`, walking the
same segments with the same priority rules, so it aggregates back to
the channel stack *by construction*:

* data bursts           -> the owning requester's ``read``/``write``;
* precharge/activate    -> the requester whose request triggered the
  command (refresh-driven precharges carry owner -1 and land on the
  shared row);
* CAS-in-flight banks   -> the CAS owner's ``constraints``;
* blocked waiting       -> the victim requester: ``interference`` when
  the binding constraint was last touched by a *different* requester,
  ``constraints`` otherwise;
* refresh, idle banks, channel idle -> the shared row
  (:data:`SHARED_REQUESTER`).

Summing all rows and folding ``interference`` into ``constraints``
reproduces the aggregate channel counters exactly (integer equality —
the conservation property locked down in
``tests/dram/test_qos_properties.py``). With a single requester the
``interference`` row is identically zero.

The latency decomposition extends the aggregate per-read split by
carving ``interference`` out of ``queue``: the cycles of the read's
queueing intervals (arrival to CAS, minus refresh/drain/own-pre-act)
that were covered by *other* requesters' data bursts. The per-read
components still sum exactly to the measured latency.

The bandwidth decomposition runs the aggregate accountant's packed-int
event sweep, with each window's index in its timeline in the low bits
of its events, so a start event reads the window's owner straight from
its owner column. Only segments with a precharging or activating bank
walk the banks one by one, to route each bank's share to its owner.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from repro.dram.components.accounting import EventLog, Timeline
from repro.dram.commands import Request
from repro.dram.timing import TimingSpec
from repro.errors import AccountingError
from repro.stacks import intervals as iv
from repro.stacks.bandwidth import (
    _BANK,
    _BANK_GROUP,
    _INFLIGHT,
    _WindowCursor,
    in_start_order,
)
from repro.stacks.components import Stack, ordered_stack, paused_gc
from repro.stacks.latency import LatencyStackAccountant

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


def fold_interference(rows: dict[int, dict[str, int]]) -> dict[str, int]:
    """Sum requester rows back into aggregate-shaped channel counters.

    ``interference`` folds into ``constraints`` (the aggregate does not
    distinguish who caused a wait). The result is directly comparable
    to ``BandwidthStackAccountant.account_cycles(...)[0]``.
    """
    merged: dict[str, int] = {}
    for counters in rows.values():
        for name, value in counters.items():
            key = "constraints" if name == "interference" else name
            merged[key] = merged.get(key, 0) + value
    return merged


class RequesterBandwidthAccountant:
    """Per-requester bandwidth decomposition of a controller event log.

    Strict by design: any exactness violation raises
    :class:`~repro.errors.AccountingError` (there is no auditor/repair
    mode here — QoS stacks are an analysis product, not a hot path).
    """

    def __init__(self, spec: TimingSpec) -> None:
        self.spec = spec
        self.num_banks = spec.organization.total_banks

    # ------------------------------------------------------------------
    @paused_gc
    def account_cycles(
        self, log: EventLog, total_cycles: int
    ) -> dict[int, dict[str, int]]:
        """Attribute all cycles; returns integer counters per requester.

        Each row maps component -> count in units of 1/num_banks
        cycles; across rows the counts sum to
        ``num_banks * total_cycles`` exactly.
        """
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        n = self.num_banks
        rows: dict[int, dict[str, int]] = {}

        def add(requester: int, component: str, s: int, e: int,
                weight: int) -> None:
            if s < 0:
                s = 0
            if e > total_cycles:
                e = total_cycles
            if s < e and weight:
                row = rows.get(requester)
                if row is None:
                    row = rows[requester] = dict.fromkeys(
                        REQUESTER_BANDWIDTH_COMPONENTS, 0
                    )
                row[component] += (e - s) * weight

        # --- 1. Data bursts (owner-routed) ----------------------------
        bursts = log.bursts
        owned_bursts = zip(bursts, log.burst_owners)
        if not in_start_order(bursts):
            owned_bursts = sorted(owned_bursts)
        prev_end = 0
        gaps: list[tuple[int, int]] = []
        for entry, owner in owned_bursts:
            start, end, is_write = entry[0], entry[1], entry[2]
            if start < prev_end:
                raise AccountingError(
                    f"overlapping data bursts at cycle {start}"
                )
            if start > prev_end:
                gaps.append((prev_end, min(start, total_cycles)))
            add(owner, "write" if is_write else "read", start, end, n)
            prev_end = max(prev_end, end)
        if prev_end < total_cycles:
            gaps.append((prev_end, total_cycles))

        # --- 2. Gap classification (same segmentation as aggregate) ---
        refresh = _WindowCursor(log.refresh_windows)
        blocked = _WindowCursor(log.blocked)
        blocked_codes = log.blocked.columns[2:]
        bpg = self.spec.organization.banks_per_group

        # Same packed-int event sweep as the aggregate accountant, with
        # the window's index in its timeline in the low bits: a start
        # event records the window's owner (its owner column entry) as
        # its slot's owner.
        windows_by_kind = (log.pre_windows, log.act_windows, log.cas_windows)
        owners_by_kind = (log.pre_owners, log.act_owners, log.cas_owners)
        shift = (6 * n).bit_length()
        ibits = max(map(len, windows_by_kind)).bit_length()
        imask = (1 << ibits) - 1
        tshift = shift + ibits
        events: list[int] = []
        append = events.append
        for kind, windows in enumerate(windows_by_kind):
            for i, (s, e, bank) in enumerate(windows):
                slot2 = ((bank % n) * 3 + kind) << 1
                append((((s << shift) | slot2 | 1) << ibits) | i)
                append((((e << shift) | slot2) << ibits) | i)
        events.sort()
        num_events = len(events)
        counts = [0] * (3 * n)
        slot_owner = [SHARED_REQUESTER] * (3 * n)
        bank_state = [0] * n  # 0 idle, 1 pre, 2 act, 3 cas
        tallies = [n, 0, 0, 0]
        ptr = 0

        for gap_start, gap_end in gaps:
            if gap_start >= gap_end:
                continue
            edges = {gap_start, gap_end}
            edges.update(refresh.edges_in(gap_start, gap_end))
            edges.update(blocked.edges_in(gap_start, gap_end))
            lo = bisect_left(events, (gap_start + 1) << tshift)
            hi = bisect_left(events, gap_end << tshift)
            if lo < hi:
                edges.update(code >> tshift for code in events[lo:hi])
            points = sorted(edges)
            for s, e in zip(points, points[1:]):
                limit = (s + 1) << tshift
                while ptr < num_events:
                    code = events[ptr]
                    if code >= limit:
                        break
                    ptr += 1
                    flagged = code >> ibits
                    slot = (flagged >> 1) & ((1 << (shift - 1)) - 1)
                    if flagged & 1:
                        counts[slot] += 1
                        slot_owner[slot] = owners_by_kind[slot % 3][
                            code & imask
                        ]
                    else:
                        counts[slot] -= 1
                    bank = slot // 3
                    base = bank * 3
                    if counts[base]:
                        state = 1
                    elif counts[base + 1]:
                        state = 2
                    elif counts[base + 2]:
                        state = 3
                    else:
                        state = 0
                    old = bank_state[bank]
                    if state != old:
                        bank_state[bank] = state
                        tallies[old] -= 1
                        tallies[state] += 1
                self._classify_segment(
                    s, e, refresh, blocked, blocked_codes,
                    log.blocked_owners, bank_state, slot_owner, tallies,
                    bpg, add,
                )

        # --- 3. Exactness check ---------------------------------------
        total = sum(sum(row.values()) for row in rows.values())
        if total != n * total_cycles:
            raise AccountingError(
                f"per-requester components sum to {total}, expected "
                f"{n * total_cycles}"
            )
        return {r: rows[r] for r in sorted(rows)}

    def _classify_segment(
        self, s: int, e: int, refresh: _WindowCursor,
        blocked: _WindowCursor, blocked_codes: tuple, blocked_owners,
        bank_state: list[int], slot_owner: list[int], tallies: list[int],
        banks_per_group: int, add,
    ) -> None:
        """Attribute one channel-idle segment [s, e) to requesters.

        Mirrors the aggregate ``_classify_segment`` decision tree
        exactly — same conditions, same weights — routing each unit to
        its owning requester (or the shared row). `blocked_codes` are
        the blocked timeline's scope, bank-group and reason columns.
        """
        n = self.num_banks
        if refresh.cover(s):
            add(SHARED_REQUESTER, "refresh", s, e, n)
            return
        if tallies[1] or tallies[2]:
            idle_banks = 0
            for bank in range(n):
                state = bank_state[bank]
                if state == 0:
                    idle_banks += 1
                elif state == 1:
                    add(slot_owner[bank * 3], "precharge", s, e, 1)
                elif state == 2:
                    add(slot_owner[bank * 3 + 1], "activate", s, e, 1)
                else:
                    add(
                        slot_owner[bank * 3 + 2], "constraints", s, e, 1
                    )
            if idle_banks:
                add(SHARED_REQUESTER, "bank_idle", s, e, idle_banks)
            return
        i = blocked.covering_index(s)
        if i is not None:
            scope = blocked_codes[0][i]
            victim, inter = divmod(blocked_owners[i], 2)
            component = "interference" if inter else "constraints"
            if blocked_codes[2][i] == _INFLIGHT:
                add(SHARED_REQUESTER, "idle", s, e, n)
            elif scope == _BANK_GROUP:
                add(victim, component, s, e, banks_per_group)
                add(
                    SHARED_REQUESTER, "bank_idle", s, e,
                    n - banks_per_group,
                )
            elif scope == _BANK:
                add(victim, component, s, e, 1)
                add(SHARED_REQUESTER, "bank_idle", s, e, n - 1)
            else:  # RANK / CHANNEL
                add(victim, component, s, e, n)
            return
        add(SHARED_REQUESTER, "idle", s, e, n)

    # ------------------------------------------------------------------
    def account(
        self, log: EventLog, total_cycles: int, label: str = ""
    ) -> dict[int, Stack]:
        """Per-requester bandwidth stacks in GB/s.

        The rows share the aggregate stack's scale: summed across
        requesters (interference included) they total the peak
        bandwidth, so each row reads as that requester's share of the
        channel.
        """
        rows = self.account_cycles(log, total_cycles)
        peak = self.spec.peak_bandwidth_gbps
        scale = peak / (self.num_banks * total_cycles)
        return {
            requester: ordered_stack(
                {name: count * scale for name, count in counters.items()},
                REQUESTER_BANDWIDTH_COMPONENTS,
                unit="GB/s",
                label=f"{label}R{requester}" if requester >= 0
                else f"{label}shared",
            )
            for requester, counters in rows.items()
        }


class RequesterLatencyAccountant:
    """Per-requester latency stacks with an interference component.

    For each requester's reads the aggregate decomposition applies
    unchanged, except that the cycles of the read's queueing intervals
    covered by *other* requesters' data bursts move from ``queue`` to
    ``interference``. Per read the components still sum exactly to the
    measured latency; with one requester ``interference`` is zero and
    the split degenerates to the aggregate's.
    """

    def __init__(
        self,
        spec: TimingSpec,
        base_controller_cycles: int = 0,
        include_prefetch: bool = True,
    ) -> None:
        self.spec = spec
        self.base_controller_cycles = base_controller_cycles
        self.include_prefetch = include_prefetch
        self._base = LatencyStackAccountant(
            spec, base_controller_cycles,
            include_prefetch=include_prefetch,
        )

    def decompose(
        self,
        request: Request,
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
        other_bursts,
    ) -> dict[str, float]:
        """Per-read components with the queue/interference split.

        `other_bursts` must be the time-sorted ``(start, end)`` windows
        of data bursts owned by requesters *other than* the request's.
        """
        parts = self._base.decompose(
            request, refresh_windows, drain_windows
        )
        parts["interference"] = 0
        if not other_bursts:
            return parts
        arrival, cas = request.arrival, request.cas_issue
        # Rebuild the queueing intervals exactly as the base
        # decomposition measured them: the wait minus refresh, drain
        # and the request's own precharge/activate.
        rest = [(arrival, cas)]
        in_refresh = iv.clip(refresh_windows, arrival, cas)
        if in_refresh:
            rest = iv.subtract(rest, in_refresh)
        drain_clipped = (
            iv.clip(drain_windows, arrival, cas) if drain_windows else []
        )
        if drain_clipped:
            in_drain = iv.intersect(rest, drain_clipped)
            if in_drain:
                rest = iv.subtract(rest, in_drain)
        own: list[tuple[int, int]] = []
        if request.own_pre_start >= 0:
            own.append((request.own_pre_start, request.own_pre_end))
        if request.own_act_start >= 0:
            own.append((request.own_act_start, request.own_act_end))
        if own:
            own.sort()
            own_clipped = iv.clip(own, arrival, cas)
            if own_clipped:
                own_in = iv.intersect(rest, own_clipped)
                if own_in:
                    rest = iv.subtract(rest, own_in)
        if not rest:
            return parts
        foreign = iv.clip(other_bursts, arrival, cas)
        if not foreign:
            return parts
        inter_c = iv.total_length(iv.intersect(rest, foreign))
        if inter_c:
            parts["interference"] = inter_c
            parts["queue"] -= inter_c
        return parts

    @paused_gc
    def account(
        self, requests: list[Request], log: EventLog, label: str = ""
    ) -> dict[int, Stack]:
        """Average per-requester latency stacks over DRAM reads, in ns."""
        reads: dict[int, list[Request]] = {}
        for request in requests:
            if (
                request.is_read
                and not request.forwarded
                and request.cas_issue >= 0
                and (self.include_prefetch or not request.is_prefetch)
            ):
                reads.setdefault(request.requester_id, []).append(request)
        # Other requesters' bursts, per requester, as (start, end)
        # columns in time order.
        bursts = log.bursts
        starts, ends = bursts.starts, bursts.ends
        owners = log.burst_owners
        if not in_start_order(bursts):
            order = sorted(
                range(len(bursts)), key=lambda i: (starts[i], ends[i])
            )
            starts, ends, owners = (
                [column[i] for i in order]
                for column in (starts, ends, owners)
            )
        stacks: dict[int, Stack] = {}
        for requester in sorted(reads):
            foreign = [
                owner != requester and owner != SHARED_REQUESTER
                for owner in owners
            ]
            other = Timeline()
            other.starts.extend(compress(starts, foreign))
            other.ends.extend(compress(ends, foreign))
            sums = dict.fromkeys(REQUESTER_LATENCY_COMPONENTS, 0.0)
            group = reads[requester]
            for request in group:
                parts = self.decompose(
                    request, log.refresh_windows, log.drain_windows,
                    other,
                )
                measured = (
                    request.finish - request.arrival
                    + self.base_controller_cycles
                )
                if sum(parts.values()) != measured:
                    raise AccountingError(
                        f"per-requester latency components sum to "
                        f"{sum(parts.values())} for a read with measured "
                        f"latency {measured}"
                    )
                for name, value in parts.items():
                    sums[name] += value
            scale = self.spec.cycle_ns / len(group)
            stacks[requester] = ordered_stack(
                {name: value * scale for name, value in sums.items()},
                REQUESTER_LATENCY_COMPONENTS,
                unit="ns",
                label=f"{label}R{requester}",
            )
        return stacks
