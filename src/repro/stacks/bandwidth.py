"""Bandwidth stack accounting (Sec. IV of the paper).

Every memory-channel cycle is attributed to exactly one component (or,
for the per-bank split, to bank-sized fractions of one cycle), using the
paper's hierarchical priority:

1. data on the bus                      -> ``read`` / ``write``
2. refresh in progress                  -> ``refresh``
3. >= 1 bank precharging or activating  -> the segment is split 1/n per
   bank; precharging banks feed ``precharge``, activating banks
   ``activate``, banks with a CAS in flight ``constraints``, and idle
   banks ``bank_idle``
4. a *waiting* request blocked by a timing constraint -> ``constraints``;
   a bank-group- or bank-scoped constraint is again split per bank, with
   the non-constrained banks counted as ``bank_idle``; rank- and
   channel-wide constraints take the whole segment
5. otherwise (including cycles where data is merely in flight with no
   request waiting)                     -> ``idle``

The accounting is exact: counters are kept in integer units of 1/n_banks
of a cycle (the paper's footnote 1), and the components always sum to the
total simulated cycles.

The accountant walks the controller's event log segment by segment — the
paper's "account multiple cycles in one step" — so its cost is linear in
the number of DRAM commands, not in simulated cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

from repro.dram.components.accounting import (
    REASON_CODE,
    SCOPE_CODE,
    EventLog,
    Timeline,
)
from repro.dram.rank import BlockScope
from repro.dram.timing import TimingSpec
from repro.errors import AccountingError
from repro.stacks.components import (
    Stack,
    StackSeries,
    ordered_stack,
    paused_gc,
)

#: Canonical component order (bottom of the stack first). ``read`` and
#: ``write`` together are the achieved bandwidth; everything else is lost.
BANDWIDTH_COMPONENTS = (
    "read",
    "write",
    "precharge",
    "activate",
    "refresh",
    "constraints",
    "bank_idle",
    "idle",
)


#: Blocked-timeline codes the gap classification tests for (the fixed
#: head of every blocked timeline's tables).
_INFLIGHT = REASON_CODE["data_inflight"]
_BANK = SCOPE_CODE[BlockScope.BANK]
_BANK_GROUP = SCOPE_CODE[BlockScope.BANK_GROUP]


class _WindowCursor:
    """Forward-moving coverage queries over a timeline of windows.

    Each window is an entry whose first two items are its ``[start,
    end)``; any further items are its payload. A :class:`Timeline` is
    queried through its start and end columns; a list of tuples works
    too. Windows may overlap each other; queries must be made with
    non-decreasing times. The windows are indexed in place when they
    are already ordered by ``(start, end)``, as every controller's
    event log is (one linear check); otherwise the cursor walks a
    sorted index order instead (offline or hand-built logs).
    ``cover(t)`` returns whether any window contains t;
    ``edges_in(lo, hi)`` returns window edges inside (lo, hi);
    ``covering_index(t)`` and ``covering_payload(t)`` name the window
    covering t with the smallest ``(start, end)`` (the last-listed one
    among equal ``(start, end)``).
    """

    def __init__(self, windows) -> None:
        self._windows = windows
        if isinstance(windows, Timeline):
            starts, ends = windows.starts, windows.ends
        else:
            starts = [window[0] for window in windows]
            ends = [window[1] for window in windows]
        self._starts, self._ends = starts, ends
        self._order = (
            range(len(starts)) if _in_order(starts, ends)
            else sorted(range(len(starts)),
                        key=lambda i: (starts[i], ends[i]))
        )
        self._pos = 0
        # Indices of admitted windows, pruned lazily to end > position.
        self._active: list[int] = []

    def _advance(self, t: int) -> None:
        starts, order, pos = self._starts, self._order, self._pos
        active = self._active
        while pos < len(order) and starts[order[pos]] <= t:
            active.append(order[pos])
            pos += 1
        self._pos = pos
        if active:
            ends = self._ends
            self._active = [i for i in active if ends[i] > t]

    def cover(self, t: int) -> bool:
        """Whether any window contains time t (non-decreasing t calls)."""
        self._advance(t)
        return bool(self._active)

    def edges_in(self, lo: int, hi: int) -> list[int]:
        """Window start/end points strictly inside (lo, hi)."""
        self._advance(lo)
        starts, ends, order = self._starts, self._ends, self._order
        edges = []
        # Every window starting after lo is still unadmitted.
        for pos in range(self._pos, len(order)):
            i = order[pos]
            start = starts[i]
            if start >= hi:
                break
            edges.append(start)
            if lo < ends[i] < hi:
                edges.append(ends[i])
        # Ends of already-active windows.
        for i in self._active:
            end = ends[i]
            if lo < end < hi:
                edges.append(end)
        return edges

    def covering_index(self, t: int) -> int | None:
        """List index of the window covering time t, if any."""
        self._advance(t)
        active = self._active
        if not active:
            return None
        first = active[0]
        if len(active) > 1:
            starts, ends = self._starts, self._ends
            start, end = starts[first], ends[first]
            for i in active[1:]:
                if starts[i] != start or ends[i] != end:
                    break
                first = i
        return first

    def covering_payload(self, t: int) -> tuple | None:
        """The window (with its payload) covering time t, if any."""
        i = self.covering_index(t)
        return None if i is None else self._windows[i]


def _in_order(starts, ends) -> bool:
    """Whether the windows are non-decreasing by ``(start, end)``."""
    prev_start = prev_end = -(1 << 62)
    for start, end in zip(starts, ends):
        if start < prev_start or (start == prev_start and end < prev_end):
            return False
        prev_start, prev_end = start, end
    return True


def in_start_order(timeline) -> bool:
    """Whether `timeline`'s entries start strictly in order.

    Index order is then ``sorted()`` order, so a reader can walk the
    timeline instead of sorting a list of its entries. A controller's
    bursts always do (the data bus serializes them); offline and
    hand-built logs may not.
    """
    starts = timeline.starts
    return all(map(int.__lt__, starts, islice(starts, 1, None)))


class BandwidthStackAccountant:
    """Builds bandwidth stacks from a controller event log.

    Args:
        spec: timing spec (bank count, peak bandwidth).
        auditor: optional
            :class:`~repro.reliability.auditor.InvariantAuditor`. Without
            one, any exactness violation raises
            :class:`~repro.errors.AccountingError` immediately (strict);
            with one, the auditor's ``strict``/``warn``/``repair`` policy
            applies — ``repair`` folds residual cycles into ``idle`` and
            clamps overlapping bursts so accounting can continue.
    """

    def __init__(self, spec: TimingSpec, auditor=None) -> None:
        self.spec = spec
        self.num_banks = spec.organization.total_banks
        self.auditor = auditor

    # ------------------------------------------------------------------
    @paused_gc
    def account_cycles(
        self,
        log: EventLog,
        total_cycles: int,
        bin_cycles: int | None = None,
    ) -> list[dict[str, int]]:
        """Attribute all cycles; returns per-bin integer numerators.

        Each returned dict maps component -> count in units of
        1/num_banks cycles; per bin the counts sum to
        ``num_banks * bin_length`` exactly.
        """
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        n = self.num_banks
        if bin_cycles is None:
            bin_cycles = total_cycles
        num_bins = -(-total_cycles // bin_cycles)
        bins: list[dict[str, int]] = [
            dict.fromkeys(BANDWIDTH_COMPONENTS, 0) for _ in range(num_bins)
        ]

        if num_bins == 1:
            # Aggregate stacks use a single bin; skip the bin walk.
            counters0 = bins[0]

            def add(component: str, s: int, e: int, weight: int) -> None:
                """Add `weight` (in 1/n cycle units) per cycle of [s, e)."""
                if s < 0:
                    s = 0
                if e > total_cycles:
                    e = total_cycles
                if s < e:
                    counters0[component] += (e - s) * weight

        else:

            def add(component: str, s: int, e: int, weight: int) -> None:
                """Add `weight` (in 1/n cycle units) per cycle of [s, e)."""
                s = max(s, 0)
                e = min(e, total_cycles)
                while s < e:
                    b = s // bin_cycles
                    seg_end = min(e, (b + 1) * bin_cycles)
                    bins[b][component] += (seg_end - s) * weight
                    s = seg_end

        # --- 1. Data bursts -------------------------------------------
        # Entries are (start, end, is_write[, core_id]); offline logs
        # omit the core.
        prev_end = 0
        gaps: list[tuple[int, int]] = []
        bursts = log.bursts
        if not in_start_order(bursts):
            bursts = sorted(bursts)
        for start, end, is_write, *__ in bursts:
            if start < prev_end:
                message = f"overlapping data bursts at cycle {start}"
                if self.auditor is None:
                    raise AccountingError(message)
                self.auditor.report(
                    "burst-overlap", message, residual=prev_end - start
                )
                # Clamp so the overlapped cycles are attributed once.
                start = min(prev_end, end)
            if start > prev_end:
                gaps.append((prev_end, min(start, total_cycles)))
            add("write" if is_write else "read", start, end, n)
            prev_end = max(prev_end, end)
        if prev_end < total_cycles:
            gaps.append((prev_end, total_cycles))

        # --- 2. Gap classification ------------------------------------
        refresh = _WindowCursor(log.refresh_windows)
        blocked = _WindowCursor(log.blocked)
        blocked_codes = log.blocked.columns[2:]
        bpg = self.spec.organization.banks_per_group

        # Per-bank pre/act/cas coverage is computed with one global,
        # time-sorted event sweep: each window contributes a +1/-1 edge
        # on its bank's (bank, kind) slot, and per-bank states (with the
        # pre > act > cas priority) are maintained incrementally. This
        # replaces 3*n cursors each queried per segment — the accounting
        # stays linear in the number of DRAM commands with a constant
        # independent of the bank count. Events are packed into single
        # ints (time in the high bits, then slot, then a start flag) so
        # sorting and scanning stay allocation-free.
        shift = (8 * n).bit_length()
        events: list[int] = []
        append = events.append
        for windows, kind in (
            (log.pre_windows, 0),
            (log.act_windows, 1),
            (log.cas_windows, 2),
            (log.bank_refresh_windows, 3),
        ):
            # `bank % n` matches the list indexing the per-bank cursors
            # historically used: offline-reconstructed logs record
            # precharge-all commands with a negative flat bank (see
            # repro.trace.offline), which wrapped onto a high bank.
            for s, e, bank in windows:
                slot2 = ((bank % n) * 4 + kind) << 1
                append((s << shift) | slot2 | 1)
                append((e << shift) | slot2)
        events.sort()
        num_events = len(events)
        counts = [0] * (4 * n)
        bank_state = [0] * n  # 0 idle, 1 pre, 2 act, 3 cas, 4 refresh
        tallies = [n, 0, 0, 0, 0]  # banks per state
        ptr = 0

        for gap_start, gap_end in gaps:
            if gap_start >= gap_end:
                continue
            edges = {gap_start, gap_end}
            edges.update(refresh.edges_in(gap_start, gap_end))
            edges.update(blocked.edges_in(gap_start, gap_end))
            lo = bisect_left(events, (gap_start + 1) << shift)
            hi = bisect_left(events, gap_end << shift)
            if lo < hi:
                edges.update(code >> shift for code in events[lo:hi])
            points = sorted(edges)
            for s, e in zip(points, points[1:]):
                limit = (s + 1) << shift
                while ptr < num_events:
                    code = events[ptr]
                    if code >= limit:
                        break
                    ptr += 1
                    slot = (code >> 1) & ((1 << (shift - 1)) - 1)
                    if code & 1:
                        counts[slot] += 1
                    else:
                        counts[slot] -= 1
                    bank = slot // 4
                    base = bank * 4
                    if counts[base + 3]:
                        state = 4
                    elif counts[base]:
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
                    tallies[1], tallies[2], tallies[3], tallies[4], bpg, add,
                )

        # --- 3. Exactness check ----------------------------------------
        for b, counters in enumerate(bins):
            length = min(total_cycles - b * bin_cycles, bin_cycles)
            residual = n * length - sum(counters.values())
            if residual != 0:
                message = (
                    f"bin {b}: components sum to {sum(counters.values())}, "
                    f"expected {n * length}"
                )
                if self.auditor is None:
                    raise AccountingError(message)
                self.auditor.report(
                    "bandwidth-sum", message, residual=residual,
                    repair=lambda c=counters, r=residual: _repair_bin(c, r),
                )
        return bins

    def _classify_segment(
        self, s: int, e: int, refresh: _WindowCursor, blocked: _WindowCursor,
        blocked_codes: tuple, n_pre: int, n_act: int, n_cas: int,
        n_ref: int, banks_per_group: int, add,
    ) -> None:
        """Attribute one channel-idle segment [s, e).

        `n_pre`/`n_act`/`n_cas`/`n_ref` count banks precharging,
        activating, with a CAS in flight, and in per-bank (same-bank)
        refresh at `s`, with the per-bank refresh > pre > act > cas
        priority already applied by the caller's event sweep. A
        channel-wide (all-bank) refresh window still takes the whole
        segment; per-bank refresh takes only its bank's 1/n share.
        `blocked_codes` are the blocked timeline's scope, bank-group
        and reason columns.
        """
        n = self.num_banks
        if refresh.cover(s):
            add("refresh", s, e, n)
            return
        if n_ref or n_pre or n_act:
            add("refresh", s, e, n_ref)
            add("precharge", s, e, n_pre)
            add("activate", s, e, n_act)
            add("constraints", s, e, n_cas)
            add("bank_idle", s, e, n - n_ref - n_pre - n_act - n_cas)
            return
        i = blocked.covering_index(s)
        if i is not None:
            scope = blocked_codes[0][i]
            if blocked_codes[2][i] == _INFLIGHT:
                # Data is on its way but nothing is waiting to issue:
                # more requests could have used these cycles -> idle
                # (the paper: "the DRAM chip is completely idle").
                add("idle", s, e, n)
            elif scope == _BANK_GROUP:
                add("constraints", s, e, banks_per_group)
                add("bank_idle", s, e, n - banks_per_group)
            elif scope == _BANK:
                add("constraints", s, e, 1)
                add("bank_idle", s, e, n - 1)
            else:  # RANK / CHANNEL: nothing could issue anywhere.
                add("constraints", s, e, n)
            return
        add("idle", s, e, n)

    # ------------------------------------------------------------------
    def account(
        self, log: EventLog, total_cycles: int, label: str = ""
    ) -> Stack:
        """One aggregate bandwidth stack in GB/s; totals the peak."""
        counters = self.account_cycles(log, total_cycles)[0]
        return self._to_gbps(counters, total_cycles, label)

    def account_series(
        self,
        log: EventLog,
        total_cycles: int,
        bin_cycles: int,
        label: str = "",
    ) -> StackSeries:
        """Through-time bandwidth stacks, one per `bin_cycles` window."""
        bins = self.account_cycles(log, total_cycles, bin_cycles)
        stacks = []
        for b, counters in enumerate(bins):
            length = min(total_cycles - b * bin_cycles, bin_cycles)
            stacks.append(self._to_gbps(counters, length, f"{label}[{b}]"))
        return StackSeries(
            stacks, bin_cycles, self.spec.cycle_ns, label=label
        )

    def _to_gbps(
        self, counters: dict[str, int], length: int, label: str
    ) -> Stack:
        peak = self.spec.peak_bandwidth_gbps
        scale = peak / (self.num_banks * length)
        stack = ordered_stack(
            {name: count * scale for name, count in counters.items()},
            BANDWIDTH_COMPONENTS,
            unit="GB/s",
            label=label,
        )
        if self.auditor is None:
            stack.check_total(peak)
        else:
            try:
                stack.check_total(peak)
            except AccountingError as error:
                # Already counted at the bin level in repair mode; in
                # warn mode this records that the stack shipped skewed.
                self.auditor.report("bandwidth-total", str(error))
        return stack


    def per_core_achieved(
        self, log: EventLog, total_cycles: int
    ) -> dict[int, dict[str, float]]:
        """Achieved read/write bandwidth per originating core, in GB/s.

        Bursts recorded without a core id land under core -1.
        """
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        cycles: dict[int, dict[str, int]] = {}
        for entry in log.bursts:
            start, end, is_write = entry[0], entry[1], entry[2]
            core = entry[3] if len(entry) > 3 else -1
            start = max(start, 0)
            end = min(end, total_cycles)
            if start >= end:
                continue
            bucket = cycles.setdefault(core, {"read": 0, "write": 0})
            bucket["write" if is_write else "read"] += end - start
        scale = self.spec.peak_bandwidth_gbps / total_cycles
        return {
            core: {kind: count * scale for kind, count in bucket.items()}
            for core, bucket in sorted(cycles.items())
        }


def _repair_bin(counters: dict[str, int], residual: int) -> None:
    """Fold a cycle residual into ``idle`` so the bin sums exactly.

    A positive residual (lost cycles) lands in ``idle`` directly; a
    negative one (double-counted cycles) drains ``idle`` first and then
    the largest remaining component.
    """
    counters["idle"] += residual
    if counters["idle"] < 0:
        deficit = -counters["idle"]
        counters["idle"] = 0
        victim = max(
            (name for name in counters if name != "idle"),
            key=lambda name: counters[name],
        )
        counters[victim] -= deficit


def bandwidth_stack_from_log(
    log: EventLog, total_cycles: int, spec: TimingSpec, label: str = ""
) -> Stack:
    """Convenience wrapper: one aggregate GB/s stack from an event log."""
    return BandwidthStackAccountant(spec).account(log, total_cycles, label)
