"""Bandwidth stack accounting (Sec. IV of the paper).

Every memory-channel cycle is attributed to exactly one component (or,
for the per-bank split, to bank-sized fractions of one cycle), using the
paper's hierarchical priority:

1. data on the bus                      -> ``read`` / ``write``
2. refresh in progress                  -> ``refresh``
3. >= 1 bank precharging, activating or in per-bank refresh -> the
   segment is split 1/n per bank; per-bank-refreshing banks feed
   ``refresh``, precharging banks ``precharge``, activating banks
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
the number of DRAM commands, not in simulated cycles. The one sweep
routes every unit to a ``(requester, component)`` pair through the log's
owner columns (see :mod:`repro.stacks.requester`):
:meth:`~BandwidthStackAccountant.requester_cycles` returns those rows,
and :meth:`~BandwidthStackAccountant.account_cycles` folds them into the
aggregate counters.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import islice, repeat

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
from repro.stacks.requester import (
    REQUESTER_BANDWIDTH_COMPONENTS,
    SHARED_REQUESTER,
    fold_interference,
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

    The windows are the ``[start, end)`` pairs of a :class:`Timeline`'s
    start and end columns. Windows may overlap each other; queries must
    be made with non-decreasing times. The windows are indexed in place
    when they are already ordered by ``(start, end)``, as every
    controller's event log is (one linear check); otherwise the cursor
    walks a sorted index order instead (offline or hand-built logs).
    ``cover(t)`` returns whether any window contains t;
    ``edges_in(lo, hi)`` returns window edges inside (lo, hi);
    ``covering_index(t)`` names the window covering t with the smallest
    ``(start, end)`` (the last-listed one among equal ``(start, end)``).
    """

    def __init__(self, windows: Timeline) -> None:
        starts, ends = windows.starts, windows.ends
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
        """Timeline index of the window covering time t, if any."""
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
        if bin_cycles is None:
            bin_cycles = total_cycles
        bins = []
        for b, rows in enumerate(self._route(log, total_cycles, bin_cycles)):
            counters = dict.fromkeys(BANDWIDTH_COMPONENTS, 0)
            counters.update(fold_interference(rows))
            length = min(total_cycles - b * bin_cycles, bin_cycles)
            expected = self.num_banks * length
            residual = expected - sum(counters.values())
            if residual != 0:
                message = (
                    f"bin {b}: components sum to {sum(counters.values())}, "
                    f"expected {expected}"
                )
                if self.auditor is None:
                    raise AccountingError(message)
                self.auditor.report(
                    "bandwidth-sum", message, residual=residual,
                    repair=lambda c=counters, r=residual: _repair_bin(c, r),
                )
            bins.append(counters)
        return bins

    def requester_cycles(
        self, log: EventLog, total_cycles: int
    ) -> dict[int, dict[str, int]]:
        """Attribute all cycles; returns integer counters per requester.

        Each row maps component (:data:`REQUESTER_BANDWIDTH_COMPONENTS`)
        -> count in units of 1/num_banks cycles, for every requester
        that owns any unit (the shared row is :data:`SHARED_REQUESTER`);
        across rows the counts sum to ``num_banks * total_cycles``.
        Strict: an inexact sum raises
        :class:`~repro.errors.AccountingError` even under an auditor.
        """
        rows = self._route(log, total_cycles, total_cycles)[0]
        total = sum(sum(row.values()) for row in rows.values())
        if total != self.num_banks * total_cycles:
            raise AccountingError(
                f"per-requester components sum to {total}, expected "
                f"{self.num_banks * total_cycles}"
            )
        return {r: row for r, row in rows.items() if any(row.values())}

    @paused_gc
    def _route(
        self, log: EventLog, total_cycles: int, bin_cycles: int
    ) -> list[dict[int, dict[str, int]]]:
        """The sweep: every unit of every bin to its requester's row.

        Returns per bin a dict requester -> counters over
        :data:`REQUESTER_BANDWIDTH_COMPONENTS`, with a row for every
        requester id from the shared row up to the largest owner in the
        log (a row that owns nothing stays all zero).
        """
        if total_cycles <= 0:
            raise AccountingError("total_cycles must be positive")
        n = self.num_banks
        owner_columns = (log.pre_owners, log.act_owners, log.cas_owners)
        top = max(
            max(log.burst_owners, default=SHARED_REQUESTER),
            *(max(owners, default=SHARED_REQUESTER)
              for owners in owner_columns),
            max(log.blocked_owners, default=-2) >> 1,
        )
        requesters = range(SHARED_REQUESTER, top + 1)
        num_bins = -(-total_cycles // bin_cycles)
        bins = [
            {
                r: dict.fromkeys(REQUESTER_BANDWIDTH_COMPONENTS, 0)
                for r in requesters
            }
            for _ in range(num_bins)
        ]

        if num_bins == 1:
            # Aggregate stacks use a single bin; skip the bin walk.
            rows0 = bins[0]

            def add(
                requester: int, component: str, s: int, e: int, weight: int
            ) -> None:
                """Add `weight` (in 1/n cycle units) per cycle of [s, e)."""
                if s < 0:
                    s = 0
                if e > total_cycles:
                    e = total_cycles
                if s < e:
                    rows0[requester][component] += (e - s) * weight

        else:

            def add(
                requester: int, component: str, s: int, e: int, weight: int
            ) -> None:
                """Add `weight` (in 1/n cycle units) per cycle of [s, e)."""
                s = max(s, 0)
                e = min(e, total_cycles)
                while s < e:
                    b = s // bin_cycles
                    seg_end = min(e, (b + 1) * bin_cycles)
                    bins[b][requester][component] += (seg_end - s) * weight
                    s = seg_end

        # --- 1. Data bursts -------------------------------------------
        # Entries are (start, end, is_write[, core_id]); offline logs
        # omit the core.
        # Channel-idle gaps between bursts, as start and end columns.
        prev_end = 0
        gap_starts, gap_ends = array("q"), array("q")
        bursts = zip(log.bursts, log.burst_owners)
        if not in_start_order(log.bursts):
            bursts = sorted(bursts)
        for (start, end, is_write, *__), owner in bursts:
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
                gap_starts.append(prev_end)
                gap_ends.append(min(start, total_cycles))
            add(owner, "write" if is_write else "read", start, end, n)
            prev_end = max(prev_end, end)
        if prev_end < total_cycles:
            gap_starts.append(prev_end)
            gap_ends.append(total_cycles)

        # --- 2. Per-bank state events ---------------------------------
        # Per-bank pre/act/cas/per-bank-refresh coverage is computed
        # with one global, time-sorted event sweep: each window
        # contributes a start and an end event on its bank's (bank,
        # kind) slot, and per-bank states (with the refresh > pre > act
        # > cas priority) are maintained incrementally, so the cost is
        # linear in the number of DRAM commands whatever the bank
        # count. Events are packed into single ints — time, then slot,
        # then a start flag, then the window's owner + 1 — so sorting
        # and scanning stay allocation-free. A start event makes its
        # owner the slot's owner.
        obits = (top + 1).bit_length()
        sshift = obits + 1
        tshift = sshift + (4 * n - 1).bit_length()
        smask = (1 << (tshift - sshift)) - 1
        flag = 1 << obits
        omask = flag - 1
        events: list[int] = []
        append = events.append
        for kind, windows, owners in (
            (0, log.pre_windows, log.pre_owners),
            (1, log.act_windows, log.act_owners),
            (2, log.cas_windows, log.cas_owners),
            (3, log.bank_refresh_windows, repeat(SHARED_REQUESTER)),
        ):
            # `bank % n`: offline-reconstructed logs record
            # precharge-all commands with a negative flat bank (see
            # repro.trace.offline), which wraps onto a high bank.
            for s, e, bank, owner in zip(*windows.columns, owners):
                slot = ((bank % n) * 4 + kind) << sshift
                append((s << tshift) | slot | flag | (owner + 1))
                append((e << tshift) | slot)
        events.sort()
        num_events = len(events)
        counts = [0] * (4 * n)
        # Owner + 1 of each slot's latest-started window.
        slot_owner = [0] * (4 * n)
        # Each bank's key: state << obits | owner + 1 of the window that
        # set the state (0 idle, 1 pre, 2 act, 3 cas, 4 per-bank
        # refresh; idle and refreshing banks belong to the shared row).
        bank_key = [0] * n
        banks_by_key = [0] * (5 << obits)
        banks_by_key[0] = n
        tallies = [n, 0, 0, 0, 0]  # banks per state
        pre_key, act_key, cas_key, ref_key = (
            state << obits for state in (1, 2, 3, 4)
        )
        owned = [
            (key | (r + 1), r, component)
            for key, component in (
                (pre_key, "precharge"),
                (act_key, "activate"),
                (cas_key, "constraints"),
            )
            for r in requesters
        ]

        # --- 3. Gap classification ------------------------------------
        refresh = _WindowCursor(log.refresh_windows)
        blocked = _WindowCursor(log.blocked)
        scopes, __, reasons = log.blocked.columns[2:]
        blocked_owners = log.blocked_owners
        bpg = self.spec.organization.banks_per_group

        def classify(s: int, e: int) -> None:
            """Attribute one channel-idle segment [s, e).

            A channel-wide (all-bank) refresh window takes the whole
            segment; otherwise the per-bank states at `s` split it when
            any bank is refreshing, precharging or activating, and a
            waiting request's binding constraint or channel idle takes
            it when none is.
            """
            if refresh.cover(s):
                add(SHARED_REQUESTER, "refresh", s, e, n)
                return
            if tallies[1] or tallies[2] or tallies[4]:
                if tallies[4]:
                    add(SHARED_REQUESTER, "refresh", s, e, tallies[4])
                for key, requester, component in owned:
                    banks = banks_by_key[key]
                    if banks:
                        add(requester, component, s, e, banks)
                add(SHARED_REQUESTER, "bank_idle", s, e, tallies[0])
                return
            i = blocked.covering_index(s)
            if i is None or reasons[i] == _INFLIGHT:
                # Nothing waits, or data is on its way but nothing is
                # waiting to issue: more requests could have used these
                # cycles -> idle (the paper: "the DRAM chip is
                # completely idle").
                add(SHARED_REQUESTER, "idle", s, e, n)
                return
            code = blocked_owners[i]
            victim = code >> 1
            component = "interference" if code & 1 else "constraints"
            scope = scopes[i]
            if scope == _BANK_GROUP:
                add(victim, component, s, e, bpg)
                add(SHARED_REQUESTER, "bank_idle", s, e, n - bpg)
            elif scope == _BANK:
                add(victim, component, s, e, 1)
                add(SHARED_REQUESTER, "bank_idle", s, e, n - 1)
            else:  # RANK / CHANNEL: nothing could issue anywhere.
                add(victim, component, s, e, n)

        ptr = 0
        for gap_start, gap_end in zip(gap_starts, gap_ends):
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
                    slot = (code >> sshift) & smask
                    if code & flag:
                        counts[slot] += 1
                        slot_owner[slot] = code & omask
                    else:
                        counts[slot] -= 1
                    base = slot & -4
                    if counts[base + 3]:
                        key = ref_key
                    elif counts[base]:
                        key = pre_key | slot_owner[base]
                    elif counts[base + 1]:
                        key = act_key | slot_owner[base + 1]
                    elif counts[base + 2]:
                        key = cas_key | slot_owner[base + 2]
                    else:
                        key = 0
                    bank = slot >> 2
                    old = bank_key[bank]
                    if key != old:
                        bank_key[bank] = key
                        banks_by_key[old] -= 1
                        banks_by_key[key] += 1
                        old >>= obits
                        key >>= obits
                        if key != old:
                            tallies[old] -= 1
                            tallies[key] += 1
                classify(s, e)
        return bins

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

    def account_requesters(
        self, log: EventLog, total_cycles: int, label: str = ""
    ) -> dict[int, Stack]:
        """Per-requester bandwidth stacks in GB/s.

        The rows share the aggregate stack's scale: summed across
        requesters (interference included) they total the peak
        bandwidth, so each row reads as that requester's share of the
        channel.
        """
        rows = self.requester_cycles(log, total_cycles)
        scale = self.spec.peak_bandwidth_gbps / (self.num_banks * total_cycles)
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
