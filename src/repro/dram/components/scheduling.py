"""Scheduler policies: which command issues next.

The scheduler owns the scheduling-decision state that PR 2's fast
engine introduced — the plan cache, the per-bank candidate caches and
the scheduling/timing epochs — and exposes them as *public* attributes
(``plan``, ``plan_epoch``, ``epoch``, ``plan_valid_until``, ...): the
controller's hot loop reads them directly rather than through
accessors, exactly as it read the old underscore attributes, so the
refactor adds no per-step call overhead.

Two policies are registered:

* ``fr-fcfs`` (default, the paper's) — first-ready FCFS with a
  starvation cap, planned by a fused candidate-selection + timing scan
  with incremental plan repair;
* ``fcfs`` — strict arrival order: only the globally oldest request is
  a candidate.

Both are held bit-identical to the unmemoized reference planner by the
golden/differential tests in ``tests/golden``.

State-change notifications arrive through three hooks — ``note_admit``
(queue admission), ``note_issue`` (command issued) and ``note_refresh``
— the only events that can change a scheduling decision or its timing.
"""

from __future__ import annotations

from repro.dram.commands import CommandType
from repro.dram.components.link import ControllerLink
from repro.dram.rank import Block, BlockScope
from repro.dram.scheduler import QueuedRequest

#: Sentinel "infinitely far in the future" time (shared value with the
#: controller's FAR_FUTURE; duplicated to avoid an import cycle).
_FAR_FUTURE = 1 << 62

# Enum-member lookups hoisted out of the fused candidate scan.
_CAS_READ = CommandType.READ
_CAS_WRITE = CommandType.WRITE
_ACT = CommandType.ACTIVATE
_PRE = CommandType.PRECHARGE


class _SchedulerBase(ControllerLink):
    """Plan-cache state and per-entry planning shared by all policies."""

    name = "base"
    #: Candidate-selection family understood by
    #: :meth:`repro.dram.scheduler.RequestQueue.candidates`. Arbiters
    #: layered on FR-FCFS selection (``wrr``, ``bank-reg``) keep
    #: ``"fr-fcfs"`` here while registering under their own name.
    candidate_policy = "fr-fcfs"
    #: Whether the registry accepts a ``name:params`` suffix for this
    #: scheduler (see :func:`repro.dram.components.make_scheduler`).
    accepts_params = False

    def bind(self, controller) -> None:
        """Wire up to a controller; resets all scheduling state."""
        super().bind(controller)
        ctrl = controller
        spec = ctrl.spec
        self._banks = ctrl._banks
        self._ranks = ctrl._ranks
        self._page = ctrl._page
        # Constants for the fused candidate scan.
        self._tCCD_L = spec.tCCD_L
        self._tWTR_L = spec.tWTR_L
        self._tRRD_L = spec.tRRD_L
        cap = ctrl.config.starvation_cap
        self._cap = cap if cap is not None else _FAR_FUTURE
        # Scheduling epoch: counts the state changes that can alter the
        # decision — queue admissions, command issues, refreshes. The
        # cached plan stays valid while the epoch is unchanged and `now`
        # is below `plan_valid_until`, the earliest cycle an FR-FCFS
        # starvation flip could displace a row-hit choice
        # (docs/performance.md has the full invalidation argument).
        self.epoch = 0
        # Timing epoch: bumped only by events that change command timing
        # or remove candidates (issue, refresh) — NOT by admissions.
        # While it is unchanged, every already-planned candidate's
        # effective issue time is provably unchanged, so a plan can be
        # repaired incrementally from the banks admitted to since the
        # last plan (`dirty_read`/`dirty_write`) instead of rescanned.
        self.timing_epoch = 0
        self.plan: tuple | None = None
        self.plan_epoch = -1  # -1: cache invalid
        self.plan_timing_epoch = -1
        self.plan_valid_until = 0
        self.plan_write_mode = False
        self.plan_block: Block | None = None
        # Per-bank candidate-selection cache (fast FR-FCFS scan), one
        # list per queue. Entry: (entry, kcode, flip, bank_time, coords,
        # bank_group, req_id) where kcode is 0/1/2 for CAS/ACT/PRE and
        # `flip` the starvation-flip cycle (FAR_FUTURE when stable). A
        # slot is invalidated on admission to the bank, any command
        # issued on the bank, and refresh — the only events that change
        # a bank's selection or its bank-local timing gate.
        total_banks = len(self._banks)
        self.cand_read: list[tuple | None] = [None] * total_banks
        self.cand_write: list[tuple | None] = [None] * total_banks
        self.dirty_read: list[int] = []
        self.dirty_write: list[int] = []

    # ------------------------------------------------------------------
    # State-change hooks
    # ------------------------------------------------------------------
    def note_admit(self, flat_bank: int, is_write: bool) -> None:
        """A request was admitted to `flat_bank`'s queue.

        Invalidates that bank's candidate slot and marks it dirty for
        incremental plan repair. The caller bumps :attr:`epoch` once per
        admission *batch* (matching the original controller's single
        bump in ``_admit_arrivals``).
        """
        if is_write:
            self.cand_write[flat_bank] = None
            self.dirty_write.append(flat_bank)
        else:
            self.cand_read[flat_bank] = None
            self.dirty_read.append(flat_bank)

    def note_issue(self, flat_bank: int) -> None:
        """A command issued on `flat_bank`: timing moved, plan is stale."""
        self.epoch += 1
        self.timing_epoch += 1
        self.cand_read[flat_bank] = None
        self.cand_write[flat_bank] = None

    def note_refresh(self) -> None:
        """A refresh (re)moved every bank's timing: drop all candidates."""
        self.epoch += 1
        self.timing_epoch += 1
        total_banks = len(self._banks)
        self.cand_read = [None] * total_banks
        self.cand_write = [None] * total_banks

    # ------------------------------------------------------------------
    # Per-entry planning (shared by the reference oracle and FCFS)
    # ------------------------------------------------------------------
    def plan_entry(self, entry: QueuedRequest, write_mode: bool) -> tuple:
        """Compute (sort_key, entry, command, coords) for a request.

        The sort key orders candidates by earliest issue time, then prefers
        data-moving commands and row hits (FR-FCFS), then age. Binding-
        constraint details are derived lazily by :meth:`block_info` only
        when the chosen candidate actually has to wait.
        """
        ctrl = self._ctrl()
        bank = self._banks[entry.flat_bank]
        coords = entry.coords
        rank = self._ranks[coords.rank]
        now = ctrl.now
        min_cmd_time = ctrl._last_cmd_issue + 1
        if bank.open_row == coords.row:
            is_write = entry.request.is_write
            time = rank.earliest_cas_time(
                now, coords.bank_group, is_write
            )
            if bank.next_cas > time:
                time = bank.next_cas
            kind = CommandType.WRITE if is_write else CommandType.READ
            priority = 0
        elif bank.open_row is None:
            time = rank.earliest_act_time(now, coords.bank_group)
            if bank.next_act > time:
                time = bank.next_act
            kind = CommandType.ACTIVATE
            priority = 1
        else:
            time = bank.next_pre if bank.next_pre > now else now
            kind = CommandType.PRECHARGE
            priority = 2
        if min_cmd_time > time:
            time = min_cmd_time
        return ((time, priority, entry.arrival_order), entry, kind, coords)

    def block_info(
        self, entry, cmd_type: CommandType, coords, issue_at: int
    ) -> Block:
        """Binding constraint for a candidate that must wait."""
        ctrl = self._ctrl()
        if entry is None:
            return Block(issue_at, BlockScope.BANK, "auto_precharge")
        bank = self._banks[entry.flat_bank]
        if cmd_type is CommandType.PRECHARGE:
            return Block(issue_at, BlockScope.BANK, "tRAS/tWR/tRTP")
        rank = self._ranks[coords.rank]
        if cmd_type is CommandType.ACTIVATE:
            if bank.next_act >= issue_at:
                return Block(issue_at, BlockScope.BANK, "tRP")
            return rank.earliest_act(ctrl.now, coords.bank_group)
        if bank.next_cas >= issue_at:
            return Block(issue_at, BlockScope.BANK, "tRCD")
        return rank.earliest_cas(
            ctrl.now, coords.bank_group, entry.request.is_write
        )

    def reference_plan(self, queue, write_mode: bool) -> tuple | None:
        """Plan one step the unmemoized way (the differential oracle).

        Routes per-entry planning through the *controller's*
        ``_plan_entry`` so reliability drills that monkeypatch the
        planner (``faults.force_stall``) stay on this path and see their
        patched closure called.
        """
        ctrl = self._ctrl()
        open_rows = [b.open_row for b in self._banks]
        best: tuple | None = None
        for entry in queue.candidates(
            open_rows, self.candidate_policy, ctrl.now,
            ctrl.config.starvation_cap,
        ):
            cand = ctrl._plan_entry(entry, write_mode)
            if best is None or cand[0] < best[0]:
                best = cand
        if self._page.generates_commands:
            for cand in self._page.plan_candidates(open_rows):
                if best is None or cand[0] < best[0]:
                    best = cand
        return best

    def invalidate(self) -> None:
        """Force a recompute on the next step (reference path bookkeeping)."""
        self.plan_epoch = -1
        self.plan_block = None
        self.dirty_read.clear()
        self.dirty_write.clear()


class FcfsScheduler(_SchedulerBase):
    """Strict arrival order: only the globally oldest request competes."""

    name = "fcfs"
    candidate_policy = "fcfs"

    def decide(self, now: int, write_mode: bool, queue) -> tuple | None:
        """Derive the decision and refresh the plan cache."""
        entry = queue.oldest()
        best = (
            self.plan_entry(entry, write_mode)
            if entry is not None
            else None
        )
        if self._page.generates_commands:
            open_rows = [b.open_row for b in self._banks]
            for cand in self._page.plan_candidates(open_rows):
                if best is None or cand[0] < best[0]:
                    best = cand
        self.plan = best
        self.plan_epoch = self.epoch
        self.plan_timing_epoch = self.timing_epoch
        self.plan_valid_until = _FAR_FUTURE
        self.plan_write_mode = write_mode
        self.plan_block = None
        self.dirty_read.clear()
        self.dirty_write.clear()
        return best


class FrFcfsScheduler(_SchedulerBase):
    """First-ready FCFS with a starvation cap (the paper's scheduler)."""

    name = "fr-fcfs"

    def decide(self, now: int, write_mode: bool, queue) -> tuple | None:
        """Derive the decision and refresh the plan cache.

        Fused FR-FCFS scan: candidate selection (per-bank queue heads
        with the row-hit index) and timing evaluation in one pass over
        the banks with pending work. Keys and tie-breaks are exactly
        :meth:`plan_entry`'s (time, priority, req_id); the rank-wide
        timing terms are hoisted out of the loop via ``*_scan_state``
        since they are identical for every candidate of a rank. The
        starvation horizon mirrors ``RequestQueue.select_candidates``.
        """
        ctrl = self._ctrl()
        banks = self._banks
        ranks = self._ranks
        min_cmd_time = ctrl._last_cmd_issue + 1
        horizon = _FAR_FUTURE

        cap = self._cap
        tCCD_L = self._tCCD_L
        tWTR_L = self._tWTR_L
        tRRD_L = self._tRRD_L
        cas_kind = _CAS_WRITE if write_mode else _CAS_READ
        cas_states: list = [None] * len(ranks)
        act_states: list = [None] * len(ranks)
        bank_fifo = queue._bank_fifo
        by_row = queue._by_row
        best_time = best_prio = best_tie = None
        best_entry = best_kind = best_coords = None
        cache = self.cand_write if write_mode else self.cand_read
        scan_banks = queue._active_banks
        incremental = False
        changed = False
        # Incremental repair: when nothing changed command timing since
        # the cached plan (same timing epoch — only admissions bumped
        # the scheduling epoch), every previously planned candidate's
        # effective issue time is unchanged (its clamp floor `now` is
        # still below the blocked plan's issue time, and rank/bank gates
        # only move on issue/refresh). New arrivals can therefore only
        # displace the winner directly: seed the scan with the cached
        # best and visit just the admitted banks. Policy precharges are
        # skipped — admissions only ever *remove* them, and surviving
        # ones keep losing on (time, priority). If the winner's own bank
        # was admitted to, its selection may have changed, so fall back
        # to a full scan.
        if (
            self.plan_timing_epoch == self.timing_epoch
            and self.plan_epoch >= 0
            and self.plan_write_mode == write_mode
            and now < self.plan_valid_until
        ):
            dirty = self.dirty_write if write_mode else self.dirty_read
            old_best = self.plan
            if old_best is None:
                incremental = True
            else:
                old_entry = old_best[1]
                if old_entry is None:
                    # Policy precharge: admissions to *either* queue can
                    # remove it (its bank's open row must stay free of
                    # pending requests in both), so check both lists.
                    old_flat = old_best[3].flat
                    if (
                        old_flat not in self.dirty_read
                        and old_flat not in self.dirty_write
                    ):
                        incremental = True
                elif old_entry.flat_bank not in dirty:
                    incremental = True
            if incremental:
                if old_best is not None:
                    best_time, best_prio, best_tie = old_best[0]
                    best_entry = old_best[1]
                    best_kind = old_best[2]
                    best_coords = old_best[3]
                horizon = self.plan_valid_until
                scan_banks = set(dirty)
        for flat in scan_banks:
            cached = cache[flat]
            if (
                cached is not None
                and now < cached[2]
                and not cached[0].served
            ):
                entry, kcode, flip, bank_time, coords, bg, tie = cached
                if flip < horizon:
                    horizon = flip
            else:
                fifo = bank_fifo[flat]
                oldest = None
                while fifo:
                    head = fifo[0]
                    if head.served:
                        fifo.popleft()
                    else:
                        oldest = head
                        break
                if oldest is None:
                    continue
                bank = banks[flat]
                row = bank.open_row
                entry = None
                flip = _FAR_FUTURE
                if row is not None and now - oldest.request.arrival <= cap:
                    rows = by_row[flat]
                    rfifo = rows.get(row)
                    if rfifo is not None:
                        while rfifo:
                            head = rfifo[0]
                            if head.served:
                                rfifo.popleft()
                            else:
                                entry = head
                                break
                        if entry is None:
                            del rows[row]
                    if entry is not None and entry is not oldest:
                        flip = oldest.request.arrival + cap + 1
                        if flip < horizon:
                            horizon = flip
                if entry is None:
                    entry = oldest
                coords = entry.coords
                bg = coords.bank_group
                if row == coords.row:
                    kcode = 0
                    bank_time = bank.next_cas
                elif row is None:
                    kcode = 1
                    bank_time = bank.next_act
                else:
                    kcode = 2
                    bank_time = bank.next_pre
                tie = entry.request.req_id
                cache[flat] = (
                    entry, kcode, flip, bank_time, coords, bg, tie
                )
            if kcode == 0:
                rk = coords.rank
                state = cas_states[rk]
                if state is None:
                    state = cas_states[rk] = ranks[rk].cas_scan_state(
                        write_mode
                    )
                time, cas_groups, wdata_groups = state
                gate = cas_groups[bg] + tCCD_L
                if gate > time:
                    time = gate
                if wdata_groups is not None:
                    gate = wdata_groups[bg] + tWTR_L
                    if gate > time:
                        time = gate
                if bank_time > time:
                    time = bank_time
                kind = cas_kind
                priority = 0
            elif kcode == 1:
                rk = coords.rank
                state = act_states[rk]
                if state is None:
                    state = act_states[rk] = ranks[rk].act_scan_state()
                time, act_groups = state
                gate = act_groups[bg] + tRRD_L
                if gate > time:
                    time = gate
                if bank_time > time:
                    time = bank_time
                kind = _ACT
                priority = 1
            else:
                time = bank_time
                kind = _PRE
                priority = 2
            if time < now:
                time = now
            if time < min_cmd_time:
                time = min_cmd_time
            if (
                best_time is None
                or time < best_time
                or (
                    time == best_time
                    and (
                        priority < best_prio
                        or (priority == best_prio and tie < best_tie)
                    )
                )
            ):
                best_time = time
                best_prio = priority
                best_tie = tie
                best_entry = entry
                best_kind = kind
                best_coords = coords
                changed = True
        if self._page.generates_commands and not incremental:
            open_rows = [b.open_row for b in banks]
            for cand in self._page.plan_candidates(open_rows):
                time, priority, tie = cand[0]
                if (
                    best_time is None
                    or time < best_time
                    or (
                        time == best_time
                        and (
                            priority < best_prio
                            or (priority == best_prio and tie < best_tie)
                        )
                    )
                ):
                    best_time = time
                    best_prio = priority
                    best_tie = tie
                    __, best_entry, best_kind, best_coords = cand

        if incremental and not changed:
            # Winner survived: keep the cached plan object (and its
            # lazily derived block info, which only depends on the
            # winner and the unchanged timing state).
            best = self.plan
        else:
            best = (
                None
                if best_time is None
                else (
                    (best_time, best_prio, best_tie),
                    best_entry, best_kind, best_coords,
                )
            )
            self.plan = best
            self.plan_block = None
        self.plan_epoch = self.epoch
        self.plan_timing_epoch = self.timing_epoch
        self.plan_valid_until = horizon
        self.plan_write_mode = write_mode
        self.dirty_read.clear()
        self.dirty_write.clear()
        return best
