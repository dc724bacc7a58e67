"""QoS scheduler policies: multi-requester arbitration.

Two registry-selectable schedulers layer requester-aware arbitration on
top of the FR-FCFS candidate selection (the per-bank oldest/row-hit
choice of :meth:`~repro.dram.scheduler.RequestQueue.select_candidates`):

* ``wrr`` — a weighted-round-robin arbiter. Each requester holds a
  credit budget replenished to its weight once every requester with
  pending candidates has exhausted its credits; only requesters with
  credits left may issue CAS commands, and within the allowed set the
  usual FR-FCFS (time, priority, age) key picks the winner. Weights are
  given as ``wrr:2,1`` (requester 0 weight 2, requester 1 weight 1,
  everyone else weight 1); bare ``wrr`` is equal-weight round-robin.

* ``bank-reg`` — per-bank bandwidth regulation in the MemGuard style of
  the real-time literature: each (requester, bank) pair may issue at
  most ``budget`` CAS commands per ``period`` cycles; a candidate over
  budget has its earliest issue time pushed to the next period
  boundary, and the wait is recorded as a bank-scope blocked window
  with reason ``"bank_regulation"``. Configured as
  ``bank-reg:period=1000,budget=4``; bare ``bank-reg`` leaves the
  budget unlimited.

Degenerate-case invariance (held by tests/dram/test_qos_properties.py
and the golden suite): with a single requester present, ``wrr`` — and
``bank-reg`` with an unlimited budget — reproduce the ``fr-fcfs``
event log bit for bit.

The classes below are the reference planners. The packed engine
(:mod:`repro.dram.packed`) runs the same arbitration in its own loop,
reading and updating the credits/usage held here, so both paths — and
checkpoints taken from either — share one arbitration state.
Arbitration state changes only on CAS service, through the
:meth:`note_service` hook both paths call on every CAS issue.
"""

from __future__ import annotations

from repro.dram.rank import Block, BlockScope
from repro.dram.components.scheduling import _SchedulerBase
from repro.errors import ConfigurationError


def _parse_weights(params: str) -> tuple[int, ...]:
    """Parse ``"2,1"`` into a weight tuple; empty means equal weights."""
    params = params.strip()
    if not params:
        return ()
    weights = []
    for token in params.split(","):
        try:
            weight = int(token)
        except ValueError:
            raise ConfigurationError(
                f"wrr weights must be integers, got {token!r} in "
                f"{params!r} (expected e.g. 'wrr:2,1')"
            ) from None
        if weight < 1:
            raise ConfigurationError(
                f"wrr weights must be >= 1, got {weight} in {params!r}"
            )
        weights.append(weight)
    return tuple(weights)


def _parse_regulation(params: str) -> tuple[int, int | None]:
    """Parse ``"period=1000,budget=4"``; returns (period, budget)."""
    period = 1000
    budget: int | None = None
    params = params.strip()
    if not params:
        return period, budget
    for token in params.split(","):
        key, sep, value = token.partition("=")
        key = key.strip()
        if not sep or key not in ("period", "budget"):
            raise ConfigurationError(
                f"bank-reg parameter {token!r} not understood (expected "
                f"'bank-reg:period=<cycles>,budget=<cas-per-period>')"
            )
        try:
            number = int(value)
        except ValueError:
            raise ConfigurationError(
                f"bank-reg {key} must be an integer, got {value!r}"
            ) from None
        if number < 1:
            raise ConfigurationError(
                f"bank-reg {key} must be >= 1, got {number}"
            )
        if key == "period":
            period = number
        else:
            budget = number
    return period, budget


class WrrScheduler(_SchedulerBase):
    """Weighted-round-robin arbiter over FR-FCFS candidates."""

    name = "wrr"
    candidate_policy = "fr-fcfs"
    accepts_params = True

    def __init__(self, params: str = "") -> None:
        self.weights = _parse_weights(params)
        self._credits: dict[int, int] = {}

    def bind(self, controller) -> None:
        super().bind(controller)
        self._credits = {}

    def weight_of(self, requester: int) -> int:
        """Configured weight of a requester (unlisted requesters get 1)."""
        if 0 <= requester < len(self.weights):
            return self.weights[requester]
        return 1

    def note_service(self, requester: int, flat_bank: int, t: int) -> None:
        """A CAS for `requester` issued: charge one credit."""
        credits = self._credits
        credits[requester] = (
            credits.get(requester, self.weight_of(requester)) - 1
        )

    def _allowed_requesters(self, entries) -> set[int]:
        """Requesters that may be served now (replenishing as needed).

        A requester never seen before enters the round with a full
        credit budget. When every requester with pending candidates is
        out of credits the round ends: all of them are replenished to
        their weights. Replenishment is idempotent across repeated plan
        computations of the same state (credits only decrease on CAS
        issue), so the reference planner, which re-plans every step, and
        the packed engine, which plans once per state change, observe
        identical arbitration state.
        """
        credits = self._credits
        weight_of = self.weight_of
        pending = {entry.request.requester_id for entry in entries}
        allowed = {
            r for r in pending if credits.get(r, weight_of(r)) > 0
        }
        if not allowed:
            for r in pending:
                credits[r] = weight_of(r)
            return pending
        return allowed

    def reference_plan(self, queue, write_mode: bool) -> tuple | None:
        """Filter the FR-FCFS candidates to the allowed requesters, then
        pick by the usual (time, priority, age) key."""
        ctrl = self._ctrl()
        open_rows = [b.open_row for b in self._banks]
        entries, __ = queue.select_candidates(
            open_rows, ctrl.now, ctrl.config.starvation_cap
        )
        best: tuple | None = None
        if entries:
            allowed = self._allowed_requesters(entries)
            for entry in entries:
                if entry.request.requester_id not in allowed:
                    continue
                cand = ctrl._plan_entry(entry, write_mode)
                if best is None or cand[0] < best[0]:
                    best = cand
        if self._page.generates_commands:
            for cand in self._page.plan_candidates(open_rows):
                if best is None or cand[0] < best[0]:
                    best = cand
        return best


class BankRegScheduler(_SchedulerBase):
    """Per-bank bandwidth regulation over FR-FCFS candidates."""

    name = "bank-reg"
    candidate_policy = "fr-fcfs"
    accepts_params = True

    def __init__(self, params: str = "") -> None:
        self.period, self.budget = _parse_regulation(params)
        # (requester, flat_bank) -> (period_index, cas_count). Only the
        # most recently served period matters: a gate never pushes a
        # candidate further than the next period boundary, where its
        # count restarts at zero.
        self._usage: dict[tuple[int, int], tuple[int, int]] = {}
        # req_ids whose CAS the current plan pushed to a boundary, so
        # block_info can name the regulation (not a DRAM timing gate)
        # as the binding constraint.
        self._gated: set[int] = set()

    def bind(self, controller) -> None:
        super().bind(controller)
        self._usage = {}
        self._gated = set()

    def note_service(self, requester: int, flat_bank: int, t: int) -> None:
        """A CAS issued at cycle `t`: count it against the period."""
        if self.budget is None:
            return
        period_index = t // self.period
        key = (requester, flat_bank)
        usage = self._usage.get(key)
        if usage is not None and usage[0] == period_index:
            self._usage[key] = (period_index, usage[1] + 1)
        else:
            self._usage[key] = (period_index, 1)

    def _gate(self, entry, cand: tuple) -> tuple:
        """Push an over-budget CAS candidate to the next period start."""
        key = cand[0]
        period_index = key[0] // self.period
        usage = self._usage.get(
            (entry.request.requester_id, entry.flat_bank)
        )
        if (
            usage is not None
            and usage[0] == period_index
            and usage[1] >= self.budget
        ):
            boundary = (period_index + 1) * self.period
            self._gated.add(entry.request.req_id)
            return ((boundary, key[1], key[2]), cand[1], cand[2], cand[3])
        return cand

    def reference_plan(self, queue, write_mode: bool) -> tuple | None:
        """Gate over-budget CAS candidates, then pick by the usual
        (time, priority, age) key."""
        ctrl = self._ctrl()
        open_rows = [b.open_row for b in self._banks]
        entries, __ = queue.select_candidates(
            open_rows, ctrl.now, ctrl.config.starvation_cap
        )
        self._gated.clear()
        budget = self.budget
        best: tuple | None = None
        for entry in entries:
            cand = ctrl._plan_entry(entry, write_mode)
            if budget is not None and cand[0][1] == 0:
                cand = self._gate(entry, cand)
            if best is None or cand[0] < best[0]:
                best = cand
        if self._page.generates_commands:
            for cand in self._page.plan_candidates(open_rows):
                if best is None or cand[0] < best[0]:
                    best = cand
        return best

    def block_info(self, entry, cmd_type, coords, issue_at: int) -> Block:
        """Name the regulation gate when it is the binding constraint."""
        if entry is not None and entry.request.req_id in self._gated:
            return Block(issue_at, BlockScope.BANK, "bank_regulation")
        return super().block_info(entry, cmd_type, coords, issue_at)
