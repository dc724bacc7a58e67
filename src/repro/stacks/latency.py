"""Latency stack accounting (Sec. V of the paper).

For every read that reached DRAM, its latency (arrival at the controller
to last data beat) is decomposed into:

* ``base`` — the uncontended open-page read time: a fixed controller
  pipeline plus tCL plus the burst. Optionally split into ``base_cntlr``
  and ``base_dram`` (as in the paper's Fig. 7).
* ``pre_act`` — time spent in the request's own precharge/activate on a
  page miss.
* ``refresh`` — waiting while the rank was refreshing.
* ``writeburst`` — waiting while a forced write-buffer drain blocked reads.
* ``queue`` — all remaining waiting (other requests, timing constraints).

Components are measured per read and averaged over reads only — writes do
not stall cores (Sec. V). Prefetch-generated reads are DRAM reads like
any other and are included by default (pass ``include_prefetch=False``
to restrict to demand loads); in a prefetcher-covered stream they *are*
the read stream whose latency bounds throughput. The decomposition is exact: the components of
each read sum to its measured latency, so no latency is double counted
or lost.

Per-requester stacks (:meth:`LatencyStackAccountant.account_requesters`)
come from the same per-read walk: it additionally moves the queue cycles
covered by *other* requesters' data bursts from ``queue`` to
``interference``.

The walk reads the columns of a
:class:`~repro.dram.components.accounting.CompletedRequests` record and
builds no object per read; a list of requests (or of record rows)
handed to an accountant becomes a record first.
"""

from __future__ import annotations

from itertools import chain, compress

from repro.dram.commands import Request
from repro.dram.components.accounting import (
    CompletedRequests,
    EventLog,
    Timeline,
)
from repro.dram.timing import TimingSpec
from repro.errors import AccountingError
from repro.stacks import intervals as iv
from repro.stacks.bandwidth import in_start_order
from repro.stacks.components import (
    Stack,
    StackSeries,
    ordered_stack,
    paused_gc,
)
from repro.stacks.requester import SHARED_REQUESTER

LATENCY_COMPONENTS = ("base", "pre_act", "refresh", "writeburst", "queue")
LATENCY_COMPONENTS_SPLIT = (
    "base_cntlr", "base_dram", "pre_act", "refresh", "writeburst", "queue",
)


class LatencyStackAccountant:
    """Builds latency stacks from completed read requests.

    Args:
        spec: timing spec (for the base read time and ns conversion).
        base_controller_cycles: fixed front-end cycles added to every
            request (controller pipeline, on-chip network).
        split_base: report ``base_cntlr``/``base_dram`` separately.
    """

    def __init__(
        self,
        spec: TimingSpec,
        base_controller_cycles: int = 0,
        split_base: bool = False,
        include_prefetch: bool = True,
        auditor=None,
    ) -> None:
        self.spec = spec
        self.base_controller_cycles = base_controller_cycles
        self.split_base = split_base
        self.include_prefetch = include_prefetch
        #: Optional InvariantAuditor; None keeps the historical strict
        #: behavior (raise AccountingError on any decomposition drift).
        self.auditor = auditor

    @property
    def components(self) -> tuple[str, ...]:
        """Component order for this configuration."""
        return LATENCY_COMPONENTS_SPLIT if self.split_base else LATENCY_COMPONENTS

    def _violation(
        self, kind: str, message: str, residual: float = 0.0, repair=None
    ) -> None:
        """Raise or route a decomposition violation through the auditor."""
        if self.auditor is None:
            raise AccountingError(message)
        self.auditor.report(kind, message, residual=residual, repair=repair)

    # ------------------------------------------------------------------
    def decompose(
        self,
        request: Request,
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
        foreign=None,
    ) -> dict[str, float]:
        """Per-read latency components, in cycles.

        With `foreign` — the time-sorted windows of data bursts owned by
        requesters other than the request's — the queue cycles those
        bursts cover move from ``queue`` to an ``interference`` part.
        """
        if not request.is_read or request.cas_issue < 0:
            raise AccountingError(
                "latency stacks are built from completed reads only"
            )
        return self._parts(
            request.arrival, request.cas_issue, request.finish,
            request.own_pre_start, request.own_pre_end,
            request.own_act_start, request.own_act_end,
            refresh_windows, drain_windows, foreign,
        )

    def _parts(
        self, arrival, cas, finish, pre_start, pre_end, act_start, act_end,
        refresh_windows, drain_windows, foreign,
    ) -> dict[str, float]:
        """One read's components (see :meth:`decompose`), from its
        arrival, CAS issue and finish cycles and its own precharge and
        activate windows (start -1: none)."""
        base_dram = finish - cas

        # Each hierarchy level only allocates interval lists when its
        # windows actually overlap the wait; the common fully-queued
        # read touches none of them. `rest` is what is left of the wait
        # after each level: after the last, the read's queue intervals.
        in_refresh = iv.clip(refresh_windows, arrival, cas)
        if in_refresh:
            rest = iv.subtract([(arrival, cas)], in_refresh)
            refresh_c = iv.total_length(in_refresh)
        else:
            rest = [(arrival, cas)]
            refresh_c = 0
        drain_clipped = (
            iv.clip(drain_windows, arrival, cas) if drain_windows else []
        )
        drain_c = 0
        if drain_clipped:
            in_drain = iv.intersect(rest, drain_clipped)
            if in_drain:
                rest = iv.subtract(rest, in_drain)
                drain_c = iv.total_length(in_drain)
        own_c = 0
        if pre_start >= 0 or act_start >= 0:
            own: list[tuple[int, int]] = []
            if pre_start >= 0:
                own.append((pre_start, pre_end))
            if act_start >= 0:
                own.append((act_start, act_end))
            own.sort()
            own_clipped = iv.clip(own, arrival, cas)
            if own_clipped:
                own_in = iv.intersect(rest, own_clipped)
                own_c = iv.total_length(own_in)
                if own_in and foreign is not None:
                    rest = iv.subtract(rest, own_in)
        queue_c = (cas - arrival) - refresh_c - drain_c - own_c
        parts: dict[str, float] = {
            "pre_act": own_c,
            "refresh": refresh_c,
            "writeburst": drain_c,
            "queue": queue_c,
        }
        if foreign is not None:
            foreign_clipped = iv.clip(foreign, arrival, cas)
            inter_c = (
                iv.total_length(iv.intersect(rest, foreign_clipped))
                if foreign_clipped else 0
            )
            parts["interference"] = inter_c
            parts["queue"] = queue_c - inter_c
        if self.split_base:
            parts["base_cntlr"] = self.base_controller_cycles
            parts["base_dram"] = base_dram
        else:
            parts["base"] = self.base_controller_cycles + base_dram
        return parts

    def _counted(self, done: CompletedRequests) -> list[bool]:
        """Whether each row of `done` is a DRAM read the stacks average
        over."""
        return [
            read and cas >= 0
            for read, cas in zip(
                done.reads(self.include_prefetch), done.cas_issue
            )
        ]

    @paused_gc
    def account(
        self,
        requests: CompletedRequests | list[Request],
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
        label: str = "",
    ) -> Stack:
        """Average latency stack over all DRAM reads, in nanoseconds."""
        done = _as_record(requests)
        return self._mean(
            _reads(done, self._counted(done)),
            refresh_windows, drain_windows, label,
        )

    @paused_gc
    def account_requesters(
        self,
        requests: CompletedRequests | list[Request],
        log: EventLog,
        label: str = "",
    ) -> dict[int, Stack]:
        """Average latency stacks per requester, in nanoseconds.

        Each requester's stack averages its own reads, with the queue
        cycles covered by other requesters' bursts reported as
        ``interference``. With one requester ``interference`` is zero
        and the stack is the aggregate's.
        """
        done = _as_record(requests)
        counted = self._counted(done)
        requesters = set(compress(done.requester_id, counted))
        refresh = refresh_windows_for_latency(log)
        # Burst (start, end) and owner columns in time order.
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
        for requester in sorted(requesters):
            others = [
                owner != requester and owner != SHARED_REQUESTER
                for owner in owners
            ]
            foreign = Timeline()
            foreign.starts.extend(compress(starts, others))
            foreign.ends.extend(compress(ends, others))
            mine = [
                read and owner == requester
                for read, owner in zip(counted, done.requester_id)
            ]
            stacks[requester] = self._mean(
                _reads(done, mine), refresh, log.drain_windows,
                f"{label}R{requester}", foreign,
            )
        return stacks

    def _mean(
        self,
        reads,
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
        label: str,
        foreign=None,
    ) -> Stack:
        """Average of the reads' checked decompositions, in ns.

        `reads` yields one ``(req_id, arrival, cas_issue, finish,
        own_pre_start, own_pre_end, own_act_start, own_act_end)`` tuple
        per read (see :func:`_reads`).
        """
        components = self.components
        if foreign is not None:
            components = (*components[:-1], "interference", "queue")
        sums = dict.fromkeys(components, 0.0)
        parts_of = self._parts
        count = 0
        for (
            req_id, arrival, cas, finish, pre_start, pre_end,
            act_start, act_end,
        ) in reads:
            count += 1
            parts = parts_of(
                arrival, cas, finish, pre_start, pre_end, act_start,
                act_end, refresh_windows, drain_windows, foreign,
            )
            negatives = [
                name for name, value in parts.items() if value < -1e-9
            ]
            if negatives:
                message = (
                    f"negative latency component(s) {negatives} for "
                    f"request {req_id} (arrival {arrival}, cas {cas})"
                )
                self._violation(
                    "latency-negative", message,
                    repair=lambda p=parts: _repair_parts(p),
                )
            measured = finish - arrival + self.base_controller_cycles
            drift = sum(parts.values()) - measured
            if abs(drift) > 1e-9:
                message = (
                    f"latency components sum to {sum(parts.values())} for a "
                    f"read with measured latency {measured}"
                )
                self._violation(
                    "latency-sum", message, residual=drift,
                    repair=lambda p=parts, d=drift: p.__setitem__(
                        "queue", p["queue"] - d
                    ),
                )
            for name, value in parts.items():
                sums[name] += value
        if not count:
            return ordered_stack({}, components, unit="ns", label=label)
        scale = self.spec.cycle_ns / count
        return ordered_stack(
            {name: value * scale for name, value in sums.items()},
            components,
            unit="ns",
            label=label,
        )

    @paused_gc
    def account_series(
        self,
        requests: CompletedRequests | list[Request],
        refresh_windows: list[tuple[int, int]],
        drain_windows: list[tuple[int, int]],
        total_cycles: int,
        bin_cycles: int,
        label: str = "",
    ) -> StackSeries:
        """Through-time latency stacks, binned by read completion time."""
        num_bins = -(-total_cycles // bin_cycles)
        buckets: list[list[tuple]] = [[] for _ in range(num_bins)]
        done = _as_record(requests)
        for read in _reads(done, self._counted(done)):
            b = min(read[3] // bin_cycles, num_bins - 1)
            buckets[b].append(read)
        stacks = [
            self._mean(
                bucket, refresh_windows, drain_windows, f"{label}[{b}]"
            )
            for b, bucket in enumerate(buckets)
        ]
        return StackSeries(stacks, bin_cycles, self.spec.cycle_ns, label=label)


def _as_record(requests) -> CompletedRequests:
    """`requests` as a record: a list of requests or rows becomes one."""
    if isinstance(requests, CompletedRequests):
        return requests
    return CompletedRequests(requests)


def _reads(done: CompletedRequests, keep):
    """The latency walk's per-read tuples of the rows `keep` selects:
    ``(req_id, arrival, cas_issue, finish, own_pre_start, own_pre_end,
    own_act_start, own_act_end)``."""
    return compress(zip(
        done.req_id, done.arrival, done.cas_issue, done.finish,
        done.own_pre_start, done.own_pre_end,
        done.own_act_start, done.own_act_end,
    ), keep)


def _repair_parts(parts: dict[str, float]) -> None:
    """Clamp negative components to zero, preserving the total.

    The clamped amount is taken from the largest positive component, so
    the per-read sum (and thus the exactness invariant) is unchanged.
    """
    clamped = 0.0
    for name, value in parts.items():
        if value < 0:
            clamped -= value
            parts[name] = 0.0
    if clamped:
        victim = max(parts, key=parts.get)
        parts[victim] -= clamped


def refresh_windows_for_latency(log) -> list[tuple[int, int]]:
    """The refresh windows a latency stack should account from `log`.

    Under all-bank refresh this returns ``log.refresh_windows``
    untouched (bit-identical to historic accounting). Same-bank
    refresh (``bank_refresh_windows`` non-empty) adds the per-bank
    windows, coalesced with any channel-wide ones — overlapping
    windows must merge or the interval arithmetic would double count.
    A read waiting while *another* bank refreshes is attributed to
    ``refresh`` too; that is the same channel-level approximation the
    all-bank model makes, and the residual ``queue`` component keeps
    each read's decomposition exact either way.
    """
    bank = log.bank_refresh_windows
    if not bank:
        return log.refresh_windows
    merged = sorted(chain(log.refresh_windows, zip(bank.starts, bank.ends)))
    out: list[tuple[int, int]] = []
    for s, e in merged:
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def latency_stack_from_requests(
    requests: CompletedRequests | list[Request],
    log,
    spec: TimingSpec,
    base_controller_cycles: int = 0,
    label: str = "",
) -> Stack:
    """Convenience wrapper taking the controller's event log directly."""
    accountant = LatencyStackAccountant(spec, base_controller_cycles)
    return accountant.account(
        requests, refresh_windows_for_latency(log), log.drain_windows, label
    )
