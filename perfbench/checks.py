"""Correctness gate and result-derived counts for the benchmark.

Every simulation run the benchmark times is checked here, with the
clock paused:

* conservation: each channel's bandwidth counters sum exactly to
  ``banks x total_cycles`` and the bandwidth stack to channels x peak;
  per-requester counters fold back exactly to the aggregate;
* the invariant auditor the run carried recorded no violation;
* at seed 42 the run's ``result_fingerprint`` digest equals the one
  pinned in ``pins.json`` (the shipped figures' runs).

Counts are derived from the finished result, so the untraced run and
the traced run can be compared on them exactly.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

#: The seed the shipped figures use; pins exist for it only.
PINNED_SEED = 42
PINS_FILE = Path(__file__).resolve().with_name("pins.json")
#: Relative tolerance of the float stack totals (the integer counters
#: are compared exactly).
FLOAT_TOLERANCE = 1e-9


def load_pins() -> dict[str, dict[str, str]]:
    """workload -> run label -> pinned fingerprint digest."""
    return json.loads(PINS_FILE.read_text())


def pinned_mismatch(pins, workload: str, seed: int, label: str,
                    digest: str) -> str | None:
    """Why `digest` fails its pin, or None (always None off seed 42)."""
    if seed != PINNED_SEED:
        return None
    expected = pins.get(workload, {}).get(label)
    if expected is None:
        return f"no pinned digest for {workload} {label!r}"
    if expected != digest:
        return (
            f"fingerprint {digest[:12]} != pinned {expected[:12]} "
            f"({workload} {label!r})"
        )
    return None


def _controllers(result) -> list:
    return list(result.memory.channels) if result.composite else [
        result.memory
    ]


def conservation_problems(result, fingerprint: dict) -> list[str]:
    """Exactness failures of one result's stacks (empty when exact)."""
    from repro.stacks.bandwidth import BandwidthStackAccountant
    from repro.stacks.requester import fold_interference

    problems = []
    controllers = _controllers(result)
    total_cycles = result.total_cycles
    aggregate = None
    for index, mc in enumerate(controllers):
        counters = BandwidthStackAccountant(mc.spec).account_cycles(
            mc.log, total_cycles
        )[0]
        banks = mc.spec.organization.total_banks
        if sum(counters.values()) != banks * total_cycles:
            problems.append(
                f"channel {index}: bandwidth counters sum to "
                f"{sum(counters.values())}, expected "
                f"{banks * total_cycles}"
            )
        if any(count < 0 for count in counters.values()):
            problems.append(f"channel {index}: negative counter")
        aggregate = counters
    peak = result.spec.peak_bandwidth_gbps * len(controllers)
    total = sum(value for __, value in fingerprint["bandwidth"])
    if abs(total - peak) > FLOAT_TOLERANCE * peak:
        problems.append(f"bandwidth stack totals {total!r}, peak {peak!r}")
    if result.system.config.requesters is not None and not result.composite:
        rows = result.per_requester_bandwidth_cycles()
        if fold_interference(rows) != aggregate:
            problems.append(
                "per-requester counters do not fold to the aggregate"
            )
    auditor = result.auditor
    if auditor is not None and not auditor.clean:
        problems.append(
            f"auditor recorded {auditor.total_violations} violation(s)"
        )
    return problems


def stack_rows(stack) -> list[list]:
    """A stack as [[name, value], ...] (the fingerprint's form)."""
    return [[name, value] for name, value in stack.as_rows()]


def result_counts(result, traces) -> dict[str, int]:
    """Work counts of one run, derived from its finished result."""
    from repro.dram.components.accounting import EventLog

    system = result.system
    l1_hits = l1_accesses = 0
    for core in system.cores:
        stats = core.hierarchy.l1.stats
        l1_hits += stats.hits
        l1_accesses += stats.hits + stats.misses
    llc = system.llc.stats
    controllers = _controllers(result)
    entries = sidecar = commands = row_hits = cas = 0
    for mc in controllers:
        stats = mc.stats
        cas_ops = stats.row_hits + stats.row_misses
        commands += (
            stats.activates + stats.precharges + stats.refreshes + cas_ops
        )
        row_hits += stats.row_hits
        cas += cas_ops
        for spec in dataclasses.fields(EventLog):
            size = len(getattr(mc.log, spec.name))
            if "_owner" in spec.name:
                sidecar += size
            else:
                entries += size
    latency_reads = sum(
        1 for mc in controllers for r in mc.completed_requests
        if r.is_read and not r.forwarded and r.cas_issue >= 0
        and not r.is_prefetch
    )
    return {
        "workloads.trace_items": sum(len(trace) for trace in traces),
        "cpu.core.instructions": result.instructions,
        "cpu.hierarchy.accesses": l1_accesses,
        "cpu.hierarchy.l1_hits": l1_hits,
        "cpu.hierarchy.llc_accesses": llc.hits + llc.misses,
        "cpu.hierarchy.llc_hits": llc.hits,
        "dram.controller.requests": result.dram_reads + result.dram_writes,
        "dram.controller.commands": commands,
        "dram.controller.cas": cas,
        "dram.controller.row_hits": row_hits,
        "dram.eventlog.entries": entries,
        "dram.eventlog.sidecar_entries": sidecar,
        "stacks.latency.reads": latency_reads,
        "model.total_cycles": result.total_cycles,
    }


def payload_counts(payload: dict) -> dict[str, int]:
    """The counts a service job payload carries (a subset of
    :func:`result_counts`)."""
    counts = payload["counts"]
    return {
        "cpu.core.instructions": counts["instructions"],
        "dram.controller.requests": (
            counts["dram_reads"] + counts["dram_writes"]
        ),
        "model.total_cycles": counts["total_cycles"],
    }


def payload_problems(payload: dict, peak_gbps: float) -> list[str]:
    """Conservation of a job payload's bandwidth stack (float total)."""
    total = sum(value for __, value in payload["bandwidth"]["components"])
    if abs(total - peak_gbps) > FLOAT_TOLERANCE * peak_gbps:
        return [f"bandwidth stack totals {total!r}, peak {peak_gbps!r}"]
    return []
