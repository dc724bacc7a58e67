"""Differential tests: independent configurations that must agree.

Three families of cross-checks, which difference the simulator against
*itself* (only the DDR5 engine rows below also pin committed fixtures):

* **packed vs reference engine** — the optimized controller engine
  (struct-of-arrays state, plan cache, per-bank candidate caches,
  incremental plan repair, fused wait-and-issue) must produce a
  bit-identical event log and stacks to the straightforward
  re-plan-every-step reference engine;
* **FCFS vs FR-FCFS** — reordering changes timing but never the work:
  both policies must complete exactly the same read/write requests, and
  each must satisfy the stack-exactness invariants;
* **open vs closed page policy** — the page policy changes precharge
  behaviour but not the data moved: bursts and byte counts must match.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.cpu.core import CoreConfig
from repro.cpu.prefetcher import PrefetcherConfig
from repro.cpu.system import CpuSystem
from repro.experiments.config import paper_system
from repro.reliability.fingerprint import (
    diff_fingerprints,
    result_fingerprint,
)
from repro.workloads.synthetic import SyntheticConfig, make_pattern

ACCESSES = 1_500


def run_config(
    pattern: str,
    store_fraction: float = 0.0,
    page_policy: str = "open",
    scheduling: str = "fr-fcfs",
    engine: str = "packed",
    cores: int = 2,
    prefetch: bool = True,
    core_engine: str = "fast",
    device: str | None = None,
):
    """One synthetic run with full control over scheduler knobs.

    ``prefetch=False`` (with ``cores=1``) makes the DRAM request stream
    a pure function of the trace: the simulator is closed-loop, so with
    prefetching on, memory timing feeds back into how many prefetches
    fit under the in-flight cap, and with multiple cores it feeds back
    into the shared-LLC interleaving — both legitimately change request
    *counts* across scheduling policies. The cross-policy invariance
    tests below compare the work itself, so they pin the stream down.
    """
    # The QoS arbiters arbitrate between requester domains: give each
    # core its own, so their credit and budget state actually binds.
    qos = scheduling.startswith(("wrr", "bank-reg"))
    config = paper_system(
        cores=cores, page_policy=page_policy, gap=True,
        core=CoreConfig(engine=core_engine), device=device,
        requesters=cores if qos else None,
    )
    memory = replace(config.memory, scheduling=scheduling, engine=engine)
    if prefetch:
        config = replace(config, memory=memory)
    else:
        hierarchy = replace(
            config.hierarchy, prefetcher=PrefetcherConfig(enabled=False)
        )
        config = replace(config, memory=memory, hierarchy=hierarchy)
    workload = make_pattern(pattern, SyntheticConfig(
        accesses_per_core=ACCESSES,
        store_fraction=store_fraction,
    ))
    return CpuSystem(config).run(workload.traces(cores), guard=False)


@lru_cache(maxsize=None)
def engine_fingerprint(
    pattern, store_fraction, page_policy, scheduling, engine, device
) -> dict:
    """`result_fingerprint` of one `run_config` run, computed once per
    module: the engine matrices below share configurations."""
    return result_fingerprint(run_config(
        pattern, store_fraction, page_policy, scheduling,
        engine=engine, device=device,
    ))


# ----------------------------------------------------------------------
# Optimized (packed) engine vs reference engine: bit-identical results.
# ----------------------------------------------------------------------
ENGINE_MATRIX = [
    # (pattern, store_fraction, page_policy, scheduling)
    ("sequential", 0.0, "open", "fr-fcfs"),
    ("random", 0.0, "open", "fr-fcfs"),
    ("strided", 0.3, "open", "fr-fcfs"),
    ("pointer-chase", 0.0, "open", "fr-fcfs"),
    ("sequential", 0.5, "closed", "fr-fcfs"),
    ("random", 0.5, "closed", "fr-fcfs"),
    ("sequential", 0.0, "open", "fcfs"),
    ("random", 0.3, "closed", "fcfs"),
]


@pytest.mark.parametrize(
    "pattern,store_fraction,page_policy,scheduling",
    ENGINE_MATRIX,
    ids=[
        f"{p}-sf{sf}-{pp}-{sched}" for p, sf, pp, sched in ENGINE_MATRIX
    ],
)
def test_fast_engine_matches_reference(
    pattern, store_fraction, page_policy, scheduling
):
    """The optimized controller engine (``packed``; this test predates
    the removal of the ``fast`` object engine) is bit-identical to the
    reference engine."""
    packed = engine_fingerprint(
        pattern, store_fraction, page_policy, scheduling, "packed", None
    )
    reference = engine_fingerprint(
        pattern, store_fraction, page_policy, scheduling, "reference", None
    )
    problems = diff_fingerprints(reference, packed)
    assert not problems, (
        "packed engine diverged from reference:\n  "
        + "\n  ".join(problems)
    )


# ----------------------------------------------------------------------
# Packed engine vs reference across policies and devices.
# ----------------------------------------------------------------------
# The packed struct-of-arrays engine runs every built-in policy: both
# page policies, all four schedulers (the QoS arbiters included), store
# mixes, and DDR5/LPDDR5 timing presets per channel. It must agree with
# the reference engine bit for bit on every row — except on the DDR5
# rows (see DDR5_ROWS below).
PACKED_MATRIX = [
    # (pattern, store_fraction, page_policy, scheduling, device)
    ("sequential", 0.0, "open", "fr-fcfs", None),
    ("random", 0.0, "open", "fr-fcfs", None),
    ("strided", 0.3, "open", "fr-fcfs", None),
    ("pointer-chase", 0.0, "open", "fr-fcfs", None),
    ("sequential", 0.5, "closed", "fr-fcfs", None),
    ("random", 0.5, "closed", "fr-fcfs", None),
    ("sequential", 0.0, "open", "fcfs", None),
    ("random", 0.3, "closed", "fcfs", None),
    ("strided", 0.0, "closed", "fr-fcfs", None),
    ("random", 0.2, "open", "wrr:2,1", None),
    ("random", 0.2, "open", "wrr", None),
    ("random", 0.2, "closed", "wrr:2,1", None),
    ("random", 0.2, "open", "bank-reg:period=1000,budget=4", None),
    ("random", 0.0, "open", "fr-fcfs", "ddr5-4800"),
    ("sequential", 0.3, "closed", "fr-fcfs", "ddr5-4800"),
    ("random", 0.0, "open", "fr-fcfs", "lpddr5-6400"),
]

#: Rows where packed and reference may split a blocked-attribution
#: window differently. The packed engine derives a wait's binding
#: constraint once, when the wait starts, and extends the window in
#: place; the reference engine re-derives it at each of its own
#: (different) re-entry cycles, so on DDR5 sub-channels a fence that
#: expires mid-wait — leaving only the unattributed one-command-per-
#: cycle gate — is labeled differently. Every other timeline and the
#: stacks must still match exactly, and both fingerprints are pinned
#: byte for byte by golden fixtures, so the delta can neither grow nor
#: spread.
DDR5_ROWS = {
    row for row in PACKED_MATRIX if row[4] == "ddr5-4800"
}


def _row_id(pattern, store_fraction, page_policy, scheduling, device):
    return (
        f"{pattern}-sf{store_fraction}-{page_policy}-{scheduling}-"
        f"{device or 'ddr4'}"
    )


def _channel_logs(result):
    memory = result.memory
    channels = getattr(memory, "channels", None)
    if channels is None:
        return [memory.log]
    return [channel.log for channel in channels]


@pytest.mark.parametrize(
    "pattern,store_fraction,page_policy,scheduling,device",
    PACKED_MATRIX,
    ids=[_row_id(*row) for row in PACKED_MATRIX],
)
def test_packed_engine_matches_fast_and_reference(
    pattern, store_fraction, page_policy, scheduling, device, golden
):
    """Packed vs reference; on the DDR5 rows, both vs their fixtures."""
    row = (pattern, store_fraction, page_policy, scheduling, device)
    if row not in DDR5_ROWS:
        packed = engine_fingerprint(*row[:4], "packed", device)
        reference = engine_fingerprint(*row[:4], "reference", device)
        problems = diff_fingerprints(reference, packed)
        assert not problems, (
            "packed engine diverged from reference:\n  "
            + "\n  ".join(problems)
        )
        return
    name = f"differential-{_row_id(*row)}"
    packed_run = run_config(*row[:4], engine="packed", device=device)
    reference_run = run_config(*row[:4], engine="reference", device=device)
    packed = golden(f"{name}-packed", packed_run)
    reference = golden(f"{name}-reference", reference_run)
    for section in ("bandwidth", "latency", "counts"):
        assert packed[section] == reference[section], section
    from repro.reliability.fingerprint import _LOG_FIELDS

    for ch, (plog, rlog) in enumerate(zip(
        _channel_logs(packed_run), _channel_logs(reference_run)
    )):
        for field in _LOG_FIELDS:
            if field == "blocked":
                continue
            assert getattr(plog, field) == getattr(rlog, field), (
                f"channel {ch} {field} timeline diverged — the "
                "packed-vs-reference delta must be confined to blocked "
                "attribution"
            )


# ----------------------------------------------------------------------
# Fast core engine vs reference core engine: bit-identical results.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "pattern,store_fraction,page_policy,scheduling",
    ENGINE_MATRIX,
    ids=[
        f"{p}-sf{sf}-{pp}-{sched}" for p, sf, pp, sched in ENGINE_MATRIX
    ],
)
def test_fast_core_matches_reference_core(
    pattern, store_fraction, page_policy, scheduling
):
    """The event-skipping core stepper is an inline expansion of the
    per-item reference stepper: same floats in the same order, so the
    fingerprints (DRAM event log, stacks, counts) must be identical."""
    fast = result_fingerprint(run_config(
        pattern, store_fraction, page_policy, scheduling,
        core_engine="fast",
    ))
    reference = result_fingerprint(run_config(
        pattern, store_fraction, page_policy, scheduling,
        core_engine="reference",
    ))
    problems = diff_fingerprints(reference, fast)
    assert not problems, (
        "fast core engine diverged from reference:\n  "
        + "\n  ".join(problems)
    )


# ----------------------------------------------------------------------
# FCFS vs FR-FCFS: same completed work, different timing.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pattern,store_fraction", [
    ("sequential", 0.0),
    ("random", 0.5),
])
def test_scheduling_policies_complete_the_same_work(
    pattern, store_fraction
):
    frfcfs = run_config(
        pattern, store_fraction, scheduling="fr-fcfs",
        cores=1, prefetch=False,
    )
    fcfs = run_config(
        pattern, store_fraction, scheduling="fcfs",
        cores=1, prefetch=False,
    )
    assert frfcfs.dram_reads == fcfs.dram_reads
    assert frfcfs.dram_writes == fcfs.dram_writes
    # Both runs must still satisfy the exactness invariants: the
    # bandwidth stack sums to peak (checked internally — account raises
    # AccountingError on drift when no auditor is attached) and every
    # read's latency components sum to its measured latency.
    for result in (frfcfs, fcfs):
        bandwidth = result.bandwidth_stack()
        latency = result.latency_stack()
        assert bandwidth.total > 0
        assert latency.total > 0
    # FR-FCFS exists to raise row-buffer locality: it must not lose to
    # FCFS on page hits for a pattern with reorderable requests.
    assert (
        frfcfs.memory.stats.page_hit_rate
        >= fcfs.memory.stats.page_hit_rate
    )


# ----------------------------------------------------------------------
# Open vs closed page: same data transferred.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pattern,store_fraction", [
    ("sequential", 0.0),
    ("random", 0.5),
])
def test_page_policies_transfer_the_same_data(pattern, store_fraction):
    open_page = run_config(
        pattern, store_fraction, page_policy="open",
        cores=1, prefetch=False,
    )
    closed = run_config(
        pattern, store_fraction, page_policy="closed",
        cores=1, prefetch=False,
    )
    assert open_page.dram_reads == closed.dram_reads
    assert open_page.dram_writes == closed.dram_writes
    # Every completed request is one line-sized burst on the data bus.
    open_bursts = len(open_page.memory.log.bursts)
    closed_bursts = len(closed.memory.log.bursts)
    assert open_bursts == closed_bursts
    line = open_page.spec.organization.line_bytes
    assert (
        open_bursts * line
        == (open_page.dram_reads + open_page.dram_writes) * line
    )
