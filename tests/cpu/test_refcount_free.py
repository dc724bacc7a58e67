"""A finished run holds no reference cycle, so refcounting frees it.

With the cyclic collector off, dropping the last references to a
result and its system must free the whole run graph: the system, its
memory controller, the controller's event log and the cores. A cycle
anywhere in that graph keeps every one of them alive until a full
collection, which CPython defers while the heap is large.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cpu.system import CpuSystem
from repro.experiments.config import ExperimentScale, paper_system
from repro.experiments.runner import run_synthetic
from repro.reliability.auditor import InvariantAuditor
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.fingerprint import result_fingerprint
from repro.reliability.guard import ReliabilityGuard
from repro.reliability.watchdog import ForwardProgressWatchdog
from repro.workloads.synthetic import SyntheticConfig, make_pattern

TINY = ExperimentScale("tiny", synthetic_accesses=600)


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _simulate(cores=2, max_cycles=None, **system):
    config = paper_system(cores=cores, gap=True, **system)
    workload = make_pattern("random", SyntheticConfig(
        accesses_per_core=TINY.synthetic_accesses, store_fraction=0.2,
    ))
    system = CpuSystem(config)
    return system.run(workload.traces(cores), max_cycles=max_cycles)


def _use(result) -> None:
    """Exercise the post-run APIs a figure or a check would call."""
    result.bandwidth_stack()
    result.latency_stack()
    result_fingerprint(result)
    memory = result.memory
    for controller in getattr(memory, "channels", None) or [memory]:
        controller.stall_snapshot()
    if not result.composite:
        result.bandwidth_series(5_000)
        result.per_core_latency_stacks()
        result.per_requester_bandwidth_stacks()
        result.per_requester_latency_stacks()


def _watch(result) -> dict[str, weakref.ref]:
    system = result.system
    memory = system.memory
    controller = (getattr(memory, "channels", None) or [memory])[0]
    return {
        "system": weakref.ref(system),
        "controller": weakref.ref(controller),
        "event log": weakref.ref(controller.log),
        "core": weakref.ref(system.cores[0]),
    }


def _assert_freed(run, check=None) -> None:
    """Run `run()`, use its result, drop it and check the graph died.

    The result never reaches the caller's frame, so the only references
    are the ones deleted here.
    """
    result = run()
    if check is not None:
        check(result)
    _use(result)
    refs = _watch(result)
    system = result.system
    del result, system
    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == [], f"still alive without the cyclic GC: {alive}"


@pytest.mark.usefixtures("no_gc")
class TestRefcountFreesRun:
    @pytest.mark.parametrize("engine", ["packed", "reference"])
    def test_engines(self, engine):
        _assert_freed(lambda: _simulate(engine=engine))

    def test_hbm2_composite(self):
        _assert_freed(lambda: _simulate(device="hbm2"))

    def test_two_requester_wrr(self):
        _assert_freed(
            lambda: _simulate(scheduling="wrr", requesters=(0, 1))
        )

    def test_max_cycles_truncated(self):
        def check(result):
            assert result.total_cycles == 2_000
            assert result.memory.stats.reads_completed > 0

        _assert_freed(lambda: _simulate(max_cycles=2_000), check)

    def test_guarded_run_synthetic(self, tmp_path):
        guard = ReliabilityGuard(
            watchdog=ForwardProgressWatchdog(),
            auditor=InvariantAuditor(mode="warn"),
            checkpoints=CheckpointManager(str(tmp_path), 5_000),
            final_audit=True,
        )
        _assert_freed(lambda: run_synthetic(
            "random", cores=2, scale=TINY, guard=guard,
        ))
        assert guard.checkpoints.checkpoints_written > 0
