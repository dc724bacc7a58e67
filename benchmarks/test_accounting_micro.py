"""Micro-benchmarks of the accounting mechanism itself.

The paper stresses that the accounting must not slow simulation down
("complexity and speed needs to be considered"): its cost is linear in
DRAM commands, not simulated cycles. These benchmarks measure the
accountants and the controller engine in isolation.
"""

import pytest

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram.timing import DDR4_2400
from repro.stacks.bandwidth import BandwidthStackAccountant
from repro.stacks.latency import LatencyStackAccountant

SPEC = DDR4_2400


def build_controller(requests: int, stride: int = 64) -> MemoryController:
    mc = MemoryController(ControllerConfig())
    for i in range(requests):
        kind = RequestType.WRITE if i % 5 == 0 else RequestType.READ
        mc.enqueue(Request(kind, (i * stride) % (1 << 30), arrival=i * 5))
    mc.drain()
    mc.finalize()
    return mc


@pytest.fixture(scope="module")
def finished_controller():
    return build_controller(20_000)


def test_controller_throughput(benchmark):
    """End-to-end controller engine: requests through FR-FCFS + DDR4."""
    result = benchmark.pedantic(
        build_controller, args=(5_000,), rounds=3, iterations=1
    )
    assert result.stats.reads_completed > 0


def test_bandwidth_accounting_speed(benchmark, finished_controller):
    """Interval-sweep bandwidth accounting over a 20k-request log."""
    mc = finished_controller
    accountant = BandwidthStackAccountant(SPEC)
    stack = benchmark(accountant.account, mc.log, mc.now)
    stack.check_total(SPEC.peak_bandwidth_gbps)


def test_bandwidth_accounting_binned_speed(benchmark, finished_controller):
    """Through-time (binned) variant of the accounting."""
    mc = finished_controller
    accountant = BandwidthStackAccountant(SPEC)
    series = benchmark(
        accountant.account_series, mc.log, mc.now, 10_000
    )
    assert len(series) >= 2


def test_latency_accounting_speed(benchmark, finished_controller):
    """Per-read latency decomposition over a 20k-request log."""
    mc = finished_controller
    accountant = LatencyStackAccountant(SPEC, base_controller_cycles=42)
    stack = benchmark(
        accountant.account,
        mc.completed_requests,
        mc.log.refresh_windows,
        mc.log.drain_windows,
    )
    assert stack.total > 0


def test_accounting_cost_scales_with_commands(benchmark):
    """Accounting cost is command-bound: a long idle tail (many cycles,
    no commands) must not blow up the accounting time."""
    mc = build_controller(2_000)
    mc.run_until(mc.now + 10_000_000)  # ten million idle cycles
    accountant = BandwidthStackAccountant(SPEC)
    stack = benchmark(accountant.account, mc.log, mc.now)
    assert stack.fraction("idle") + stack.fraction("refresh") > 0.9
