"""Ablation: ranks and channels.

More ranks add bank-level parallelism behind one bus (with tRTRS
switching bubbles); more channels multiply the bus itself. Both are the
standard capacity/bandwidth scaling levers the stacks must describe
correctly.
"""

import pytest

from repro.dram import (
    ControllerConfig,
    MemoryController,
    MemorySystem,
    MemorySystemConfig,
    Request,
    RequestType,
)
from repro.dram.timing import DDR4_2400
from repro.stacks.bandwidth import bandwidth_stack_from_log

SPEC = DDR4_2400


def run_ranks(ranks: int):
    """ACT-bound row-miss traffic striped over all banks and ranks."""
    spec = SPEC.with_organization(ranks=ranks)
    mc = MemoryController(ControllerConfig(
        spec=spec, address_scheme="interleaved", refresh_enabled=False,
    ))
    rank_shift = next(
        (shift for name, shift, __ in mc.mapping._slices if name == "rank"),
        0,
    )
    for i in range(600):
        address = i * (1 << 22) + ((i >> 1) % 16) * 64
        if ranks == 2 and i % 2:
            address |= 1 << rank_shift
        mc.enqueue(Request(RequestType.READ, address, arrival=i))
    mc.drain()
    mc.finalize()
    return mc, bandwidth_stack_from_log(mc.log, mc.now, spec)


def run_channels(channels: int):
    mem = MemorySystem(MemorySystemConfig(channels=channels))
    for i in range(800):
        mem.enqueue(Request(RequestType.READ, i * 64, arrival=0))
    mem.drain()
    mem.finalize()
    return mem, mem.bandwidth_stack(mem.now)


def test_second_rank_adds_parallelism(run_once):
    one, stack_one = run_once(run_ranks, 1)
    two, stack_two = run_ranks(2)
    assert stack_two["read"] > 1.1 * stack_one["read"]
    # Both stacks stay exact.
    stack_one.check_total(SPEC.peak_bandwidth_gbps)
    stack_two.check_total(SPEC.peak_bandwidth_gbps)


def test_second_channel_multiplies_peak(run_once):
    one, stack_one = run_once(run_channels, 1)
    two, stack_two = run_channels(2)
    assert stack_two.total == pytest.approx(2 * stack_one.total)
    assert stack_two["read"] > 1.6 * stack_one["read"]
