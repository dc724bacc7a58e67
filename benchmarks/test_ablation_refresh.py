"""Ablation: refresh on/off.

The refresh component is intrinsic ("nothing to do about" — Sec. IV);
this ablation verifies it is exactly the tRFC/tREFI duty cycle and that
removing refresh returns that bandwidth and removes the latency
component.
"""

import pytest

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram.timing import DDR4_2400
from repro.stacks.bandwidth import bandwidth_stack_from_log
from repro.stacks.latency import latency_stack_from_requests

SPEC = DDR4_2400


def run_refresh(enabled: bool):
    mc = MemoryController(ControllerConfig(refresh_enabled=enabled))
    for i in range(3000):
        mc.enqueue(Request(RequestType.READ, i * 64, arrival=i * 12))
    mc.drain()
    # Extend over many refresh intervals so the duty cycle converges.
    mc.run_until(mc.now + 30 * SPEC.tREFI)
    mc.finalize()
    bw = bandwidth_stack_from_log(mc.log, mc.now, SPEC)
    lat = latency_stack_from_requests(mc.completed_requests, mc.log, SPEC)
    return mc, bw, lat


def test_refresh_ablation(run_once):
    __, bw_on, lat_on = run_once(run_refresh, True)
    __, bw_off, lat_off = run_refresh(False)

    duty = SPEC.tRFC / SPEC.tREFI
    assert bw_on["refresh"] == pytest.approx(
        duty * SPEC.peak_bandwidth_gbps, rel=0.1
    )
    assert bw_off["refresh"] == 0.0
    assert lat_on["refresh"] > 0
    assert lat_off["refresh"] == 0.0
    # The freed bandwidth goes back to useful or idle components.
    assert bw_off["read"] + bw_off["idle"] > bw_on["read"] + bw_on["idle"]
