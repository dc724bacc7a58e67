"""Tests for per-core achieved-bandwidth attribution."""

import pytest

from repro.cpu import CpuSystem, SystemConfig
from repro.cpu.core import TraceItem
from repro.dram.controller import EventLog
from repro.dram.timing import DDR4_2400
from repro.errors import AccountingError
from repro.stacks.bandwidth import BandwidthStackAccountant

SPEC = DDR4_2400
PEAK = SPEC.peak_bandwidth_gbps


class TestHandBuilt:
    def test_split_by_core(self):
        log = EventLog(bursts=[
            (0, 4, False, 0),
            (4, 8, False, 1),
            (8, 12, True, 1),
        ])
        per_core = BandwidthStackAccountant(SPEC).per_core_achieved(log, 48)
        assert per_core[0]["read"] == pytest.approx(PEAK * 4 / 48)
        assert per_core[1]["read"] == pytest.approx(PEAK * 4 / 48)
        assert per_core[1]["write"] == pytest.approx(PEAK * 4 / 48)

    def test_legacy_three_tuples_land_on_minus_one(self):
        log = EventLog(bursts=[(0, 4, False)])
        per_core = BandwidthStackAccountant(SPEC).per_core_achieved(log, 8)
        assert -1 in per_core

    def test_bad_total(self):
        with pytest.raises(AccountingError):
            BandwidthStackAccountant(SPEC).per_core_achieved(EventLog(), 0)

    def test_sum_matches_aggregate_stack(self):
        log = EventLog(bursts=[
            (i * 6, i * 6 + 4, i % 2 == 0, i % 3) for i in range(30)
        ])
        acct = BandwidthStackAccountant(SPEC)
        per_core = acct.per_core_achieved(log, 200)
        total = sum(
            sum(bucket.values()) for bucket in per_core.values()
        )
        stack = acct.account(log, 200)
        assert total == pytest.approx(stack["read"] + stack["write"])


class TestSimulated:
    def test_asymmetric_cores_attributed(self):
        # Core 0 does 4x the traffic of core 1.
        def trace(n, start):
            return [
                TraceItem(instructions=8, address=start + i * 64)
                for i in range(n)
            ]

        system = CpuSystem(SystemConfig(cores=2))
        result = system.run([
            trace(2000, 1 << 28),
            trace(500, (1 << 28) + (1 << 24)),
        ])
        per_core = result.per_core_bandwidth()
        assert per_core[0]["read"] > 2 * per_core[1]["read"]


class TestPerCoreLatency:
    def test_stacks_per_core(self):
        def trace(n, start, stride):
            return [
                TraceItem(instructions=8, address=start + i * stride)
                for i in range(n)
            ]

        system = CpuSystem(SystemConfig(cores=2))
        # Core 0 sequential (row hits), core 1 row-conflicting stream.
        result = system.run([
            trace(400, 1 << 28, 64),
            trace(400, 1 << 29, 1 << 21),
        ])
        per_core = result.per_core_latency_stacks()
        assert set(per_core) == {0, 1}
        # The conflicting core pays pre/act latency; the sequential one
        # barely does.
        assert per_core[1]["pre_act"] > 5 * per_core[0]["pre_act"] + 1
        for stack in per_core.values():
            assert stack.unit == "ns"
