"""Tests for bandwidth stack accounting, including the Fig. 1 example."""

import pytest

from repro.dram import ControllerConfig, MemoryController
from repro.dram.controller import EventLog
from repro.dram.rank import BlockScope
from repro.dram.timing import DDR4_2400
from repro.errors import AccountingError
from repro.stacks.bandwidth import (
    BANDWIDTH_COMPONENTS,
    BandwidthStackAccountant,
    bandwidth_stack_from_log,
)

from tests.conftest import make_reads, make_writes, run_stream

SPEC = DDR4_2400
N = SPEC.organization.banks
PEAK = SPEC.peak_bandwidth_gbps


def account(log, cycles):
    return BandwidthStackAccountant(SPEC).account(log, cycles)


class TestHandBuiltTimelines:
    """Synthetic event logs with known, hand-computable answers."""

    def test_fully_busy_channel_is_all_read(self):
        log = EventLog(bursts=[(i * 4, i * 4 + 4, False) for i in range(25)])
        stack = account(log, 100)
        assert stack["read"] == pytest.approx(PEAK)
        assert stack.total == pytest.approx(PEAK)

    def test_read_write_split(self):
        log = EventLog(bursts=[(0, 50, False), (50, 100, True)])
        stack = account(log, 100)
        assert stack["read"] == pytest.approx(PEAK / 2)
        assert stack["write"] == pytest.approx(PEAK / 2)

    def test_empty_log_is_all_idle(self):
        stack = account(EventLog(), 1000)
        assert stack["idle"] == pytest.approx(PEAK)

    def test_refresh_window(self):
        log = EventLog(refresh_windows=[(0, 250)])
        stack = account(log, 1000)
        assert stack["refresh"] == pytest.approx(PEAK / 4)
        assert stack["idle"] == pytest.approx(3 * PEAK / 4)

    def test_single_bank_activate_splits_one_sixteenth(self):
        # One bank activates for the whole window: 1/16 activate,
        # 15/16 bank-idle (paper's 1/n rule).
        log = EventLog(act_windows=[(0, 100, 3)])
        stack = account(log, 100)
        assert stack["activate"] == pytest.approx(PEAK / N)
        assert stack["bank_idle"] == pytest.approx(PEAK * (N - 1) / N)

    def test_pre_and_act_in_different_banks(self):
        log = EventLog(
            pre_windows=[(0, 100, 0)],
            act_windows=[(0, 100, 1)],
        )
        stack = account(log, 100)
        assert stack["precharge"] == pytest.approx(PEAK / N)
        assert stack["activate"] == pytest.approx(PEAK / N)
        assert stack["bank_idle"] == pytest.approx(PEAK * (N - 2) / N)

    def test_refresh_has_priority_over_activate(self):
        log = EventLog(
            refresh_windows=[(0, 100)],
            act_windows=[(0, 100, 0)],
        )
        stack = account(log, 100)
        assert stack["refresh"] == pytest.approx(PEAK)
        assert stack["activate"] == 0.0

    def test_rank_scope_block_is_full_constraints(self):
        # Fig. 1's Tr2w: a rank-wide turnaround charges the whole channel.
        log = EventLog(
            blocked=[(0, 100, BlockScope.RANK, -1, "read_to_write")]
        )
        stack = account(log, 100)
        assert stack["constraints"] == pytest.approx(PEAK)

    def test_bank_group_scope_block_splits_by_group(self):
        log = EventLog(
            blocked=[(0, 100, BlockScope.BANK_GROUP, 0, "tCCD_L")]
        )
        stack = account(log, 100)
        bpg = SPEC.organization.banks_per_group
        assert stack["constraints"] == pytest.approx(PEAK * bpg / N)
        assert stack["bank_idle"] == pytest.approx(PEAK * (N - bpg) / N)

    def test_bank_scope_block(self):
        log = EventLog(blocked=[(0, 100, BlockScope.BANK, 0, "tRAS")])
        stack = account(log, 100)
        assert stack["constraints"] == pytest.approx(PEAK / N)
        assert stack["bank_idle"] == pytest.approx(PEAK * (N - 1) / N)

    def test_pre_act_has_priority_over_blocked(self):
        log = EventLog(
            act_windows=[(0, 100, 0)],
            blocked=[(0, 100, BlockScope.RANK, -1, "tFAW")],
        )
        stack = account(log, 100)
        assert stack["constraints"] == 0.0
        assert stack["activate"] == pytest.approx(PEAK / N)

    def test_overlapping_bursts_raise(self):
        log = EventLog(bursts=[(0, 10, False), (5, 15, False)])
        with pytest.raises(AccountingError):
            account(log, 100)

    def test_zero_cycles_raise(self):
        with pytest.raises(AccountingError):
            account(EventLog(), 0)


class TestFig1Example:
    """The paper's Fig. 1: four banks, pre/act in parallel, a read-to-
    write turnaround, refresh at the start."""

    def test_fig1_shape(self):
        spec4 = SPEC.with_organization(bank_groups=2, banks_per_group=2)
        acct = BandwidthStackAccountant(spec4)
        log = EventLog(
            refresh_windows=[(0, 20)],
            pre_windows=[(20, 30, 0)],
            act_windows=[(30, 40, 0), (44, 54, 1)],
            bursts=[(40, 44, False), (54, 58, False), (70, 74, True)],
            blocked=[(58, 70, BlockScope.RANK, -1, "read_to_write")],
        )
        stack = acct.account(log, 74)
        peak = spec4.peak_bandwidth_gbps
        # Every component the figure shows is present.
        assert stack["refresh"] == pytest.approx(peak * 20 / 74)
        assert stack["read"] == pytest.approx(peak * 8 / 74)
        assert stack["write"] == pytest.approx(peak * 4 / 74)
        # Pre/act periods: 20-40 on bank 0 and 44-54 on bank 1, each
        # splitting 1/4 busy + 3/4 bank-idle.
        assert stack["precharge"] == pytest.approx(peak * 10 / 4 / 74)
        assert stack["activate"] == pytest.approx(peak * 20 / 4 / 74)
        # Tr2w: full-width constraints, as drawn in the figure.
        assert stack["constraints"] == pytest.approx(peak * 12 / 74)
        assert stack.total == pytest.approx(peak)


class TestSimulatedLogs:
    def test_components_always_sum_to_peak(self):
        mc = MemoryController(ControllerConfig())
        requests = make_reads(300, gap=7)
        requests += make_writes(150, start_address=1 << 23, gap=13)
        run_stream(mc, sorted(requests, key=lambda r: r.arrival))
        stack = bandwidth_stack_from_log(mc.log, mc.now, SPEC)
        stack.check_total(PEAK)

    def test_idle_dominates_sparse_traffic(self):
        mc = MemoryController(ControllerConfig())
        run_stream(mc, make_reads(50, gap=500))
        stack = bandwidth_stack_from_log(mc.log, mc.now, SPEC)
        assert stack.fraction("idle") > 0.7

    def test_refresh_component_matches_duty_cycle(self):
        mc = MemoryController(ControllerConfig())
        mc.run_until(SPEC.tREFI * 20)
        stack = bandwidth_stack_from_log(mc.log, mc.now, SPEC)
        expected = PEAK * SPEC.tRFC / SPEC.tREFI
        assert stack["refresh"] == pytest.approx(expected, rel=0.1)

    def test_series_bins_sum_to_peak_each(self):
        mc = MemoryController(ControllerConfig())
        run_stream(mc, make_reads(500, gap=5))
        acct = BandwidthStackAccountant(SPEC)
        series = acct.account_series(mc.log, mc.now, bin_cycles=1000)
        for stack in series:
            stack.check_total(PEAK)

    def test_series_aggregate_matches_single_stack(self):
        mc = MemoryController(ControllerConfig())
        run_stream(mc, make_reads(400, gap=6))
        acct = BandwidthStackAccountant(SPEC)
        total_cycles = mc.now - (mc.now % 1000) or mc.now
        single = acct.account(mc.log, total_cycles)
        series = acct.account_series(mc.log, total_cycles, bin_cycles=1000)
        if total_cycles % 1000 == 0:  # equal bins: mean equals aggregate
            agg = series.aggregate()
            for name in BANDWIDTH_COMPONENTS:
                assert agg[name] == pytest.approx(single[name], abs=1e-9)

    def test_order_matches_canonical(self):
        mc = MemoryController(ControllerConfig())
        run_stream(mc, make_reads(10, gap=10))
        stack = bandwidth_stack_from_log(mc.log, mc.now, SPEC)
        assert tuple(stack.components) == BANDWIDTH_COMPONENTS
