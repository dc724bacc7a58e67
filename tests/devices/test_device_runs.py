"""End-to-end device-preset behaviour: config resolution, full runs,
stack conservation, composite-result API, and the deprecation shims.
"""

import pytest

from repro.devices import DEVICES
from repro.dram import ControllerConfig
from repro.dram.timing import DDR4_2400
from repro.dram.validator import validate_controller
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_synthetic
from repro.reliability.fingerprint import result_fingerprint

from tests.conftest import make_reads, run_stream

#: Small but refresh-exercising scale for full-pipeline device runs.
TINY = ExperimentScale("tiny", synthetic_accesses=300,
                       graph_scale=8, graph_degree=4)


class TestConfigResolution:
    def test_device_supplies_spec_refresh_and_channels(self):
        config = ControllerConfig(device="ddr5-4800")
        # Non-DDR4 specs are built per create() call: equal, not shared.
        assert config.spec == DEVICES.create("ddr5-4800").spec
        assert config.resolved_refresh == "same-bank"
        assert config.device_channels == 2

    def test_no_device_means_single_channel_ddr4(self):
        config = ControllerConfig()
        assert config.spec is DDR4_2400
        assert config.device_channels == 1

    def test_explicit_refresh_wins_over_the_preset(self):
        config = ControllerConfig(device="ddr5-4800", refresh="none")
        assert config.resolved_refresh == "none"

    def test_lpddr5_brings_its_own_address_scheme(self):
        config = ControllerConfig(device="lpddr5-6400")
        assert config.address_scheme == "lpddr5"
        mapping = config.make_mapping()
        assert "bank_group" not in mapping.order

    def test_device_selector_parameters_reach_the_config(self):
        config = ControllerConfig(device="hbm2:pseudo_channels=4")
        assert config.device_channels == 4

    def test_unknown_device_lists_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ControllerConfig(device="sdram-133")
        for name in DEVICES.names():
            assert name in str(excinfo.value)


class TestDeviceRuns:
    @pytest.mark.parametrize("name", DEVICES.names())
    def test_bandwidth_stack_conserves_aggregate_peak(self, name):
        preset = DEVICES.create(name)
        result = run_synthetic(
            "random", cores=2, store_fraction=0.2,
            scale=TINY, guard=False, device=name,
        )
        bandwidth = result.bandwidth_stack(name)
        assert bandwidth.total == pytest.approx(
            preset.peak_bandwidth_gbps, rel=1e-9,
        )
        latency = result.latency_stack(label=name)
        assert latency.total > 0

    def test_ddr4_device_is_bit_identical_to_the_default_path(self):
        baseline = run_synthetic(
            "random", cores=2, store_fraction=0.2, scale=TINY, guard=False,
        )
        via_device = run_synthetic(
            "random", cores=2, store_fraction=0.2, scale=TINY, guard=False,
            device="ddr4-2400",
        )
        assert result_fingerprint(via_device) == result_fingerprint(baseline)

    def test_composite_run_survives_the_default_guard(self):
        # The default guard audits logs incrementally and runs the
        # final bandwidth/latency audit per channel.
        selector = "hbm2:pseudo_channels=2"
        result = run_synthetic(
            "sequential", cores=1, scale=TINY, device=selector,
        )
        assert result.composite
        # Each pseudo-channel has fixed width, so halving the count
        # halves the aggregate peak (unlike DDR5 sub-channels).
        assert result.bandwidth_stack().total == pytest.approx(
            DEVICES.create(selector).peak_bandwidth_gbps, rel=1e-9,
        )

    def test_composite_fingerprint_is_deterministic(self):
        runs = [
            run_synthetic(
                "random", cores=2, scale=TINY, guard=False,
                device="ddr5-4800",
            )
            for _ in range(2)
        ]
        first, second = (result_fingerprint(r) for r in runs)
        assert first["digest"] == second["digest"]

    def test_single_channel_only_views_raise_on_composite(self):
        result = run_synthetic(
            "sequential", cores=2, scale=TINY, guard=False,
            device="ddr5-4800",
        )
        assert result.composite
        for call in (
            lambda: result.bandwidth_series(bin_cycles=1000),
            lambda: result.latency_series(bin_cycles=1000),
            result.per_core_latency_stacks,
            result.per_core_bandwidth,
            result.per_requester_bandwidth_stacks,
            result.per_requester_latency_stacks,
        ):
            with pytest.raises(ConfigurationError, match="multi-channel"):
                call()

    def test_per_channel_results_remain_reachable(self):
        result = run_synthetic(
            "sequential", cores=2, scale=TINY, guard=False,
            device="ddr5-4800",
        )
        channels = result.memory.channels
        assert len(channels) == 2
        assert sum(
            ch.stats.reads_completed + ch.stats.writes_completed
            for ch in channels
        ) == result.dram_reads + result.dram_writes


class TestSameBankRefreshValidation:
    @pytest.mark.parametrize(
        "device", ["ddr5-4800:subchannels=1", "lpddr5-6400"]
    )
    def test_command_trace_validates_clean(self, device):
        from repro.dram import MemoryController

        config = ControllerConfig(device=device, keep_command_trace=True)
        controller = MemoryController(config)
        run_stream(controller, make_reads(800, stride=256, gap=40))
        assert controller.log.bank_refresh_windows, device
        checked = validate_controller(controller)
        assert checked > 0


class TestDeprecatedAliases:
    """The ``repro.dram``/``repro`` timing-spec aliases are gone: the
    constants live in :mod:`repro.dram.timing` only."""

    def test_ddr5_constant_still_importable(self):
        from repro.dram.timing import DDR5_4800

        assert DDR5_4800.name

    def test_unknown_attribute_raises(self):
        import repro
        import repro.dram as dram

        for module in (repro, dram):
            for name in ("DDR3_1600", "DDR4_2400", "DDR4_3200", "DDR5_4800"):
                assert name not in module.__all__
                with pytest.raises(AttributeError):
                    getattr(module, name)
