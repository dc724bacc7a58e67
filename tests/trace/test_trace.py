"""Tests for the trace format and offline stack construction."""

import io

import pytest

from repro.devices import DEVICES
from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram.timing import DDR4_2400
from repro.errors import TraceFormatError
from repro.stacks.bandwidth import (
    BandwidthStackAccountant,
    bandwidth_stack_from_log,
)
from repro.trace.events import CommandRecord, RequestRecord, TraceFile
from repro.trace.io import read_trace, write_trace
from repro.trace.offline import (
    capture_trace,
    event_log_from_trace,
    offline_bandwidth_stack,
    spec_by_name,
)


def run_recorded(requests=500, write_every=4, device=None, stride=64,
                 gap=7):
    mc = MemoryController(
        ControllerConfig(keep_command_trace=True, device=device)
    )
    for i in range(requests):
        kind = RequestType.WRITE if i % write_every == 0 else RequestType.READ
        mc.enqueue(Request(kind, (i * stride) % (1 << 24), arrival=i * gap))
    mc.drain()
    mc.finalize()
    return mc


class TestRoundTrip:
    def test_write_read_identity(self):
        mc = run_recorded()
        trace = capture_trace(mc)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        reread = read_trace(io.StringIO(buffer.getvalue()))
        assert reread.spec_name == trace.spec_name
        assert reread.total_cycles == trace.total_cycles
        assert reread.requests == trace.requests
        assert reread.commands == trace.commands

    def test_comments_and_blanks_ignored(self):
        text = (
            "# a comment\n\n"
            "DRAMTRACE v1 DDR4-2400 1000\n"
            "REQ 5 R 0x40 1\n"
            "# another\n"
            "CMD 10 ACT 0 1 7 1\n"
        )
        trace = read_trace(io.StringIO(text))
        assert len(trace.requests) == 1
        assert trace.commands[0].name == "ACT"

    def test_capture_requires_recording(self):
        mc = MemoryController(ControllerConfig(keep_command_trace=False))
        with pytest.raises(TraceFormatError):
            capture_trace(mc)


class TestFormatErrors:
    def test_empty(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(""))

    def test_bad_header(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("NOTATRACE v1 x 10\n"))

    def test_bad_record_kind(self):
        text = "DRAMTRACE v1 DDR4-2400 10\nBANANA 1 2 3\n"
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(text))

    def test_bad_command_name(self):
        text = "DRAMTRACE v1 DDR4-2400 10\nCMD 1 XYZ 0 0 0 0\n"
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(text))

    def test_truncated_line(self):
        text = "DRAMTRACE v1 DDR4-2400 10\nREQ 5 R\n"
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(text))

    def test_unknown_spec(self):
        with pytest.raises(TraceFormatError):
            spec_by_name("DDR9-9999")


class TestOfflineReconstruction:
    def test_data_components_match_online(self):
        mc = run_recorded()
        online = bandwidth_stack_from_log(mc.log, mc.now, mc.spec)
        trace = capture_trace(mc)
        offline = offline_bandwidth_stack(trace)
        assert offline["read"] == pytest.approx(online["read"], rel=1e-6)
        assert offline["write"] == pytest.approx(online["write"], rel=1e-6)
        assert offline["refresh"] == pytest.approx(
            online["refresh"], rel=1e-6
        )

    def test_offline_stack_sums_to_peak(self):
        mc = run_recorded()
        offline = offline_bandwidth_stack(capture_trace(mc))
        offline.check_total(DDR4_2400.peak_bandwidth_gbps)

    def test_event_log_reconstruction_counts(self):
        mc = run_recorded()
        rebuilt = event_log_from_trace(capture_trace(mc))
        assert len(rebuilt.bursts) == len(mc.log.bursts)
        assert len(rebuilt.refresh_windows) == len(mc.log.refresh_windows)
        assert len(rebuilt.act_windows) == len(mc.log.act_windows)

    def test_hand_built_trace(self):
        trace = TraceFile(
            spec_name="DDR4-2400",
            total_cycles=100,
            requests=[RequestRecord(0, False, 0, 1)],
            commands=[
                CommandRecord(0, "ACT", 0, 0, 0, 1),
                CommandRecord(17, "RD", 0, 0, 0, 1),
            ],
        )
        stack = offline_bandwidth_stack(trace)
        spec = DDR4_2400
        expected_read = (
            spec.burst_cycles / 100
        ) * spec.peak_bandwidth_gbps
        assert stack["read"] == pytest.approx(expected_read)
        assert stack["activate"] > 0


class TestCorruptedRoundTrip:
    """Write a real trace, damage one line, and check the parser names
    exactly where it broke."""

    def lines(self):
        buffer = io.StringIO()
        write_trace(capture_trace(run_recorded(80)), buffer)
        return buffer.getvalue().splitlines()

    def test_each_fault_kind_names_the_line(self):
        from repro.reliability.faults import TRACE_FAULTS, corrupt_trace_lines

        for kind in TRACE_FAULTS:
            lines = self.lines()
            index = len(lines) // 3
            with pytest.raises(TraceFormatError) as info:
                read_trace(corrupt_trace_lines(lines, kind, line_index=index))
            assert info.value.line_number == index + 1, kind
            assert info.value.line, kind

    def test_line_numbers_count_comments_and_blanks(self):
        lines = self.lines()
        # Three non-record lines pushed in front: the reported number
        # must still be the *file* line, or editors point at the wrong
        # place.
        lines = ["# generated", "", "# spec: DDR4-2400"] + lines
        lines[10] = "REQ not-a-number R 0x40 1"
        with pytest.raises(TraceFormatError) as info:
            read_trace(lines)
        assert info.value.line_number == 11

    def test_long_line_truncated_in_message(self):
        lines = self.lines()
        lines[5] = "REQ " + "x" * 500
        with pytest.raises(TraceFormatError) as info:
            read_trace(lines)
        assert len(info.value.line) <= 80
        assert info.value.line.endswith("...")

    def test_intact_trace_still_round_trips(self):
        reread = read_trace(self.lines())
        assert reread.requests and reread.commands


class TestEveryDevicePreset:
    @pytest.mark.parametrize("device", DEVICES.names())
    def test_trace_replays_to_a_conserving_stack(self, device):
        """A trace captured on one channel of any registered preset names
        a spec the offline path resolves, and replays to a stack that
        conserves every cycle and matches the online read, write and
        refresh components (same-bank refresh replayed per bank)."""
        mc = run_recorded(device=device, stride=4160, gap=25)
        assert mc.log.refresh_windows or mc.log.bank_refresh_windows
        buffer = io.StringIO()
        write_trace(capture_trace(mc), buffer)
        trace = read_trace(io.StringIO(buffer.getvalue()))
        assert spec_by_name(trace.spec_name) == mc.spec

        rebuilt = event_log_from_trace(trace)
        counters = BandwidthStackAccountant(mc.spec).account_cycles(
            rebuilt, trace.total_cycles
        )[0]
        assert sum(counters.values()) == (
            mc.spec.organization.total_banks * trace.total_cycles
        )
        offline = offline_bandwidth_stack(trace)
        offline.check_total(mc.spec.peak_bandwidth_gbps)
        online = bandwidth_stack_from_log(mc.log, mc.now, mc.spec)
        assert offline["read"] == pytest.approx(online["read"], rel=1e-9)
        assert offline["write"] == pytest.approx(online["write"], rel=1e-9)
        assert offline["refresh"] == pytest.approx(
            online["refresh"], rel=1e-9
        )
