"""Property suite for the packed struct-of-arrays controller engine.

Locks down :mod:`repro.dram.packed` from three angles:

* **Round-trip** — ``pack()`` immediately followed by ``flush()`` on a
  mid-run controller restores the object state exactly: global queue
  order (reads and writes), per-bank open-row and timing-fence state,
  rank/bus fences and the refresh fences — and a round-tripped
  controller finishes the stream bit-identically to one that never
  packed.
* **Engine agreement** — random two-requester request streams produce
  the same event log digest and the same counters under ``packed`` and
  ``reference``, across every built-in scheduler (the wrr and bank-reg
  QoS arbiters included) and both page policies.
* **No fallback** — every built-in scheduler × page × refresh policy
  runs on the packed loop; only a custom registration (even a subclass
  of a built-in) falls back, once and logged, to the reference object
  path.
* **Eager rejection** — a custom scheduler registration that exposes no
  ``reference_plan`` planner is refused at config time by either engine
  with an error naming the policy, instead of failing mid-run.
"""

from __future__ import annotations

import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram import components
from repro.dram.components.scheduling import FrFcfsScheduler
from repro.dram.controller import ENGINES as CONTROLLER_ENGINES
from repro.dram.packed import PackedEngine, packed_fallback_reason
from repro.dram.timing import DDR4_2400
from repro.errors import ConfigurationError
from repro.reliability.fingerprint import event_log_digest
from tests.conftest import run_stream

ENGINES = ("packed", "reference")


@st.composite
def streams(draw):
    """A mixed read/write stream from up to three requesters."""
    count = draw(st.integers(min_value=1, max_value=50))
    t = 0
    requests = []
    for _ in range(count):
        t += draw(st.integers(min_value=0, max_value=120))
        line = draw(st.integers(min_value=0, max_value=(1 << 14) - 1))
        is_write = draw(st.booleans()) and draw(st.booleans())
        requests.append(Request(
            RequestType.WRITE if is_write else RequestType.READ,
            line * 64,
            arrival=t,
            requester_id=draw(st.integers(min_value=0, max_value=2)),
        ))
    return requests


def spec_of(requests):
    """Pickle the stream into a rebuildable form (runs mutate requests)."""
    return [
        (rq.req_type, rq.address, rq.arrival, rq.requester_id)
        for rq in requests
    ]


def rebuild(stream_spec):
    return [
        Request(type_, address, arrival=arrival, requester_id=requester)
        for type_, address, arrival, requester in stream_spec
    ]


def make_controller(
    engine: str = "reference",
    scheduling: str = "fr-fcfs",
    page_policy: str = "open",
) -> MemoryController:
    return MemoryController(ControllerConfig(
        spec=DDR4_2400, engine=engine, scheduling=scheduling,
        page_policy=page_policy,
    ))


def object_state(ctrl: MemoryController):
    """The observable object-engine state the pack/flush cycle carries.

    Queue order by request id, per-bank row + timing fences + counters,
    per-rank/group fences and the FAW window, the data bus, and the
    refresh fences.
    """
    reads = [
        entry.request.req_id
        for entry in ctrl._read_queue._global_fifo if not entry.served
    ]
    writes = [
        entry.request.req_id
        for entry in ctrl._write_buffer.queue._global_fifo
        if not entry.served
    ]
    banks = [
        (
            bank.open_row, bank.next_act, bank.next_pre, bank.next_cas,
            bank.pre_until, bank.act_until, bank.cas_data_until,
            bank.stats.activates, bank.stats.precharges,
            bank.stats.reads, bank.stats.writes,
            bank.stats.row_hits, bank.stats.row_misses,
        )
        for bank in ctrl._banks
    ]
    ranks = [
        (
            list(rank._last_cas_group), list(rank._last_act_group),
            list(rank._last_write_data_end_group),
            rank._last_cas_rank, rank._last_act_rank,
            rank._last_read_issue, rank._last_write_data_end_rank,
            list(rank._act_window),
        )
        for rank in ctrl._ranks
    ]
    bus = (ctrl._bus.free_at, ctrl._bus.last_rank)
    refresh = (ctrl._refresh.until, ctrl._refresh.next_due)
    return reads, writes, banks, ranks, bus, refresh


class TestPackFlushRoundTrip:
    """pack() -> flush() is the identity on object state."""

    @settings(max_examples=25, deadline=None)
    @given(requests=streams(), stop=st.integers(min_value=0, max_value=4000))
    def test_round_trip_restores_state(self, requests, stop):
        ctrl = make_controller()
        for request in rebuild(spec_of(requests)):
            ctrl.enqueue(request)
        ctrl.run_until(stop)
        before = object_state(ctrl)
        engine = PackedEngine(ctrl)
        engine.pack()
        # The arrays are authoritative now: the object queues are empty.
        assert not ctrl._read_queue._global_fifo or before[0] == []
        engine.flush()
        assert object_state(ctrl) == before

    @settings(max_examples=15, deadline=None)
    @given(requests=streams(), stop=st.integers(min_value=0, max_value=4000))
    def test_round_trip_finishes_identically(self, requests, stop):
        spec = spec_of(requests)

        control = make_controller()
        for request in rebuild(spec):
            control.enqueue(request)
        control.run_until(stop)
        control.drain()
        control.finalize()

        candidate = make_controller()
        for request in rebuild(spec):
            candidate.enqueue(request)
        candidate.run_until(stop)
        engine = PackedEngine(candidate)
        engine.pack()
        engine.flush()
        candidate.drain()
        candidate.finalize()

        assert event_log_digest(candidate.log) == event_log_digest(
            control.log
        )


class TestEngineAgreement:
    """Both engines emit the same events and counters."""

    @settings(max_examples=25, deadline=None)
    @given(
        requests=streams(),
        scheduling=st.sampled_from([
            "fr-fcfs", "fcfs", "wrr", "wrr:2,1",
            "bank-reg:period=1000,budget=1",
        ]),
        page_policy=st.sampled_from(["open", "closed"]),
    )
    def test_three_engines_agree(self, requests, scheduling, page_policy):
        spec = spec_of(requests)
        digests = {}
        counters = {}
        for engine in ENGINES:
            ctrl = run_stream(
                make_controller(engine, scheduling, page_policy),
                rebuild(spec),
            )
            assert (ctrl._packed is not None) == (engine == "packed")
            digests[engine] = event_log_digest(ctrl.log)
            counters[engine] = (
                ctrl.stats.reads_enqueued, ctrl.stats.writes_enqueued,
                ctrl.stats.page_hit_rate, ctrl.now,
            )
        assert digests["packed"] == digests["reference"], (
            f"packed != reference for {scheduling}/{page_policy}"
        )
        assert counters["packed"] == counters["reference"]


class TestEagerRejection:
    """Unsupported-policy combos fail at config time, naming the policy."""

    def test_packed_rejects_seamless_scheduler(self):
        class OpaqueScheduler:
            """Registrable but exposes no ``reference_plan`` planner."""

            name = "test-opaque"

            def bind(self, controller):  # pragma: no cover - never bound
                pass

        name = "test-opaque"
        components.SCHEDULERS.register(name)(OpaqueScheduler)
        try:
            # Neither engine has a planner for it: the packed loop runs
            # only the built-in policies, and the object path plans
            # through `reference_plan`.
            for engine in ENGINES:
                with pytest.raises(ConfigurationError, match=name):
                    ControllerConfig(spec=DDR4_2400, engine=engine,
                                     scheduling=name)
        finally:
            del components.SCHEDULERS._factories[name]

    def test_engine_error_lists_sorted_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ControllerConfig(spec=DDR4_2400, engine="warp")
        assert "['packed', 'reference']" in str(excinfo.value)


def _two_requester_stream():
    rng = random.Random(7)
    return [
        Request(
            RequestType.WRITE if rng.random() < 0.2 else RequestType.READ,
            rng.randrange(1 << 14) * 64,
            arrival=i * 7,
            requester_id=i % 2,
        )
        for i in range(300)
    ]


class TestNoFallback:
    """Only custom registrations leave the packed loop."""

    @pytest.mark.parametrize("refresh", components.REFRESH.names())
    @pytest.mark.parametrize("page_policy", components.PAGE_POLICIES.names())
    @pytest.mark.parametrize(
        "scheduling",
        components.SCHEDULERS.names()
        + ("wrr:2,1", "bank-reg:period=1000,budget=4"),
    )
    def test_builtin_policies_run_packed(
        self, scheduling, page_policy, refresh
    ):
        ctrl = MemoryController(ControllerConfig(
            spec=DDR4_2400, scheduling=scheduling,
            page_policy=page_policy, refresh=refresh,
        ))
        assert packed_fallback_reason(ctrl) is None
        assert ctrl._packed is not None

    def test_custom_subclass_falls_back_to_reference(self, caplog):
        name = "test-custom-fr-fcfs"
        plans = []

        class CustomScheduler(FrFcfsScheduler):
            def reference_plan(self, queue, write_mode):
                plans.append(write_mode)
                return super().reference_plan(queue, write_mode)

        components.SCHEDULERS.register(name)(CustomScheduler)
        try:
            with caplog.at_level(logging.INFO, "repro.dram.controller"):
                ctrl = make_controller("packed", name)
            fallbacks = [
                record.getMessage() for record in caplog.records
                if "falling back" in record.getMessage()
            ]
            assert len(fallbacks) == 1
            assert name in fallbacks[0]
            assert ctrl._packed is None
            assert packed_fallback_reason(ctrl) is not None
            run_stream(ctrl, _two_requester_stream())
        finally:
            del components.SCHEDULERS._factories[name]
        assert plans, "the object path never planned"
        reference = run_stream(
            make_controller("reference"), _two_requester_stream()
        )
        assert event_log_digest(ctrl.log) == event_log_digest(
            reference.log
        )
        assert ctrl.stats == reference.stats

    def test_fast_engine_is_rejected(self):
        assert CONTROLLER_ENGINES == ("packed", "reference")
        with pytest.raises(ConfigurationError) as excinfo:
            ControllerConfig(spec=DDR4_2400, engine="fast")
        assert "['packed', 'reference']" in str(excinfo.value)
