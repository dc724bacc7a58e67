"""A request lives from enqueue to delivery, and no longer.

At completion the controller copies a request's accounted fields into
the typed columns of a
:class:`~repro.dram.components.accounting.CompletedRequests` record,
and the packed engine drops a served entry's ``Request``. Once the CPU
model has delivered a read, the only ``Request`` references left are
the cores' recent-load windows (``IntervalCore._recent_loads``, 64
loads per core). The record's footprint is measured with tracemalloc:
the run is traced, the record is replaced by an empty one, and the
bytes that frees are the record's. A request object cost ~490 bytes;
the columns cost 77.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import ControllerConfig, MemoryController, Request, RequestType
from repro.dram.components.accounting import REQUEST_FIELDS, CompletedRequests
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_synthetic

TINY = ExperimentScale("tiny", synthetic_accesses=600)
# Traced runs stay short: tracemalloc slows the packed engine's loop
# ~40x (the reference engine ~5x).
TRACED = ExperimentScale("traced", synthetic_accesses=150)
CORES = 4
#: Loads each core's recent-load window keeps (and with them, their
#: requests).
RECENT_LOADS = 64
#: Retained bytes allowed per completed request.
BYTES_PER_REQUEST = 96

ENGINES = ["packed", "reference"]

#: What a row of the record shares with the request it was built from.
ROW_FIELDS = (
    *(name for name, __ in REQUEST_FIELDS),
    "is_read", "is_write", "is_prefetch", "forwarded", "req_type",
)


def fields_of(request) -> tuple:
    return tuple(getattr(request, name) for name in ROW_FIELDS)


def random_run(engine: str, scale=TINY, guard=None):
    return run_synthetic(
        "random", cores=CORES, scale=scale, guard=guard, engine=engine,
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_no_request_outlives_delivery(engine):
    result = random_run(engine)
    completed = len(result.memory.completed_requests)
    gc.collect()
    alive = sum(isinstance(o, Request) for o in gc.get_objects())
    assert completed > CORES * RECENT_LOADS
    assert alive <= CORES * RECENT_LOADS, (
        f"{alive} Request objects alive after the run"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_completed_requests_are_compact(engine):
    tracemalloc.start()
    try:
        result = random_run(engine, TRACED, guard=False)
        controller = result.memory
        count = len(controller.completed_requests)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        controller.completed_requests = type(controller.completed_requests)()
        gc.collect()
        retained = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count > 500
    assert retained <= BYTES_PER_REQUEST * count, (
        f"{retained / count:.1f} bytes per completed request"
    )


def test_packed_engine_drops_served_entries():
    mc = MemoryController(ControllerConfig(engine="packed"))
    for i in range(300):
        kind = RequestType.WRITE if i % 5 == 0 else RequestType.READ
        mc.enqueue(Request(kind, (i * 7919 % 4096) * 64, arrival=i * 4))
    mc.run_until(600)
    packed = mc._packed
    assert packed.active
    served = [bool(flag) for flag in packed.e_srv]
    assert any(served) and not all(served)
    for is_served, request in zip(served, packed.e_req):
        assert (request is None) == is_served


cycles = st.integers(min_value=-1, max_value=1 << 40)


@st.composite
def requests(draw):
    request = Request(
        draw(st.sampled_from(RequestType)),
        draw(st.integers(min_value=0, max_value=1 << 45)),
        arrival=draw(st.integers(min_value=0, max_value=1 << 40)),
        core_id=draw(st.integers(min_value=0, max_value=255)),
        requester_id=draw(st.integers(min_value=-1, max_value=7)),
        is_prefetch=draw(st.booleans()),
        req_id=draw(st.integers(min_value=0, max_value=1 << 62)),
    )
    for name in (
        "cas_issue", "finish", "own_pre_start", "own_pre_end",
        "own_act_start", "own_act_end",
    ):
        setattr(request, name, draw(cycles))
    request.forwarded = draw(st.booleans())
    return request


@settings(max_examples=60, deadline=None)
@given(st.lists(requests(), max_size=40))
def test_record_round_trips_requests(built_from):
    record = CompletedRequests(built_from)
    expected = [fields_of(request) for request in built_from]
    assert len(record) == len(expected)
    assert [fields_of(row) for row in record] == expected
    assert [fields_of(record[i]) for i in range(len(record))] == expected
    if expected:
        assert fields_of(record[-1]) == expected[-1]
    clone = pickle.loads(pickle.dumps(record))
    assert [fields_of(row) for row in clone] == expected
    # Rows carry every field, so a list of rows rebuilds the record.
    assert [fields_of(row) for row in CompletedRequests(record)] == expected
