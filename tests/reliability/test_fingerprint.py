"""The streamed event-log digest hashes exactly the bytes of the old
whole-string expression, ``repr(list).encode()`` per field."""

from __future__ import annotations

import hashlib

import pytest

from repro.dram.components.accounting import EventLog
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_synthetic
from repro.reliability import fingerprint
from repro.reliability.fingerprint import _LOG_FIELDS, event_log_digest

TINY = ExperimentScale("tiny", synthetic_accesses=800)


def whole_string_digest(log) -> str:
    """The digest as first written: one repr string per field."""
    h = hashlib.sha256()
    for name in _LOG_FIELDS:
        h.update(name.encode())
        h.update(repr(getattr(log, name)).encode())
    bank_refresh = getattr(log, "bank_refresh_windows", None)
    if bank_refresh:
        h.update(b"bank_refresh_windows")
        h.update(repr(bank_refresh).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def ddr4_log():
    return run_synthetic(
        "random", cores=2, store_fraction=0.2, scale=TINY, guard=False,
    ).memory.log


@pytest.fixture(scope="module")
def refsb_log():
    result = run_synthetic(
        "random", cores=2, store_fraction=0.2, scale=TINY, guard=False,
        device="ddr5-4800:subchannels=1",
    )
    assert result.memory.log.bank_refresh_windows
    return result.memory.log


@pytest.mark.parametrize("chunk", [fingerprint._REPR_CHUNK, 1, 7])
def test_real_run(ddr4_log, chunk, monkeypatch):
    assert len(ddr4_log.blocked) > 7
    monkeypatch.setattr(fingerprint, "_REPR_CHUNK", chunk)
    assert event_log_digest(ddr4_log) == whole_string_digest(ddr4_log)


def test_empty_log():
    log = EventLog()
    assert event_log_digest(log) == whole_string_digest(log)


@pytest.mark.parametrize("chunk", [fingerprint._REPR_CHUNK, 5])
def test_refsb_log(refsb_log, chunk, monkeypatch):
    monkeypatch.setattr(fingerprint, "_REPR_CHUNK", chunk)
    assert event_log_digest(refsb_log) == whole_string_digest(refsb_log)


def test_non_list_fields_hash_their_repr():
    log = EventLog(bursts=((0, 4, False, 0),), refresh_windows=[(9, 20)])
    assert event_log_digest(log) == whole_string_digest(log)
