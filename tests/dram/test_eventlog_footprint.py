"""A finished run's event log stays compact and its owners stay aligned.

Every timeline of the :class:`~repro.dram.components.accounting.EventLog`
is held as typed columns, and each requester owner is one small int in
a column index-aligned with its timeline. The retained size is measured
with tracemalloc: the run is traced, then every timeline and owner
column is emptied in place, and the bytes that frees are the log's.
A tuple per entry in a list costs ~80 bytes; the columns cost ~20.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_synthetic

TINY = ExperimentScale("tiny", synthetic_accesses=600)

#: Retained bytes allowed per timeline entry, owners included.
BYTES_PER_ENTRY = 24

OWNED = {
    "bursts": "burst_owners",
    "cas_windows": "cas_owners",
    "pre_windows": "pre_owners",
    "act_windows": "act_owners",
    "blocked": "blocked_owners",
}


def retained_bytes(log) -> int:
    """Bytes freed by emptying every field of `log` in place."""
    before = tracemalloc.get_traced_memory()[0]
    for spec in dataclasses.fields(log):
        value = getattr(log, spec.name)
        for column in getattr(value, "columns", (value,)):
            del column[:]
    return before - tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("engine", ["packed", "reference"])
def test_log_is_compact_and_owners_align(engine):
    tracemalloc.start()
    try:
        result = run_synthetic(
            "random", cores=4, requesters=2, scale=TINY, guard=False,
            engine=engine,
        )
        log = result.memory.log

        for name, owners in OWNED.items():
            assert len(getattr(log, owners)) == len(getattr(log, name)), name
        # Refresh-driven precharges end where their refresh starts and
        # have no requester; every other window names one.
        refresh_starts = {start for start, __ in log.refresh_windows}
        assert refresh_starts
        by_refresh = [
            end in refresh_starts for __, end, __ in log.pre_windows
        ]
        assert any(by_refresh)
        for refresh_driven, owner in zip(by_refresh, log.pre_owners):
            if refresh_driven:
                assert owner == -1
            else:
                assert owner in (0, 1)
        for name in ("burst_owners", "cas_owners", "act_owners"):
            assert set(getattr(log, name)) == {0, 1}, name

        entries = sum(
            len(getattr(log, spec.name))
            for spec in dataclasses.fields(log)
            if "_owner" not in spec.name
        )
        assert entries > 1000
        retained = retained_bytes(log)
    finally:
        tracemalloc.stop()
    assert retained <= BYTES_PER_ENTRY * entries, (
        f"{retained / entries:.1f} bytes per event-log entry"
    )
