"""Property tests: a columnar timeline reads exactly as its tuple list.

:class:`~repro.dram.components.accounting.Timeline` stores each event-log
timeline as typed columns and rebuilds the entry tuples on demand. For
random entries of every layout — True/False bursts, 3-field offline
bursts, negative precharge-all banks, every ``BlockScope``, built-in
and custom reason strings — the event-log digest must hash the same
bytes as the same entries held as lists of tuples, and iteration,
indexing and the blocked-window merge must round-trip.
"""

from __future__ import annotations

import hashlib
import pickle

from hypothesis import given, settings, strategies as st

from repro.dram.components.accounting import (
    BLOCKED,
    OWNERS,
    REASONS,
    EventLog,
    Timeline,
)
from repro.dram.rank import BlockScope
from repro.reliability.fingerprint import _LOG_FIELDS, event_log_digest

cycles = st.integers(0, 1 << 40)
small = st.integers(-64, 64)


def windows(*payload):
    return st.lists(st.tuples(cycles, cycles, *payload), max_size=30)


blocked_entries = windows(
    st.sampled_from(list(BlockScope)), small,
    st.sampled_from(REASONS + ("tRAS", "custom reason")),
)

logs = st.fixed_dictionaries({
    "bursts": st.one_of(
        windows(st.booleans(), small), windows(st.booleans()),
    ),
    "pre_windows": windows(small),
    "act_windows": windows(small),
    "cas_windows": windows(small),
    "refresh_windows": windows(),
    "bank_refresh_windows": windows(small),
    "blocked": blocked_entries,
    "drain_windows": windows(),
})


def tuple_list_digest(fields: dict) -> str:
    """The digest of the same entries held as lists of tuples."""
    h = hashlib.sha256()
    for name in _LOG_FIELDS:
        h.update(name.encode())
        h.update(repr(fields[name]).encode())
    if fields["bank_refresh_windows"]:
        h.update(b"bank_refresh_windows")
        h.update(repr(fields["bank_refresh_windows"]).encode())
    return h.hexdigest()


@settings(max_examples=150, deadline=None)
@given(logs)
def test_digest_matches_tuple_lists(fields):
    log = EventLog(**fields)
    assert event_log_digest(log) == tuple_list_digest(fields)


@settings(max_examples=150, deadline=None)
@given(logs)
def test_entries_round_trip(fields):
    log = EventLog(**fields)
    for name, entries in fields.items():
        timeline = getattr(log, name)
        assert isinstance(timeline, Timeline)
        assert len(timeline) == len(entries)
        assert list(timeline) == entries
        assert timeline == entries
        assert repr(timeline) == repr(entries)
        for i, entry in enumerate(entries):
            assert timeline[i] == entry
            assert timeline[i - len(entries)] == entry
        if entries:
            assert timeline[-1] == entries[-1]
        assert pickle.loads(pickle.dumps(timeline)) == entries
    # A hand-built log names no requesters: every owner is the shared
    # row, one per entry.
    for name, (owned, shared) in OWNERS.items():
        assert list(getattr(log, name)) == [shared] * len(fields[owned])


@settings(max_examples=150, deadline=None)
@given(blocked_entries, st.lists(cycles, min_size=1, max_size=4))
def test_blocked_merge_keeps_the_tail(entries, new_ends):
    timeline = Timeline(BLOCKED, entries)
    expected = list(entries)
    for end in new_ends:
        if not expected:
            break
        # Merge-on-append: the writers extend the last window by
        # rewriting its end column entry.
        timeline.ends[-1] = end
        expected[-1] = expected[-1][:1] + (end,) + expected[-1][2:]
        assert timeline[-1] == expected[-1]
    assert list(timeline) == expected


def test_bool_fields_read_back_as_bools():
    timeline = EventLog(bursts=[(0, 4, True, 1), (4, 8, False, 0)]).bursts
    assert [entry[2] for entry in timeline] == [True, False]
    assert all(type(entry[2]) is bool for entry in timeline)
    assert repr(timeline) == "[(0, 4, True, 1), (4, 8, False, 0)]"
