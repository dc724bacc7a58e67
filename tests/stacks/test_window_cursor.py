"""Property tests: the accountants' window cursor against a per-cycle oracle.

The cursor indexes an event-log timeline in place when its windows are
ordered by (start, end), and walks a sorted index order otherwise. Both
paths must answer every query exactly as a brute-force scan of the
windows at each cycle does.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.dram.components.accounting import BANK, BLOCKED, PAIR, Timeline
from repro.dram.rank import BlockScope
from repro.stacks.bandwidth import _WindowCursor

HORIZON = 120
SCOPES = list(BlockScope)


def covering(windows, t):
    """Oracle: the index of the window covering cycle t with the
    smallest (start, end), the last-listed one among equal (start,
    end)."""
    best = None
    for i, window in enumerate(windows):
        if window[0] <= t < window[1] and (
            best is None or window[:2] <= windows[best][:2]
        ):
            best = i
    return best


def edges(windows, lo, hi):
    """Oracle: cycles strictly inside (lo, hi) where a window starts or
    ends."""
    return {
        c for c in range(lo + 1, hi)
        if any(window[0] == c or window[1] == c for window in windows)
    }


@st.composite
def blocked_windows(draw):
    """Disjoint, start-ordered 5-tuples shaped like ``log.blocked``."""
    windows, t = [], 0
    for __ in range(draw(st.integers(0, 12))):
        start = t + draw(st.integers(0, 6))
        end = start + draw(st.integers(1, 10))
        windows.append((
            start, end, draw(st.sampled_from(SCOPES)),
            draw(st.integers(-1, 3)), draw(st.sampled_from(["tRCD", "tFAW"])),
        ))
        t = end
    return windows


@st.composite
def overlapping_windows(draw):
    """Overlapping 2-tuples sorted by (start, end), like refresh logs."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, HORIZON), st.integers(1, 30)), max_size=12,
    ))
    return sorted((start, start + length) for start, length in pairs)


@st.composite
def unsorted_windows(draw):
    """Overlapping windows in any order, with equal (start, end) pairs
    carrying different payloads."""
    pairs = draw(st.lists(
        st.tuples(st.integers(0, HORIZON), st.integers(1, 30)), max_size=12,
    ))
    windows = [(s, s + length, i) for i, (s, length) in enumerate(pairs)]
    windows += [(s, e, -i - 1) for s, e, i in windows[:3]]
    random.Random(draw(st.integers(0, 2**16))).shuffle(windows)
    return windows


@st.composite
def queries(draw):
    """Operations at non-decreasing times, as the accountants issue
    them: ``edges_in`` at a gap start, then cycle queries inside it."""
    ops, t = [], 0
    for __ in range(draw(st.integers(1, 25))):
        t += draw(st.integers(0, 15))
        kind = draw(st.sampled_from(["cover", "edges", "index"]))
        if kind == "edges":
            ops.append((kind, t, t + draw(st.integers(0, 40))))
        else:
            ops.append((kind, t))
    return ops


def check(layout, windows, ops):
    cursor = _WindowCursor(Timeline(layout, windows))
    for op in ops:
        kind, t = op[0], op[1]
        if kind == "cover":
            assert cursor.cover(t) == (covering(windows, t) is not None)
        elif kind == "edges":
            assert set(cursor.edges_in(t, op[2])) == edges(windows, t, op[2])
        else:
            assert cursor.covering_index(t) == covering(windows, t)


@settings(max_examples=150, deadline=None)
@given(blocked_windows(), queries())
def test_disjoint_start_ordered(windows, ops):
    check(BLOCKED, windows, ops)


@settings(max_examples=150, deadline=None)
@given(overlapping_windows(), queries())
def test_overlapping(windows, ops):
    check(PAIR, windows, ops)


@settings(max_examples=150, deadline=None)
@given(unsorted_windows(), queries())
def test_unsorted(windows, ops):
    check(BANK, windows, ops)


def test_ordered_log_is_indexed_in_place():
    windows = [(0, 4), (2, 9), (2, 10), (12, 13)]
    in_order = _WindowCursor(Timeline(PAIR, windows))
    assert isinstance(in_order._order, range)
    reversed_ = _WindowCursor(Timeline(PAIR, windows[::-1]))
    assert not isinstance(reversed_._order, range)
