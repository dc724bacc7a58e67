"""Small utilities on sorted, disjoint, half-open integer intervals.

These are the workhorses of the latency attribution: a read's waiting time
is partitioned hierarchically by intersecting/subtracting the refresh,
write-drain and own-precharge/activate windows.
"""

from __future__ import annotations

from bisect import bisect_left

Interval = tuple[int, int]


def total_length(intervals: list[Interval]) -> int:
    """Sum of interval lengths."""
    return sum(e - s for s, e in intervals)


def clip(intervals, lo: int, hi: int) -> list[Interval]:
    """Intervals intersected with [lo, hi).

    `intervals` must be sorted and disjoint: a list of pairs, or a
    two-column event-log timeline (searched on its start and end
    columns). Binary search makes this O(log n + k) in the number of
    overlapping intervals k.
    """
    if lo >= hi:
        return []
    if type(intervals) is not list:
        return _clip_columns(intervals.starts, intervals.ends, lo, hi)
    if not intervals:
        return []
    # First interval whose end might exceed lo.
    i = bisect_left(intervals, (lo, lo)) if intervals else 0
    if i > 0 and intervals[i - 1][1] > lo:
        i -= 1
    result = []
    while i < len(intervals) and intervals[i][0] < hi:
        s, e = intervals[i]
        s, e = max(s, lo), min(e, hi)
        if s < e:
            result.append((s, e))
        i += 1
    return result


def _clip_columns(starts, ends, lo: int, hi: int) -> list[Interval]:
    """:func:`clip` of the intervals ``zip(starts, ends)``."""
    # Sorted disjoint intervals order by start, so the first one at or
    # after (lo, lo) is the first starting at or after lo.
    i = bisect_left(starts, lo)
    if i > 0 and ends[i - 1] > lo:
        i -= 1
    result = []
    for i in range(i, len(starts)):
        s = starts[i]
        if s >= hi:
            break
        e = ends[i]
        if s < lo:
            s = lo
        if e > hi:
            e = hi
        if s < e:
            result.append((s, e))
    return result


def intersect(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Intersection of two sorted disjoint interval lists."""
    result = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s < e:
            result.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return result


def subtract(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Parts of `a` not covered by `b` (both sorted and disjoint)."""
    result = []
    j = 0
    for s, e in a:
        cursor = s
        while j < len(b) and b[j][1] <= cursor:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            bs, be = b[k]
            if bs > cursor:
                result.append((cursor, bs))
            cursor = max(cursor, be)
            if be >= e:
                break
            k += 1
        if cursor < e:
            result.append((cursor, e))
    return result


def union(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Union of two sorted disjoint interval lists (merged)."""
    merged: list[Interval] = []
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i][0] <= b[j][0]):
            nxt = a[i]
            i += 1
        else:
            nxt = b[j]
            j += 1
        if merged and nxt[0] <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], nxt[1]))
        else:
            merged.append(nxt)
    return merged
