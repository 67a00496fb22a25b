"""Geometry on the unit phase circle.

Phases live in [0, 1) and advance clockwise, meaning in the direction of
increasing value with wrap-around at 1. All helpers here are pure functions;
the event engine owns every mutation of oscillator state.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import NamedTuple, Sequence


def clockwise_dist(a: float, b: float) -> float:
    """Clockwise distance from ``b`` forward to ``a`` on the unit circle.

    Equals ``a - b`` when ``a >= b`` and ``1 - b + a`` otherwise, so the
    result is always in [0, 1). ``clockwise_dist(x, x) == 0`` and for
    distinct points the two directed distances sum to exactly 1.
    """
    if a >= b:
        return a - b
    return 1.0 - b + a


class Arc(NamedTuple):
    """A closed arc of the circle, running clockwise from tail to head."""

    length: float
    tail: float
    head: float


def containing_arc(phases: Sequence[float]) -> Arc:
    """Shortest arc that contains every given phase.

    The arc is the complement of the largest gap between circularly
    consecutive phases; ties in the largest gap are broken toward the
    smallest tail phase. A single phase (or several equal ones) yields a
    zero-length arc with tail == head.

    After the sort, two gaps are tried before any list of gaps is built:
    the wrap gap from the last phase back to the first, which wins when it
    is at least the span from the first phase to the last, and the gap
    across phase 0.5, which wins when it is wider than the wrap gap and than
    the spans on either side of it. No gap inside a span can be wider than
    the span, even after rounding, so either shortcut returns exactly the
    arc of a full scan; the first covers a cluster, the second a cluster
    straddling phase 0. Otherwise, and whenever a phase is NaN (which
    sorts anywhere), every gap is scanned.

    Args:
        phases: nonempty sequence of values in [0, 1) during a run; the
            initial phases reach here unchecked, and for any floats the
            result is the full scan's.

    Returns:
        Arc(length, tail, head) with length = clockwise_dist(head, tail).
    """
    if len(phases) == 0:
        raise ValueError("containing_arc needs at least one phase")
    pts = sorted(phases)
    first = pts[0]
    last = pts[-1]
    wrap = 1.0 - last + first
    total = sum(pts)
    if total == total:  # no NaN
        if wrap >= last - first:
            return Arc(1.0 - wrap, first, last)
        k = bisect_left(pts, 0.5)
        if 0 < k < len(pts):
            lo = pts[k - 1]
            hi = pts[k]
            split = hi - lo
            if split > wrap and split > lo - first and split > last - hi:
                return Arc(1.0 - split, hi, lo)
    # Gap i runs clockwise from pts[i] to pts[i + 1]; the arc covering
    # everything else has tail = pts[i + 1] and head = pts[i]. The wrap gap
    # from the last point back to the first has the smallest tail, pts[0],
    # so it wins every tie; among the other gaps the first has the smallest.
    gaps = list(map(operator.sub, pts[1:], pts))
    widest = max(gaps, default=wrap)
    if wrap >= widest:
        return Arc(1.0 - wrap, first, last)
    i = gaps.index(widest)
    return Arc(1.0 - widest, pts[i + 1], pts[i])
