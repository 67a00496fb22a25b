"""Geometry on the unit phase circle.

Phases live in [0, 1) and advance clockwise, meaning in the direction of
increasing value with wrap-around at 1. All helpers here are pure functions;
the event engine owns every mutation of oscillator state.
"""

from __future__ import annotations

import operator
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

    Args:
        phases: nonempty sequence of values in [0, 1).

    Returns:
        Arc(length, tail, head) with length = clockwise_dist(head, tail).
    """
    if len(phases) == 0:
        raise ValueError("containing_arc needs at least one phase")
    pts = sorted(phases)
    # Gap i runs clockwise from pts[i] to pts[i + 1]; the arc covering
    # everything else has tail = pts[i + 1] and head = pts[i]. The wrap gap
    # from the last point back to the first has the smallest tail, pts[0],
    # so it wins every tie; among the other gaps the first has the smallest.
    gaps = list(map(operator.sub, pts[1:], pts))
    wrap = 1.0 - pts[-1] + pts[0]
    widest = max(gaps, default=wrap)
    if wrap >= widest:
        return Arc(1.0 - wrap, pts[0], pts[-1])
    i = gaps.index(widest)
    return Arc(1.0 - widest, pts[i + 1], pts[i])
