"""Unit-circle geometry: directed distance and containing arcs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcosync import Arc, clockwise_dist, containing_arc
from pcosync.engine import PHASE_SLACK

from oracles import brute_force_arc, gap_loop_arc, max_gap_arc

# Multiples of 1/64 keep every gap, length and circle distance exact, so
# duplicate points and exact gap ties decide the tie-breaks on their own.
DYADIC = st.integers(0, 63).map(lambda k: k / 64)


def test_clockwise_dist_hand_values():
    assert clockwise_dist(0.3, 0.1) == pytest.approx(0.2)
    assert clockwise_dist(0.1, 0.3) == pytest.approx(0.8)
    assert clockwise_dist(0.0, 0.9) == pytest.approx(0.1)
    assert clockwise_dist(0.25, 0.25) == 0.0


def test_clockwise_dist_identities():
    rng = np.random.default_rng(4821)
    for _ in range(1000):
        a, b = rng.uniform(0.0, 1.0, size=2)
        assert clockwise_dist(a, a) == 0.0
        d_ab = clockwise_dist(a, b)
        d_ba = clockwise_dist(b, a)
        assert 0.0 <= d_ab < 1.0
        assert 0.0 <= d_ba < 1.0
        if a != b:
            assert d_ab + d_ba == pytest.approx(1.0, abs=1e-12)


def test_containing_arc_hand_values():
    arc = containing_arc([0.1, 0.5])
    assert arc.length == pytest.approx(0.4, abs=1e-12)
    assert (arc.tail, arc.head) == (0.1, 0.5)

    # Wrapping pair: the short way around crosses phase 0.
    arc = containing_arc([0.9, 0.1])
    assert arc.length == pytest.approx(0.2, abs=1e-12)
    assert (arc.tail, arc.head) == (0.9, 0.1)

    arc = containing_arc([0.95, 0.0, 0.1])
    assert arc.length == pytest.approx(0.15, abs=1e-12)
    assert (arc.tail, arc.head) == (0.95, 0.1)


def test_containing_arc_degenerate_sets():
    assert containing_arc([0.3]) == Arc(0.0, 0.3, 0.3)
    assert containing_arc([0.2, 0.2, 0.2]) == Arc(0.0, 0.2, 0.2)
    with pytest.raises(ValueError):
        containing_arc([])


def test_containing_arc_antipodal_tie_breaks_to_smaller_tail():
    arc = containing_arc([0.0, 0.5])
    assert arc.length == pytest.approx(0.5, abs=1e-12)
    assert arc.tail == 0.0
    assert arc.head == 0.5


def test_containing_arc_matches_rotation_oracle():
    rng = np.random.default_rng(90125)
    for trial in range(300):
        size = int(rng.integers(1, 13))
        if trial % 3 == 0:
            # Dyadic draws produce duplicate points and exact gap ties, so the
            # tie-break comparison is exercised without rounding ambiguity.
            phases = list(rng.integers(0, 32, size=size) / 32.0)
        else:
            phases = list(rng.uniform(0.0, 1.0, size=size))
        length, tail, head = brute_force_arc(phases)
        arc = containing_arc(phases)
        assert arc.length == pytest.approx(length, abs=1e-12)
        assert arc.tail == tail
        assert arc.head == head
        for p in phases:
            assert clockwise_dist(p, arc.tail) <= arc.length + 1e-12


@settings(max_examples=150, deadline=None)
@given(phases=st.lists(
    st.one_of(DYADIC, st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([1.0, 1.0 + 1e-10])),
    min_size=1,
    max_size=12,
))
def test_containing_arc_matches_the_gap_loop(phases):
    # Exact equality, including the phases just past 1 that a node reaching
    # its threshold shows before it fires.
    assert repr(containing_arc(phases)) == repr(gap_loop_arc(phases))


@settings(max_examples=100, deadline=None)
@given(phases=st.lists(DYADIC, min_size=1, max_size=12))
def test_containing_arc_matches_the_rotation_oracle_on_dyadic_phases(phases):
    length, tail, head = brute_force_arc(phases)
    assert containing_arc(phases) == (length, tail, head)


UNIT = st.floats(0.0, 1.0, exclude_max=True)
# A phase at 0 and the phases a node shows on reaching its threshold.
EDGES = st.sampled_from([0.0, 1.0, 1.0 + PHASE_SLACK])
# Offsets of the widest gap from a half turn, down to the last bits of 0.5.
NEAR_HALF = st.one_of(
    st.sampled_from([-(2.0**-40), -(2.0**-41), -(2.0**-53), 0.0, 2.0**-53, 2.0**-41, 2.0**-40]),
    st.floats(-(2.0**-40), 2.0**-40),
)


@st.composite
def _half_gap_clusters(draw):
    """Phases on an arc whose complement, the widest gap, is within 2^-40 of
    a half turn: left in place the widest gap is the wrap gap; taken modulo 1
    the cluster straddles 0 and the widest gap is the one across 0.5. A
    whole offset moves the cluster off [0, 1), where subtraction rounds."""
    gap = 0.5 + draw(NEAR_HALF, label="gap offset")
    tail = draw(UNIT, label="tail")
    span = 1.0 - gap
    inner = draw(st.lists(UNIT, max_size=66), label="inner")
    pts = [tail, tail + span] + [tail + span * u for u in inner]
    if draw(st.booleans(), label="modulo 1"):
        pts = [p % 1.0 for p in pts]
    offset = draw(st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0**30, -(10.0**9)]), label="offset")
    pts = [p + offset for p in pts] + draw(st.lists(EDGES, max_size=2), label="edges")
    return draw(st.permutations(pts), label="order")


@st.composite
def _straddling_clusters(draw):
    """Phases within ``width`` of phase 0 on either side, plus 0, 1 and 1 +
    PHASE_SLACK, repeated at random."""
    width = draw(st.floats(0.0, 0.5), label="width")
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=66), label="offsets")
    pts = [(width * u) % 1.0 for u in offsets] + draw(st.lists(EDGES, max_size=3), label="edges")
    pts += draw(st.lists(st.sampled_from(pts), max_size=4), label="duplicates")
    return draw(st.permutations(pts), label="order")


# Validation takes the arc of unchecked initial phases, so any finite value.
ANY_PHASE = st.one_of(
    DYADIC, UNIT, EDGES, st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=400, deadline=None)
@given(phases=st.one_of(
    st.lists(ANY_PHASE, min_size=1, max_size=70),
    _half_gap_clusters(),
    _straddling_clusters(),
))
def test_containing_arc_matches_the_full_gap_scan(phases):
    assert repr(containing_arc(phases)) == repr(max_gap_arc(phases))


def test_containing_arc_shortcuts_match_the_full_gap_scan_by_hand():
    cases = (
        [0.0, 0.3, 0.9, 1.6],  # a wider gap lies past the gap across 0.5
        [0.0, 0.25, 0.5, 0.75],  # four tied gaps
        [0.0, 0.5],  # wrap and inner gap tie at a half turn
        [0.1, 0.2, 0.95],  # a cluster straddling 0
        [0.0, 1.0, 1.0 + PHASE_SLACK],
        [-(2.0**30) + 0.6, -(2.0**30) + 0.1],  # rounding off [0, 1)
        # The wrap gap rounds to 0.5 and the inner one to 0.5000000000000001,
        # so a wrap gap tested against 0.5 instead of the span loses here.
        [-0.7985975838632684, -0.2985975838632683],
    )
    for phases in cases:
        assert repr(containing_arc(phases)) == repr(max_gap_arc(phases)), phases


@settings(max_examples=200, deadline=None)
@given(phases=st.lists(
    st.one_of(ANY_PHASE, st.sampled_from([math.nan, math.inf, -math.inf])),
    min_size=1,
    max_size=20,
))
def test_containing_arc_matches_the_full_gap_scan_on_non_finite_phases(phases):
    # A NaN sorts anywhere, so a list holding one is always scanned in full,
    # down to the ValueError the scan raises when the widest gap is NaN.
    assert _outcome(containing_arc, phases) == _outcome(max_gap_arc, phases)


def _outcome(arc, phases):
    try:
        return repr(arc(phases))
    except ValueError as exc:
        return repr(exc)
