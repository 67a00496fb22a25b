"""Unit-circle geometry: directed distance and containing arcs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcosync import Arc, clockwise_dist, containing_arc

from oracles import brute_force_arc, gap_loop_arc

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
