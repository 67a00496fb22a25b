"""The shared W-MSR round, its trimmed-mean machinery, and the
absolute-frequency update rule."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pcosync import (
    AbsoluteProtocol,
    ConfiguredAlpha,
    EqualWeights,
    OscillatorState,
    ProtocolFault,
    RelativeProtocol,
    WorldState,
    complete_digraph,
    msr_trim,
)
from pcosync.engine import FIRE, _CandidateTimes, next_event
from pcosync.msr import effective_alpha, neighbor_weight

from oracles import make_weights


def test_trim_drops_extremes():
    assert msr_trim([1.0, 1.2, 1.5, 2.0], 1) == [1.2, 1.5]
    assert msr_trim([2.0, 1.0, 1.5, 1.2], 1) == [1.2, 1.5]
    assert msr_trim([3.0, 1.0, 2.0], 0) == [1.0, 2.0, 3.0]
    assert msr_trim([1.0, 1.0, 1.0], 1) == [1.0]
    # Exactly 2 * trim values leave nothing, which is legal.
    assert msr_trim([1.0, 2.0], 1) == []


def test_trim_guards():
    with pytest.raises(ProtocolFault):
        msr_trim([1.0, 2.0, 3.0], 2)
    with pytest.raises(ValueError):
        msr_trim([1.0], -1)


def test_equal_weights():
    assert make_weights(EqualWeights(), 3) == (0.25, 0.25, 0.25, 0.25)
    assert make_weights(EqualWeights(), 0) == (1.0,)
    assert neighbor_weight(EqualWeights(), 3) == 0.25


def test_configured_alpha_weights():
    w = make_weights(ConfiguredAlpha(0.2), 2)
    assert w == pytest.approx((0.6, 0.2, 0.2))
    assert sum(w) == pytest.approx(1.0)
    assert make_weights(ConfiguredAlpha(0.4), 0) == (1.0,)
    assert neighbor_weight(ConfiguredAlpha(0.2), 2) == 0.2
    with pytest.raises(ValueError):
        make_weights(ConfiguredAlpha(0.3), 3)  # 4 * 0.3 > 1
    with pytest.raises(ValueError):
        make_weights(ConfiguredAlpha(0.0), 1)
    for alpha in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            neighbor_weight(ConfiguredAlpha(alpha), 1)
    with pytest.raises(ValueError):
        make_weights(EqualWeights(), -1)


def test_weight_floor():
    assert effective_alpha(EqualWeights(), 5) == pytest.approx(1.0 / 6.0)
    assert effective_alpha(ConfiguredAlpha(0.3), 99) == 0.3


def test_params_reject_negative_fault_bound():
    with pytest.raises(ValueError, match="fault bound must be nonnegative, got -1"):
        AbsoluteProtocol(f=-1)


# -- absolute-frequency update rule, driven white box ------------------------


def k5_world(**state0):
    graph = complete_digraph(5)
    oscillators = [OscillatorState(phase=0.0, omega=1.0) for _ in range(5)]
    world = WorldState(
        graph=graph,
        oscillators=oscillators,
    )
    for key, value in state0.items():
        setattr(world.oscillators[0], key, value)
    return world


def test_update_worked_example():
    """Node 0 on a complete 5-node graph, trimming one value per side.

    Four pulses land at phases 0.9, 0.95, 0.2, 0.3 claiming 1.2, 0.8, 1.1,
    1.05. The second pulse (count f+1 = 2, phase in the upper half) adds
    0.05 to the jump; the third (count d-f = 3, lower half) adds -0.2. At
    the update: phase 0.5 + (0.05 - 0.2)/2 = 0.425,
    and the trimmed mean keeps {1.05, 1.1} so with equal weights
    omega = 1 + (0.05 + 0.1)/3 = 1.05.
    """
    world = k5_world(omega=1.0)
    proto = AbsoluteProtocol(f=1)
    osc = world.oscillators[0]

    osc.phase = 0.90
    proto.on_pulse(world, 0, 1.2)
    osc.phase = 0.95
    proto.on_pulse(world, 0, 0.8)
    assert osc.jump == pytest.approx(0.05)
    osc.phase = 0.20
    proto.on_pulse(world, 0, 1.1)
    assert osc.jump == pytest.approx(0.05 - 0.2)
    osc.phase = 0.30
    proto.on_pulse(world, 0, 1.05)

    osc.fired = True
    osc.phase = 0.5
    detected = proto.handle_update(world, 0)
    assert not detected
    assert osc.phase == pytest.approx(0.425)
    assert osc.omega == pytest.approx(1.05)
    # Round state is cleared for the next cycle.
    assert osc.pulse_count == 0
    assert osc.freq_buffer == []
    assert not osc.fired
    assert osc.jump == 0.0


def test_jump_landmarks_respect_half_circle_gating():
    # Landmark pulses on the wrong half circle contribute no jump.
    world = k5_world()
    proto = AbsoluteProtocol(f=1)
    osc = world.oscillators[0]
    osc.phase = 0.30
    proto.on_pulse(world, 0, 1.0)
    proto.on_pulse(world, 0, 1.0)  # count 2 = f+1, phase < 0.5
    assert osc.jump == 0.0
    osc.phase = 0.80
    proto.on_pulse(world, 0, 1.0)  # count 3 = d-f, phase >= 0.5
    assert osc.jump == 0.0


def test_homogeneous_values_leave_frequency_exactly_fixed():
    world = k5_world(omega=1.3)
    proto = AbsoluteProtocol(f=1)
    osc = world.oscillators[0]
    osc.phase = 0.6
    for _ in range(4):
        proto.on_pulse(world, 0, 1.3)
    osc.fired = True
    osc.phase = 0.5
    proto.handle_update(world, 0)
    assert osc.omega == 1.3


def test_configured_alpha_update():
    world = k5_world(omega=1.0)
    proto = AbsoluteProtocol(f=1, weight_policy=ConfiguredAlpha(0.2))
    osc = world.oscillators[0]
    osc.phase = 0.6
    for value in (1.2, 0.8, 1.1, 1.05):
        proto.on_pulse(world, 0, value)
    osc.fired = True
    osc.phase = 0.5
    proto.handle_update(world, 0)
    assert osc.omega == pytest.approx(1.0 + 0.2 * 0.05 + 0.2 * 0.1)


def test_an_update_past_the_frequency_limit_is_a_protocol_fault():
    assert AbsoluteProtocol(f=0).omega_limit == math.inf

    def update(limit):
        world = k5_world(omega=1.0)
        proto = AbsoluteProtocol(f=0)
        proto.omega_limit = limit
        osc = world.oscillators[0]
        osc.phase = 0.6
        for value in (1.0, 1.0, 3.0, 3.0):  # the mean with self's 1.0 is 1.8
            proto.on_pulse(world, 0, value)
        osc.fired = True
        osc.phase = 0.5
        return proto.handle_update(world, 0), osc.omega

    assert update(1.8) == (False, 1.8)
    with pytest.raises(ProtocolFault, match=r"^node 0 updated its frequency to 1\.8, past 1\.5, "):
        update(1.5)


def test_counter_overflow_detected_at_update():
    world = k5_world(omega=1.0)
    proto = AbsoluteProtocol(f=1)
    osc = world.oscillators[0]
    osc.phase = 0.6
    for _ in range(5):  # in-degree is 4
        proto.on_pulse(world, 0, 1.0)
    osc.fired = True
    osc.phase = 0.5
    assert proto.handle_update(world, 0) is True
    assert osc.detected
    assert osc.phase == 0.5  # no jump on a detection round
    assert osc.omega == 1.0
    assert osc.pulse_count == 0


def test_eager_detection_latches_on_the_overflowing_pulse():
    world = k5_world(omega=1.0)
    proto = AbsoluteProtocol(f=1, eager_detection=True)
    osc = world.oscillators[0]
    osc.phase = 0.6
    for _ in range(4):
        assert proto.on_pulse(world, 0, 1.0) is False
    assert proto.on_pulse(world, 0, 1.0) is True
    assert osc.detected


def test_underheard_round_is_a_protocol_fault():
    world = k5_world(omega=1.0)
    proto = AbsoluteProtocol(f=1)
    osc = world.oscillators[0]
    osc.phase = 0.6
    proto.on_pulse(world, 0, 1.0)
    proto.on_pulse(world, 0, 1.0)
    osc.fired = True
    osc.phase = 0.5
    with pytest.raises(ProtocolFault):
        proto.handle_update(world, 0)  # heard 2 < d - f = 3


def test_absolute_protocol_has_no_start_pulses():
    # The event loop schedules no start pulse for it, so it has no handler.
    proto = AbsoluteProtocol(f=0)
    assert proto.start_target is None
    assert not hasattr(proto, "handle_start")
    world = k5_world()
    world.oscillators[0].phase = 0.85  # a relative node's start pulse is due at 0.9
    assert next_event(world, (), _CandidateTimes(5, proto))[1] is FIRE


# -- properties of the shared core -------------------------------------------


@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=12),
    trim=st.integers(0, 7),
)
def test_trim_keeps_the_sorted_middle(values, trim):
    if len(values) < 2 * trim:
        with pytest.raises(ProtocolFault):
            msr_trim(values, trim)
        return
    kept = msr_trim(values, trim)
    assert len(kept) == len(values) - 2 * trim
    assert all(a <= b for a, b in zip(kept, kept[1:]))
    assert kept == sorted(values)[trim : len(values) - trim]


@given(
    j_count=st.integers(0, 60),
    spare=st.integers(0, 5),
    alpha=st.floats(1e-6, 1.0),
)
def test_weights_are_floored_and_sum_to_one(j_count, spare, alpha):
    # Floors are taken at a maximum in-degree of at least j_count, as in a run.
    for policy in (EqualWeights(), ConfiguredAlpha(alpha)):
        if isinstance(policy, ConfiguredAlpha) and alpha * (j_count + 1) > 1.0 + 1e-12:
            with pytest.raises(ValueError):
                make_weights(policy, j_count)
            continue
        weights = make_weights(policy, j_count)
        floor = effective_alpha(policy, j_count + spare)
        assert len(weights) == j_count + 1
        assert all(w > 0.0 for w in weights)
        assert all(w >= floor - 1e-12 for w in weights)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


class _JumpWrites(OscillatorState):
    """Counts assignments to ``jump`` after construction."""

    def __setattr__(self, name, value):
        if name == "jump" and "writes" in self.__dict__:
            self.writes += 1
        super().__setattr__(name, value)


@settings(deadline=None)
@given(
    variant=st.sampled_from(["absolute", "relative"]),
    n=st.integers(2, 8),
    f=st.integers(0, 3),
    phases=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=10),
)
def test_each_landmark_is_written_at_most_once_per_round(variant, n, f, phases):
    world = WorldState(
        graph=complete_digraph(n),
        oscillators=[_JumpWrites(phase=0.0, omega=1.0) for _ in range(n)],
    )
    osc = world.oscillators[0]
    osc.writes = 0
    d = n - 1
    if variant == "absolute":
        proto = AbsoluteProtocol(f)
    else:
        proto = RelativeProtocol(f)
        world.add_pair_slots()
    expected = {}
    for count, phi in enumerate(phases, start=1):
        osc.phase = phi
        if variant == "absolute":
            proto.on_pulse(world, 0, 1.0)
        else:
            proto.on_end_pulse(world, 0, sender=1 + count % d)
        if count == f + 1:
            expected["up"] = 1.0 - phi if phi >= 0.5 else 0.0
        if count == d - f:
            expected["down"] = -phi if phi < 0.5 else 0.0
    # Each landmark adds at most once, and the jump is the two corrections'
    # sum, bit for bit, as when each was kept in a field of its own.
    assert osc.writes <= len(expected)
    assert repr(osc.jump) == repr(expected.get("up", 0.0) + expected.get("down", 0.0))
