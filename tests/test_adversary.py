"""Attack scripts: claim waveforms, schedules, and the stealth predicate."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pcosync import (
    AttackerSpec,
    OscillatorState,
    ScenarioConfig,
    WorldState,
    DirectedGraph,
    complete_digraph,
    custom_script,
    demo_graph_8,
    flooding_script,
    is_stealthy,
    one_plus_abs_sin,
    parse_claim,
    run_scenario,
    sawtooth,
    silent_script,
    stealthy_script,
)
from pcosync.adversary import constant
from pcosync.engine import TIME_EPS

from oracles import materialized_schedule, streams


def test_claim_waveforms():
    assert one_plus_abs_sin(0.0) == 1.0
    assert one_plus_abs_sin(math.pi / 2) == pytest.approx(2.0)
    assert one_plus_abs_sin(-math.pi / 2) == pytest.approx(2.0)
    assert sawtooth(0.0) == 1.0
    assert sawtooth(0.25) == 1.25
    assert sawtooth(1.75) == pytest.approx(1.75)
    assert sawtooth(3.0) == 1.0
    assert constant(1.4)(123.0) == 1.4


def test_parse_claim_forms():
    assert parse_claim("one_plus_abs_sin") is one_plus_abs_sin
    assert parse_claim("sawtooth") is sawtooth
    assert parse_claim("constant:1.5")(0.0) == 1.5
    assert parse_claim(1.25)(9.0) == 1.25
    assert parse_claim(2)(0.0) == 2.0
    with pytest.raises(ValueError):
        parse_claim("wobble")


@pytest.mark.parametrize("claim", [math.nan, math.inf, -math.inf, "constant:nan", "constant:-inf"])
def test_non_finite_claims_are_refused(claim):
    with pytest.raises(ValueError, match="frequency claim must be finite"):
        parse_claim(claim)
    if not isinstance(claim, str):
        with pytest.raises(ValueError, match="frequency claim must be finite"):
            custom_script(2, pulses=[(1.0, 1.1), (2.0, claim)])


def world_on(graph, faulty=()):
    n = graph.node_count
    return WorldState(
        graph=graph,
        oscillators=[OscillatorState(0.0, 1.0) for _ in range(n)],
        faulty=frozenset(faulty),
    )


def test_stealthy_script_schedule_and_predicate():
    script = stealthy_script(1, period_offsets=[0.35], claim="one_plus_abs_sin")
    assert streams(script.emission_times, 3.0) == (0.35, 1.35, 2.35)
    assert streams(script.emission_times, 0.3) == ()
    assert streams(script.start_emission_times, 3.0) == ()
    world = world_on(demo_graph_8(), faulty=(1,))
    assert is_stealthy(script, world, horizon=100.0)


def test_two_offsets_per_period_are_not_stealthy():
    script = stealthy_script(1, period_offsets=[0.2, 0.7], claim=1.0)
    world = world_on(demo_graph_8(), faulty=(1,))
    assert not is_stealthy(script, world, horizon=10.0)
    # A slower period restores the required spacing.
    slow = stealthy_script(1, period_offsets=[0.5], claim=1.0, period=2.0)
    assert is_stealthy(slow, world, horizon=10.0)


def test_offsets_outside_the_period_are_rejected():
    with pytest.raises(ValueError):
        stealthy_script(1, period_offsets=[1.2], claim=1.0)


def test_flooding_script_burst():
    script = flooding_script(1, burst_count=7, burst_interval=0.02, start_time=1.2)
    times = streams(script.emission_times, 60.0)
    assert len(times) == 7
    assert times[0] == pytest.approx(1.2)
    assert times[-1] == pytest.approx(1.32)
    world = world_on(demo_graph_8(), faulty=(1,))
    assert not is_stealthy(script, world, horizon=60.0)
    # A burst of one is just a single pulse and passes.
    single = flooding_script(1, burst_count=1)
    assert is_stealthy(single, world, horizon=60.0)
    with pytest.raises(ValueError):
        flooding_script(1, burst_count=0)
    with pytest.raises(ValueError):
        flooding_script(1, burst_count=3, burst_interval=0.0)


# Node 0 crosses its firing threshold at 1.0 + TIME_EPS / 2, and node 1 its
# update threshold at 1.0, inside a burst of pulses TIME_EPS apart from 1.0
# on. When the clock moved to each pulse's own time, 2500 such pulses carried
# node 1 1e-9 past its threshold; the clock now stops at each crossing.
def _k4_run(attacker, algorithm):
    config = ScenarioConfig(
        graph=complete_digraph(4),
        algorithm=algorithm,
        f=1,
        phases=[-0.5 * TIME_EPS, 0.5, 0.25, 0.0],
        frequencies=[1.0] * 4,
        attackers=[attacker],
        normalize_phases=False,
        normalize_frequencies=False,
        horizon=3.0,
        monitor="off",
    )
    return run_scenario(config, validate=False)


def test_flooding_pulses_within_time_eps_run_without_overshoot():
    script = flooding_script(1, burst_count=2, burst_interval=TIME_EPS, start_time=1.0)
    assert streams(script.emission_times, 2.0) == (1.0, 1.0 + TIME_EPS)
    burst = {"burst_count": 2500, "burst_interval": TIME_EPS, "start_time": 1.0}
    for algorithm in ("absolute", "relative"):
        assert _k4_run(AttackerSpec(3, "flooding", burst), algorithm).outcome == "detected"
    # Pulses that round to one time never move the clock.
    script = flooding_script(1, burst_count=3, burst_interval=1.0, start_time=1e17)
    assert streams(script.emission_times, 2e17) == (1e17, 1e17, 1e17)


def test_custom_pulses_within_time_eps_run_without_overshoot():
    at_eps = 1.0 + TIME_EPS
    script = custom_script(1, pulses=[(1.0, 1.1), (at_eps, 1.2)], start_pulses=[at_eps, 1.0])
    assert streams(script.emission_times, 2.0) == (1.0, at_eps)
    assert streams(script.start_emission_times, 2.0) == (1.0, at_eps)
    # Counted pulses alone, and counted and start pulses interleaved.
    counted = [[1.0 + k * TIME_EPS, 1.1] for k in range(2500)]
    mixed = {"pulses": counted[1::2], "start_pulses": [t for t, _ in counted[::2]]}
    for options in ({"pulses": counted}, mixed):
        for algorithm in ("absolute", "relative"):
            assert _k4_run(AttackerSpec(3, "custom", options), algorithm).outcome == "detected"


def test_custom_script_explicit_times():
    script = custom_script(2, pulses=[(1.7, 2.0), (0.5, 1.1)], start_pulses=[0.4])
    assert streams(script.emission_times, 10.0) == (0.5, 1.7)
    assert streams(script.emission_times, 1.0) == (0.5,)
    assert streams(script.start_emission_times, 10.0) == (0.4,)
    assert script.freq_claim(0.5) == 1.1
    assert script.freq_claim(1.7) == 2.0
    with pytest.raises(ValueError):
        custom_script(2, pulses=[(1.0, 1.1), (1.0, 1.2)])
    with pytest.raises(ValueError):
        custom_script(2, pulses=[(-0.5, 1.0)])


def test_silent_script_is_trivially_stealthy():
    script = silent_script(4)
    assert streams(script.emission_times, 100.0) == ()
    world = world_on(demo_graph_8(), faulty=(4,))
    assert is_stealthy(script, world, horizon=100.0)


def test_stealth_is_vacuous_without_normal_receivers():
    # Nobody listens to node 2 here, so even a flood cannot be counted.
    graph = DirectedGraph.from_lists([[1], [0], [0, 1]])
    world = world_on(graph, faulty=(2,))
    script = flooding_script(2, burst_count=50)
    assert is_stealthy(script, world, horizon=10.0)


# Spacings on and an ulp either side of the one-period stealth threshold.
_NEAR_ONE = [math.nextafter(1.0 - 1e-12, 0.0), 1.0 - 1e-12, 1.0, math.nextafter(1.0, 2.0)]
_GAPS = st.sampled_from([0.02, 0.5, 1.5, *_NEAR_ONE]) | st.floats(0.01, 3.0)


@st.composite
def _scripts(draw):
    """A periodic, flooding or custom script for node 1 of the demo graph."""
    kind = draw(st.sampled_from(["periodic", "flooding", "custom"]), label="kind")
    if kind == "periodic":
        period = draw(_GAPS, label="period")
        offset = st.floats(0.0, period, exclude_max=True)
        return stealthy_script(1, draw(st.lists(offset, min_size=1, max_size=3)), 1.0, period)
    if kind == "flooding":
        return flooding_script(1, draw(st.integers(1, 8)), burst_interval=draw(_GAPS),
                               start_time=draw(st.floats(0.0, 5.0)))
    steps = draw(st.lists(_GAPS, max_size=8), label="gaps")
    times = [draw(st.floats(0.0, 5.0), label="first")]
    for gap in steps:
        times.append(times[-1] + gap)
    return custom_script(1, pulses=[(t, 1.0) for t in set(times)])


@settings(max_examples=300, deadline=None)
@given(script=_scripts(), horizon=st.floats(0.0, 30.0))
def test_streamed_stealth_equals_the_pairwise_check_of_the_materialized_schedule(script, horizon):
    times = sorted(materialized_schedule(script.emission_times)(horizon))
    pairwise = all(cur - prev >= 1.0 - 1e-12 for prev, cur in zip(times, times[1:]))
    world = world_on(demo_graph_8(), faulty=(1,))
    assert is_stealthy(script, world, horizon) == pairwise
