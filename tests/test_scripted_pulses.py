"""Scripted pulses on demand: the sorted streams of each schedule, the lazy
merge against the former materialize-then-sort path, and the pulse tape that
every run of one prepared scenario reads."""

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pcosync import AttackerSpec, InvariantViolation, ProtocolFault, ScenarioConfig, complete_digraph
from pcosync import custom_script, engine, run_scenario, stealthy_script
from pcosync.metrics import RunMetrics
from pcosync.scenario import PreparedScenario

from oracles import _explicit, _periodic, materialized_pulses, streams

_PERIODS = st.sampled_from([1e-6, 1e-3, 0.1, 1.0 / 3.0, 0.7, 1.0, 2.5, math.pi]) | st.floats(1e-6, 10.0)


@st.composite
def _offsets(draw, period):
    """One to four offsets in [0, period): zero, the float just below the
    period, or anywhere between, with duplicates."""
    below = math.nextafter(period, 0.0)
    one = st.sampled_from([0.0, below]) | st.floats(0.0, below)
    offsets = draw(st.lists(one, min_size=1, max_size=3), label="offsets")
    copies = draw(st.lists(st.sampled_from(offsets), max_size=2), label="duplicates")
    return offsets + copies


@st.composite
def _horizons(draw, times, period=1.0):
    """A horizon on one of the given pulse times, an ulp either side of it,
    or anywhere up to a period after it."""
    t = draw(st.sampled_from(times), label="pulse time")
    how = draw(st.sampled_from(["on", "above", "below", "between"]), label="horizon")
    if how == "on":
        return t
    if how == "above":
        return math.nextafter(t, math.inf)
    if how == "below":
        return math.nextafter(t, -math.inf)
    return t + period * draw(st.floats(0.0, 1.0), label="fraction")


def _streams_agree(schedule, old, horizon):
    """The schedule's merged streams, each stream and its count against the
    former schedule."""
    expected = tuple(sorted(old(horizon)))
    assert repr(streams(schedule, horizon)) == repr(expected)
    parts = [(count, list(times)) for count, times in schedule.streams(horizon)]
    for count, times in parts:
        assert count == len(times)
        assert times == sorted(times)
    assert sum(count for count, _ in parts) == len(expected)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), period=_PERIODS)
def test_periodic_streams_match_the_materialized_schedule(data, period):
    offsets = data.draw(_offsets(period))
    rounds = data.draw(st.integers(0, 150), label="rounds")
    times = [n * period + o for n in (0, rounds, rounds + 1) for o in offsets]
    schedule = stealthy_script(1, offsets, claim=1.0, period=period).emission_times
    old = _periodic(offsets, period)
    _streams_agree(schedule, old, data.draw(_horizons(times, period)))
    # A horizon on each of the first pulse times and an ulp either side,
    # where the quotient that starts the count is most often one short.
    for t in (n * period + o for n in range(12) for o in offsets):
        for horizon in (t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)):
            _streams_agree(schedule, old, horizon)


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=12),
    data=st.data(),
)
def test_explicit_streams_match_the_materialized_schedule(times, data):
    horizon = data.draw(_horizons(times))
    # Start pulses may repeat a time; counted pulses may not.
    script = custom_script(2, pulses=[(t, 1.0) for t in set(times)], start_pulses=times)
    _streams_agree(script.start_emission_times, _explicit(times), horizon)
    _streams_agree(script.emission_times, _explicit(set(times)), horizon)


def test_an_oversized_periodic_schedule_is_refused_by_arithmetic():
    schedule = stealthy_script(1, [0.0, 0.25], claim=1.0, period=0.5).emission_times
    schedule.check(25000.0)  # 100000 pulses: at the limit
    with pytest.raises(ValueError, match="more than 100000 pulses"):
        schedule.check(25000.5)
    with pytest.raises(ValueError, match="more than 100000 pulses"):
        schedule.streams(30000.0)
    with pytest.raises(ValueError, match="more than 100000 pulses"):
        _periodic([0.0, 0.25], 0.5)(25000.5)


@pytest.mark.parametrize("times", [[math.nan], [1.0, math.inf], [-math.inf], [-0.5]])
def test_pulse_times_must_be_finite_and_nonnegative(times):
    with pytest.raises(ValueError, match="pulse times must be finite and nonnegative"):
        custom_script(2, pulses=[(t, 1.0) for t in times])
    with pytest.raises(ValueError, match="pulse times must be finite and nonnegative"):
        custom_script(2, pulses=[], start_pulses=times)


# Few distinct times, so pulses of different scripts, and counted and start
# pulses of one script, often coincide.
_TIMES = st.sampled_from([0.0, 0.25, 0.35, 0.5, 1.0, 1.35, 2.5])
_OFFSETS = st.sampled_from([0.0, 0.25, 0.35, 0.5])


@st.composite
def _scripted_scenarios(draw):
    """A complete digraph on five or six nodes with one to three scripted
    attackers, listed in any node order, of every kind that emits."""
    n = draw(st.integers(5, 6), label="n")
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True), label="attackers")
    attackers = []
    for node in nodes:
        kind = draw(st.sampled_from(["stealthy", "flooding", "custom"]), label="kind")
        if kind == "stealthy":
            options = {"offsets": draw(st.lists(_OFFSETS, min_size=1, max_size=2), label="offsets"),
                       "start_offsets": draw(st.lists(_OFFSETS, max_size=2), label="start offsets")}
        elif kind == "flooding":
            options = {"burst_count": draw(st.integers(1, 6), label="burst"),
                       "burst_interval": draw(st.sampled_from([0.02, 0.25]), label="interval"),
                       "start_time": draw(_TIMES, label="burst start")}
        else:
            pulses = draw(st.lists(_TIMES, max_size=4, unique=True), label="pulses")
            options = {"pulses": [(t, 1.0 + t % 0.3) for t in pulses],
                       "start_pulses": draw(st.lists(_TIMES, max_size=3), label="start pulses")}
        attackers.append(AttackerSpec(node, kind, options))
    unit = st.floats(0.0, 1.0)
    return ScenarioConfig(
        graph=complete_digraph(n),
        algorithm=draw(st.sampled_from(["absolute", "relative"]), label="algorithm"),
        f=1,
        phases=[0.3 * u for u in draw(st.lists(unit, min_size=n, max_size=n), label="phases")],
        frequencies=[1.0 + 0.1 * u for u in draw(st.lists(unit, min_size=n, max_size=n), label="freqs")],
        attackers=attackers,
        horizon=draw(st.sampled_from([0.35, 3.0, 8.0]), label="horizon"),
        halt_on_detection=draw(st.booleans(), label="halt_on_detection"),
        monitor="off",
    )


def _recorded(run):
    """Every event ``run()`` observed, its liveness budget, and its outcome."""
    events, budgets = [], []
    observe, budget = RunMetrics.observe, engine.event_budget

    def recording_observe(self, world, event, newly_detected=True):
        events.append(repr(event))
        observe(self, world, event, newly_detected)

    def recording_budget(*args):
        budgets.append(budget(*args))
        return budgets[-1]

    with mock.patch.object(RunMetrics, "observe", recording_observe), \
            mock.patch.object(engine, "event_budget", recording_budget):
        try:
            outcome = run()
        except InvariantViolation as exc:  # must break both paths alike
            outcome = repr(exc)
    return events, budgets, outcome


def _recorded_run(config):
    def run():
        result = run_scenario(config, validate=False)
        return result.outcome, result.fault_message, repr(result.metrics.delta_windowed)

    return _recorded(run)


def _recorded_prepared_run(prepared, phases, freqs, halt_on_detection):
    """``_recorded`` of one monitor-off run of ``prepared`` at these initial
    values, halting on detection as told."""
    def run():
        world = prepared.world(phases, freqs)
        metrics = RunMetrics(world, alpha=prepared.alpha, mode="off")
        try:
            outcome = engine.simulate(world, prepared.protocol, prepared.tape, metrics=metrics,
                                      halt_on_detection=halt_on_detection)
        except ProtocolFault as exc:
            return "fault", str(exc)
        return outcome, repr(metrics.delta_windowed)

    return _recorded(run)


@settings(max_examples=120, deadline=None)
@given(config=_scripted_scenarios())
def test_scripted_runs_match_the_materialized_path(config):
    lazy = _recorded_run(config)
    with mock.patch.object(engine, "scripted_pulses", materialized_pulses):
        materialized = _recorded_run(config)
    assert lazy == materialized
    assert lazy[1]  # the budget was computed


def test_simultaneous_pulses_keep_the_time_node_start_order():
    # Node 4 is listed first, and each script sends a counted and a start
    # pulse at 0.25: the run sees node 1's pulses first, its counted one
    # ahead of its start one, as the tape it reads them from flags them.
    stealthy = {"offsets": [0.25], "start_offsets": [0.25]}
    config = ScenarioConfig(
        graph=complete_digraph(6), algorithm="relative", f=2,
        phases=[0.0] * 6, frequencies=[1.0] * 6, horizon=0.3, monitor="off",
        attackers=[AttackerSpec(4, "stealthy", stealthy), AttackerSpec(1, "stealthy", stealthy)],
    )
    prepared, phases, freqs = config.prepare()
    events, budgets, _ = _recorded_prepared_run(prepared, phases, freqs, config.halt_on_detection)
    assert events[:4] == [repr((0.25, engine.ADVERSARY_PULSE, node)) for node in (1, 1, 4, 4)]
    assert [pulse[:3] for pulse in prepared.tape.pulses[:4]] == [
        (0.25, node, start) for node, start in ((1, False), (1, True), (4, False), (4, True))]
    assert budgets == [engine.event_budget(6, 4, 0.3)]


def test_a_tied_pulse_claims_its_frequency_at_its_scripted_time():
    # The custom pulse lands 0.5e-12 after the normal nodes' common fire at
    # 1.0, ties with it and happens at 1.0, but custom_script holds its
    # claim at 1.0 + 0.5e-12 only: read at the event's time, it would raise
    # KeyError.
    for algorithm in ("absolute", "relative"):
        config = ScenarioConfig(
            graph=complete_digraph(7), algorithm=algorithm, f=1,
            phases=[0.0] * 7, frequencies=[1.0] * 7, horizon=5.0, monitor="off",
            attackers=[AttackerSpec(6, "custom", {"pulses": [[1.0 + 0.5e-12, 1.0]]})],
            normalize_phases=False, normalize_frequencies=False,
        )
        events, _, outcome = _recorded_run(config)
        pulse = repr((1.0, engine.ADVERSARY_PULSE, 6))
        assert [e for e in events if "adversary_pulse" in e] == [pulse]
        assert (outcome[0], len(events)) == ("converged", 14)


@st.composite
def _initial_values(draw, n):
    unit = st.floats(0.0, 1.0)
    phases = [0.3 * u for u in draw(st.lists(unit, min_size=n, max_size=n), label="phases")]
    freqs = [1.0 + 0.1 * u for u in draw(st.lists(unit, min_size=n, max_size=n), label="freqs")]
    return phases, freqs


@settings(max_examples=60, deadline=None)
@given(config=_scripted_scenarios(), data=st.data())
def test_runs_on_one_prepared_scenario_match_freshly_prepared_runs(config, data):
    # Runs that halt on detection stop early and leave the tape short; the
    # runs after them, halted or not, read what the earlier ones pulled.
    halts = [True, False, True] + data.draw(st.lists(st.booleans(), max_size=2), label="halts")
    prepared = config.prepare()[0]
    tape = prepared.tape
    n = config.graph.node_count
    for halt in halts:
        phases, freqs = data.draw(_initial_values(n))
        shared = _recorded_prepared_run(prepared, phases, freqs, halt)
        fresh_config = dataclasses.replace(
            config, phases=phases, frequencies=freqs, halt_on_detection=halt,
            normalize_phases=False, normalize_frequencies=False,
        )
        fresh = _recorded_prepared_run(fresh_config.prepare()[0], phases, freqs, halt)
        assert shared == fresh
        assert len(tape.pulses) <= tape.total


def _counting_custom_scenario(times):
    """A prepared K6 scenario whose custom attacker's claim records every
    time it is called at."""
    config = ScenarioConfig(
        graph=complete_digraph(6), f=1, phases=[0.0] * 6, frequencies=[1.0] * 6,
        horizon=6.0, monitor="off", attackers=[AttackerSpec(5, "custom", {"pulses": []})],
    )
    script = custom_script(5, pulses=[(t, 1.0 + t / 10.0) for t in times])
    claim, calls = script.freq_claim, []

    def counting_claim(t):
        calls.append(t)
        return claim(t)

    script = dataclasses.replace(script, freq_claim=counting_claim)
    return PreparedScenario(config, [script]), calls


def test_each_claim_is_evaluated_once_at_its_scripted_time():
    # Halted runs stop at the first detection, the others run on: the tape
    # grows in both, and every run reads the claims already evaluated.
    times = [0.1 + 0.37 * k for k in range(15)]
    prepared, calls = _counting_custom_scenario(times)
    lengths = []
    for k in range(6):
        phases = [0.05 * ((k + i) % 5) for i in range(6)]
        freqs = [1.0 + 0.01 * ((k * i) % 4) for i in range(6)]
        _recorded_prepared_run(prepared, phases, freqs, halt_on_detection=k % 2 == 0)
        assert calls == [t for t, _, _, _ in prepared.tape.pulses]
        lengths.append(len(calls))
    assert lengths[0] < lengths[1] == len(times)
    assert calls == times
    assert [claim for _, _, _, claim in prepared.tape.pulses] == [1.0 + t / 10.0 for t in times]


@pytest.mark.parametrize("horizon", [-1.0, math.nan])
def test_a_tape_refuses_a_negative_or_nan_horizon(horizon):
    scripts = [custom_script(5, pulses=[(0.5, 1.0)])]
    with pytest.raises(ValueError, match=f"horizon must be nonnegative, got {horizon}"):
        engine.PulseTape(scripts, horizon)


def test_an_early_detection_leaves_the_rest_of_a_flood_unmerged():
    # Receivers with eager detection latch it at the fifth of 100 000 pulses
    # from node 4, and the run halts there.
    flood = {"burst_count": 100_000, "burst_interval": 1e-4, "start_time": 0.3}
    config = ScenarioConfig(
        graph=complete_digraph(5), f=1, phases=[0.0, 0.1, 0.2, 0.1, 0.0],
        frequencies=[1.0, 1.05, 1.02, 1.0, 1.0], eager_detection=True, horizon=20.0,
        monitor="off", attackers=[AttackerSpec(4, "flooding", flood)],
    )
    prepared, phases, freqs = config.prepare()
    events, _, outcome = _recorded_prepared_run(prepared, phases, freqs, halt_on_detection=True)
    assert outcome[0] == "detected"
    delivered = sum("adversary_pulse" in event for event in events)
    assert delivered == 5
    # The pulses delivered, and the one the loop peeked at when it halted.
    assert prepared.tape.total == 100_000
    assert len(prepared.tape.pulses) == delivered + 1
