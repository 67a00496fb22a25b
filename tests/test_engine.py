"""Event engine: time advance, event ordering, the main loop's guards."""

import dataclasses
from types import SimpleNamespace

import pytest

from pcosync import (
    EventKind,
    InvariantViolation,
    OscillatorState,
    RunMetrics,
    ScenarioConfig,
    WorldState,
    complete_digraph,
    run_scenario,
    simulate,
)
from pcosync.engine import advance_all, event_budget, next_event

PLAIN = SimpleNamespace(uses_start_pulses=False, zeta=0.0)
STARTING = SimpleNamespace(uses_start_pulses=True, zeta=0.1)


def two_node_world(phases, omegas, faulty=()):
    return WorldState(
        graph=complete_digraph(2),
        oscillators=[
            OscillatorState(phase=p, omega=w) for p, w in zip(phases, omegas)
        ],
        normal=frozenset({0, 1} - set(faulty)),
        faulty=frozenset(faulty),
    )


def test_world_partition_is_validated():
    graph = complete_digraph(2)
    oscs = [OscillatorState(0.0, 1.0), OscillatorState(0.0, 1.0)]
    with pytest.raises(ValueError):
        WorldState(graph, oscs[:1], frozenset({0, 1}), frozenset())
    with pytest.raises(ValueError):
        WorldState(graph, oscs, frozenset({0, 1}), frozenset({1}))
    with pytest.raises(ValueError):
        WorldState(graph, oscs, frozenset({0}), frozenset())


def test_advance_moves_each_phase_at_its_own_rate():
    world = two_node_world([0.2, 0.5], [1.0, 2.0])
    advance_all(world, 0.1)
    assert world.oscillators[0].phase == pytest.approx(0.3)
    assert world.oscillators[1].phase == pytest.approx(0.7)
    assert world.clock == pytest.approx(0.1)
    with pytest.raises(ValueError):
        advance_all(world, -0.01)


def test_advance_rejects_normal_overshoot():
    world = two_node_world([0.95, 0.0], [1.0, 1.0])
    with pytest.raises(InvariantViolation):
        advance_all(world, 0.1)


def test_faulty_phase_free_runs_modulo_one():
    world = two_node_world([0.0, 0.95], [1.0, 1.0], faulty=(1,))
    advance_all(world, 0.1)
    assert world.oscillators[1].phase == pytest.approx(0.05)


def test_fire_tie_resolves_to_lower_node_id():
    world = two_node_world([0.0, 0.0], [1.0, 1.0])
    ev = next_event(world, PLAIN)
    assert ev.kind is EventKind.FIRE
    assert ev.node == 0
    assert ev.time == pytest.approx(1.0)


def test_fire_beats_update_at_the_same_instant():
    world = two_node_world([0.5, 0.0], [1.0, 1.0])
    world.oscillators[1].fired = True  # update due at phase 0.5, time 0.5
    ev = next_event(world, PLAIN)
    assert ev.kind is EventKind.FIRE and ev.node == 0


def test_adversary_pulse_beats_thresholds_at_the_same_instant():
    world = two_node_world([0.5, 0.0], [1.0, 1.0])
    ev = next_event(world, PLAIN, pending_adversary=((0.5, 7, 0),))
    assert ev.kind is EventKind.ADVERSARY_PULSE
    assert ev.node == 7


def test_update_is_armed_only_after_firing():
    world = two_node_world([0.2, 0.4], [1.0, 1.0])
    ev = next_event(world, PLAIN)
    assert ev.kind is EventKind.FIRE  # nobody fired yet, so no update is due
    world.oscillators[0].fired = True
    ev = next_event(world, PLAIN)
    assert ev.kind is EventKind.UPDATE and ev.node == 0
    assert ev.time == pytest.approx(0.3)


def test_detected_node_never_updates():
    world = two_node_world([0.3, 0.0], [1.0, 1.0])
    world.oscillators[0].fired = True
    world.oscillators[0].detected = True
    ev = next_event(world, PLAIN)
    assert ev.kind is EventKind.FIRE and ev.node == 0


def test_armed_node_past_half_phase_is_an_invariant_violation():
    world = two_node_world([0.6, 0.0], [1.0, 1.0])
    world.oscillators[0].fired = True
    with pytest.raises(InvariantViolation):
        next_event(world, PLAIN)


def test_start_pulse_scheduling_window():
    # Due at phase 1 - zeta, but only for nodes that have not emitted one
    # and have not already passed the threshold this cycle.  A silent faulty
    # companion keeps node 0's candidates from being shadowed.
    world = two_node_world([0.0, 0.95], [1.0, 1.0], faulty=(1,))
    ev = next_event(world, STARTING)
    assert ev.kind is EventKind.START_PULSE and ev.node == 0
    assert ev.time == pytest.approx(0.9)
    world.oscillators[0].start_emitted = True
    ev = next_event(world, STARTING)
    assert ev.kind is EventKind.FIRE and ev.node == 0
    assert ev.time == pytest.approx(1.0)
    # Already past the threshold: no start candidate is manufactured.
    late = two_node_world([0.95, 0.0], [1.0, 1.0], faulty=(1,))
    ev = next_event(late, STARTING)
    assert ev.kind is EventKind.FIRE and ev.node == 0
    assert ev.time == pytest.approx(0.05)


def test_event_budget_scales_with_size_and_horizon():
    assert event_budget(2, 0, 10.0) < event_budget(4, 0, 10.0)
    assert event_budget(2, 0, 10.0) < event_budget(2, 0, 100.0)
    assert event_budget(2, 5, 10.0) > event_budget(2, 0, 10.0)


def pair_config(**overrides):
    base = dict(
        graph=complete_digraph(2),
        f=0,
        phases=[0.0, 0.1],
        frequencies=[1.0, 1.0],
        horizon=60.0,
        monitor="strict",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_simulate_converges_a_homogeneous_pair():
    config = pair_config()
    world, protocol, scripts = config.build()
    metrics = RunMetrics(world, alpha=config.effective_alpha(), mode="strict")
    outcome = simulate(
        world, protocol, scripts, horizon=config.horizon, metrics=metrics
    )
    assert outcome == "converged"
    assert metrics.delta <= 1e-6
    assert world.clock < 60.0
    # Both frequencies started equal, so they can never move.
    assert world.normal_omegas() == [1.0, 1.0]


def test_simulate_enforces_the_liveness_budget():
    # Zero tolerances keep the run from ever counting as converged (three
    # nodes close in only geometrically, unlike a pair, which can collapse
    # exactly in one round), so the tiny safety factor's ceiling must trip.
    config = ScenarioConfig(
        graph=complete_digraph(3),
        f=0,
        phases=[0.0, 0.1, 0.25],
        frequencies=[1.0, 1.02, 1.05],
        horizon=60.0,
    )
    world, protocol, scripts = config.build()
    metrics = RunMetrics(
        world,
        alpha=config.effective_alpha(),
        mode="off",
        tol_phase=0.0,
        tol_freq=0.0,
    )
    with pytest.raises(InvariantViolation, match="budget"):
        simulate(
            world,
            protocol,
            scripts,
            horizon=config.horizon,
            metrics=metrics,
            zeno_safety=0.001,
        )


def test_repeated_runs_are_identical():
    config = ScenarioConfig(
        graph=complete_digraph(3),
        f=0,
        phases=[0.0, 0.2, 0.35],
        frequencies=[1.0, 1.02, 1.05],
        horizon=30.0,
    )
    first = run_scenario(config, collect_trace=True)
    second = run_scenario(dataclasses.replace(config), collect_trace=True)
    assert first.outcome == second.outcome
    assert first.metrics.rows == second.metrics.rows
