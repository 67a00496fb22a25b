"""Event engine: time advance, event ordering, the main loop's guards."""

import dataclasses
import functools
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pcosync.engine
from pcosync import (
    AbsoluteProtocol,
    AttackerSpec,
    DirectedGraph,
    EventKind,
    InvariantViolation,
    MsrParams,
    OscillatorState,
    ProtocolFault,
    RelativeProtocol,
    RunMetrics,
    ScenarioConfig,
    WorldState,
    complete_digraph,
    run_scenario,
    simulate,
)
from pcosync.engine import advance_all, event_budget, next_event

from oracles import scan_next_event

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
    prepared, world = config.build()
    metrics = RunMetrics(world, alpha=prepared.alpha, mode="strict")
    outcome = simulate(
        world, prepared.protocol, prepared.scripts, horizon=config.horizon, metrics=metrics
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
    prepared, world = config.build()
    metrics = RunMetrics(
        world,
        alpha=prepared.alpha,
        mode="off",
        tol_phase=0.0,
        tol_freq=0.0,
    )
    tiny_budget = functools.partial(event_budget, safety=0.001)
    with mock.patch.object(pcosync.engine, "event_budget", tiny_budget), \
            pytest.raises(InvariantViolation, match="budget"):
        simulate(world, prepared.protocol, prepared.scripts, horizon=config.horizon,
                 metrics=metrics)


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


# Phases sit on or next to the thresholds (0.5 for an update, 0.75 and
# 0.875 for a start pulse, 1 for a fire) and dyadic rates keep the times
# exact, so many candidate times tie. A 2**-44 nudge moves a time by less
# than TIME_EPS, a 2**-31 one moves a phase by less than PHASE_SLACK and a
# 2**-29 one by more: an armed node nudged that far past 0.5 must raise.
_PHASES = st.builds(
    lambda base, nudge: base + nudge,
    st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.875, 1.0]),
        st.integers(0, 16).map(lambda k: k / 16),
    ),
    st.sampled_from([0.0, 0.0, 2.0**-44, -(2.0**-44), 3 * 2.0**-44, 2.0**-31, 2.0**-29]),
)


def _nodes(fired):
    return st.fixed_dictionaries({
        "phase": _PHASES.filter(lambda p: p <= 0.5 + 2.0**-29) if fired else _PHASES,
        "omega": st.sampled_from([0.5, 1.0, 1.0, 1.25, 2.0]),
        "fired": st.just(fired),
        "detected": st.booleans(),
        "start_emitted": st.booleans(),
        "faulty": st.sampled_from([False, False, False, True]),
    })


_NODE = st.one_of(_nodes(False), _nodes(True))


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.lists(_NODE, min_size=2, max_size=5),
    clock=st.sampled_from([0.0, 0.375, 3.0, 41.125]),
    protocol=st.sampled_from([
        PLAIN,
        SimpleNamespace(uses_start_pulses=True, zeta=0.25),
        SimpleNamespace(uses_start_pulses=True, zeta=0.125),
    ]),
    head=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 16), st.integers(0, 4), st.booleans()),
    ),
)
def test_next_event_matches_the_candidate_scan(nodes, clock, protocol, head):
    n = len(nodes)
    faulty = frozenset(i for i, node in enumerate(nodes) if node["faulty"])
    world = WorldState(
        graph=complete_digraph(n),
        oscillators=[
            OscillatorState(
                phase=node["phase"],
                omega=node["omega"],
                fired=node["fired"],
                detected=node["detected"],
                start_emitted=node["start_emitted"],
            )
            for node in nodes
        ],
        normal=frozenset(range(n)) - faulty,
        faulty=faulty,
        clock=clock,
    )
    pending = ()
    if head is not None:
        steps, node, is_start = head
        pending = ((clock + steps / 16, node, int(is_start)),)
    try:
        expected = scan_next_event(world, protocol, pending)
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as raised:
            next_event(world, protocol, pending)
        assert str(raised.value) == str(exc)
        return
    got = next_event(world, protocol, pending)
    if expected is None:
        assert got is None
    else:
        assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(expected))


# -- selections inside simulate -----------------------------------------------


class CheckedSelections:
    """Replace ``engine.next_event`` so that every selection ``simulate``
    makes is compared bit for bit with ``scan_next_event`` on the same
    world, raises included. Records the events and how many selections
    reused the candidate times of the previous one."""

    def __init__(self):
        self.events = []
        self.reused = 0

    def __call__(self, world, protocol, pending_adversary=(), table=None):
        if table is not None and table.clock == world.clock:
            self.reused += 1
        try:
            expected = scan_next_event(world, protocol, pending_adversary)
        except InvariantViolation as exc:
            with pytest.raises(InvariantViolation) as raised:
                next_event(world, protocol, pending_adversary, table)
            assert str(raised.value) == str(exc)
            raise
        got = next_event(world, protocol, pending_adversary, table)
        if expected is None:
            assert got is None
        else:
            assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(expected))
            self.events.append((got.time, got.kind, got.node))
        return got

    def patch(self):
        return mock.patch.object(pcosync.engine, "next_event", self)


def run_checked(config):
    checked = CheckedSelections()
    with checked.patch():
        try:
            run_scenario(config, validate=False)
        except InvariantViolation:
            pass  # a run may end on the budget or an overshoot; the selections up to there matched
    return checked


def test_synchronized_run_reuses_the_kept_times():
    n = 16
    config = ScenarioConfig(
        graph=complete_digraph(n),
        algorithm="relative",
        f=1,
        phases=[0.002 * ((5 * k) % n) for k in range(n)],
        frequencies=[1.0 + 0.001 * ((3 * k) % n) for k in range(n)],
        horizon=20.0,
        monitor="off",
    )
    checked = run_checked(config)
    assert checked.reused > len(checked.events) // 3


def test_detection_latched_at_an_unchanged_clock_cancels_a_due_update():
    # Nodes 0 and 1 fire at t = 0, while node 2's update is due at t = 0 as
    # well. The first fire leaves node 2 one pulse short of overflowing its
    # counter; the second fire is selected from the kept times (the clock
    # has not moved) and latches eager detection on node 2. A detected node
    # never updates, so the third selection, still at t = 0, must not
    # return node 2's update, although the kept times still hold it.
    world = WorldState(
        graph=complete_digraph(3),
        oscillators=[
            OscillatorState(phase=1.0, omega=1.0),
            OscillatorState(phase=1.0, omega=1.0),
            OscillatorState(phase=0.5, omega=1.0, fired=True, pulse_count=1),
        ],
        normal=frozenset({0, 1, 2}),
        faulty=frozenset(),
    )
    protocol = AbsoluteProtocol(MsrParams(f=1, eager_detection=True))
    metrics = RunMetrics(world, alpha=0.25, mode="off")
    checked = CheckedSelections()
    with checked.patch():
        simulate(world, protocol, [], horizon=0.75, metrics=metrics, halt_on_detection=False)
    assert checked.events[:2] == [(0.0, EventKind.FIRE, 0), (0.0, EventKind.FIRE, 1)]
    assert checked.reused >= 1
    assert world.oscillators[2].detected
    assert (EventKind.UPDATE, 2) not in [(kind, node) for _, kind, node in checked.events]


# Complete or sparse digraphs; phases on or next to a few multiples of 1/16
# and dyadic rates, so many candidate times tie exactly or within TIME_EPS.
@st.composite
def _selection_scenarios(draw):
    n = draw(st.integers(2, 20), label="n")
    if draw(st.booleans(), label="complete"):
        graph = complete_digraph(n)
    else:
        graph = DirectedGraph.from_lists(
            sorted(draw(st.sets(st.sampled_from([j for j in range(n) if j != i]), min_size=1)))
            for i in range(n)
        )
    # A few groups of phases, so that whole groups fire at one instant.
    groups = draw(st.lists(st.integers(0, 15), min_size=1, max_size=3), label="phase groups")
    phases = draw(st.lists(
        st.builds(
            lambda k, nudge: k / 16 + nudge,
            st.sampled_from(groups),
            st.sampled_from([0.0, 0.0, 0.0, 2.0**-44, 3 * 2.0**-44, 2.0**-31]),
        ),
        min_size=n, max_size=n,
    ), label="phases")
    freqs = draw(st.lists(st.sampled_from([1.0, 1.0, 1.0, 1.0 + 2.0**-40, 1.0625, 1.25]),
                          min_size=n, max_size=n), label="frequencies")
    attackers = []
    for node in sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)), label="attackers")):
        kind = draw(st.sampled_from(["flooding", "stealthy", "custom"]))
        if kind == "flooding":
            options = {"burst_count": draw(st.integers(1, 6)), "burst_interval": 0.0625,
                       "start_time": draw(st.integers(0, 32)) / 16}
        elif kind == "stealthy":
            options = {"offsets": [draw(st.integers(0, 15)) / 16],
                       "start_offsets": draw(st.lists(st.integers(0, 15).map(lambda k: k / 16), max_size=2))}
        else:
            times = draw(st.lists(st.integers(0, 64), max_size=6, unique=True))
            options = {"pulses": [(k / 16, 1.0 + (k % 3) / 8) for k in times],
                       "start_pulses": [k / 16 for k in draw(st.lists(st.integers(0, 64), max_size=4))]}
        attackers.append(AttackerSpec(node, kind, options))
    return ScenarioConfig(
        graph=graph,
        algorithm=draw(st.sampled_from(["absolute", "relative"]), label="algorithm"),
        f=draw(st.integers(0, 2), label="f"),
        zeta=draw(st.sampled_from([0.125, 0.25]), label="zeta"),
        phases=phases,
        frequencies=freqs,
        attackers=attackers,
        horizon=draw(st.sampled_from([3.0, 6.0]), label="horizon"),
        normalize_phases=False,
        normalize_frequencies=False,
        eager_detection=draw(st.booleans(), label="eager_detection"),
        halt_on_detection=draw(st.booleans(), label="halt_on_detection"),
        monitor="off",
    )


@settings(max_examples=120, deadline=None)
@given(config=_selection_scenarios())
def test_simulate_selections_match_the_candidate_scan(config):
    run_checked(config)


# -- the handlers' side of the candidate-time table -----------------------------
#
# At an unchanged clock ``next_event`` recomputes only the acting node's
# candidate times unless the handler reported a new detection. That is exact
# only while a handler that reports nothing leaves every other node's
# selection inputs as they were.


def _selection_inputs(world):
    return [(o.phase, o.omega, o.fired, o.detected, o.start_emitted) for o in world.oscillators]


@st.composite
def _handler_calls(draw):
    n = draw(st.integers(2, 6), label="n")
    if draw(st.booleans(), label="complete"):
        graph = complete_digraph(n)
    else:
        graph = DirectedGraph.from_lists(
            sorted(draw(st.sets(st.sampled_from([j for j in range(n) if j != i]), min_size=1)))
            for i in range(n)
        )
    phases = st.floats(0.0, 1.0)
    oscillators = [
        OscillatorState(
            phase=draw(phases),
            omega=draw(st.sampled_from([0.5, 1.0, 1.25, 2.0])),
            fired=draw(st.booleans()),
            pulse_count=draw(st.integers(0, n)),
            detected=draw(st.booleans()),
            start_emitted=draw(st.booleans()),
            pending_start=draw(st.dictionaries(st.integers(0, n - 1), phases)),
        )
        for _ in range(n)
    ]
    params = MsrParams(f=draw(st.integers(0, 2), label="f"), eager_detection=draw(st.booleans()))
    if draw(st.booleans(), label="relative"):
        protocol = RelativeProtocol(params, zeta=0.25)
        handler = draw(st.sampled_from(["fire", "update", "start", "adversary"]))
    else:
        protocol = AbsoluteProtocol(params)
        handler = draw(st.sampled_from(["fire", "update", "adversary"]))
    actor = draw(st.integers(0, n - 1), label="actor")
    faulty = draw(st.sets(st.integers(0, n - 1)), label="faulty")
    # An adversary pulse comes from a faulty node, every other event from a normal one.
    faulty = faulty | {actor} if handler == "adversary" else faulty - {actor}
    world = WorldState(
        graph=graph,
        oscillators=oscillators,
        normal=frozenset(range(n)) - faulty,
        faulty=frozenset(faulty),
        clock=2.0,
    )
    value = draw(st.sampled_from([0.5, 1.0, 1.5]))
    return world, protocol, handler, actor, value, draw(st.booleans(), label="is_start")


@settings(max_examples=300, deadline=None)
@given(call=_handler_calls())
def test_handlers_change_other_nodes_selection_inputs_only_when_they_report(call):
    world, protocol, handler, actor, value, is_start = call
    before = _selection_inputs(world)
    t = world.clock
    try:
        if handler == "fire":
            reported = protocol.handle_fire(world, actor, t)
        elif handler == "update":
            reported = protocol.handle_update(world, actor, t)
        elif handler == "start":
            reported = protocol.handle_start(world, actor, t)
        else:
            reported = protocol.deliver_adversary(world, actor, t, value, is_start)
    except ProtocolFault:
        return  # the run ends here, so no selection follows
    if reported:
        return
    after = _selection_inputs(world)
    # An adversary pulse has no normal actor: no node's inputs may move.
    others = [i for i in range(len(before)) if handler == "adversary" or i != actor]
    assert [after[i] for i in others] == [before[i] for i in others]


def test_a_world_reuses_the_graph_tables_when_no_node_is_faulty():
    graph = DirectedGraph.from_lists([[1, 2], [0, 2], [0, 1]])
    states = [OscillatorState(0.0, 1.0) for _ in range(3)]
    world = WorldState(graph, states, frozenset(range(3)), frozenset())
    assert world.normal_receivers is graph.out_neighbors
    assert world.in_degrees is graph.in_degrees
    assert graph.in_degrees == (2, 2, 2)
    attacked = WorldState(graph, states, frozenset({0, 2}), frozenset({1}))
    assert attacked.normal_receivers == ((2,), (0, 2), (0,))
