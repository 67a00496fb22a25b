"""Event engine: time advance, event ordering, the main loop's guards."""

import dataclasses
import functools
import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

import pcosync.engine
from pcosync import (
    AbsoluteProtocol,
    AttackerSpec,
    DirectedGraph,
    InvariantViolation,
    OscillatorState,
    ProtocolFault,
    PulseTape,
    RelativeProtocol,
    RunMetrics,
    ScenarioConfig,
    WorldState,
    complete_digraph,
    run_scenario,
    simulate,
)
from pcosync.engine import (
    ADVERSARY_PULSE,
    FIRE,
    START_PULSE,
    TIME_EPS,
    UPDATE,
    _CandidateTimes,
    advance_all,
    event_budget,
    next_event,
)

from oracles import scan_next_event

PLAIN = SimpleNamespace(start_target=None)
STARTING = SimpleNamespace(start_target=1.0 - 0.1)


def fresh_table(world, protocol):
    """A new candidate-time table for ``world`` under ``protocol``, read for
    its ``start_target``; its first selection computes every normal node."""
    return _CandidateTimes(world.graph.node_count, protocol)


def select(world, protocol, pending_adversary=()):
    """``next_event`` on a fresh table, as a run's first selection makes it."""
    return next_event(world, pending_adversary, fresh_table(world, protocol))


def two_node_world(phases, omegas, faulty=()):
    return WorldState(
        graph=complete_digraph(2),
        oscillators=[
            OscillatorState(phase=p, omega=w) for p, w in zip(phases, omegas)
        ],
        faulty=frozenset(faulty),
    )


def test_world_partition_is_validated():
    graph = complete_digraph(3)
    oscs = [OscillatorState(0.0, 1.0) for _ in range(3)]
    with pytest.raises(ValueError):
        WorldState(graph, oscs[:2])
    for bad in (3, -1):
        with pytest.raises(ValueError, match=f"faulty node {bad} outside 0..2"):
            WorldState(graph, oscs, frozenset({1, bad}))
    # Every node the faulty set leaves out is normal, in ascending order.
    assert WorldState(graph, oscs).normal_ids == (0, 1, 2)
    world = WorldState(graph, oscs, frozenset({1}))
    assert (world.normal_ids, world.faulty_ids) == ((0, 2), (1,))


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
    time, kind, node = select(world, PLAIN)
    assert kind is FIRE
    assert node == 0
    assert time == pytest.approx(1.0)


def test_fire_beats_update_at_the_same_instant():
    world = two_node_world([0.5, 0.0], [1.0, 1.0])
    world.oscillators[1].fired = True  # update due at phase 0.5, time 0.5
    assert select(world, PLAIN)[1:3] == (FIRE, 0)


def test_adversary_pulse_beats_thresholds_at_the_same_instant():
    world = two_node_world([0.5, 0.0], [1.0, 1.0])
    assert select(world, PLAIN, ((0.5, 7, False, 1.0),))[1:3] == (ADVERSARY_PULSE, 7)


def test_a_scripted_pulse_exactly_time_eps_late_still_ties_with_the_earliest_node():
    world = two_node_world([0.2, 0.0], [1.0, 1.0])
    tmin = select(world, PLAIN)[0]
    limit = tmin + TIME_EPS  # the tie window's end, as next_event computes it
    assert select(world, PLAIN, ((limit, 7, False, 1.0),)) == (tmin, ADVERSARY_PULSE, 7)
    later = math.nextafter(limit, math.inf)
    assert select(world, PLAIN, ((later, 7, False, 1.0),)) == (tmin, FIRE, 0)


def test_update_is_armed_only_after_firing():
    world = two_node_world([0.2, 0.4], [1.0, 1.0])
    # Nobody fired yet, so no update is due.
    assert select(world, PLAIN)[1] is FIRE
    world.oscillators[0].fired = True
    time, kind, node = select(world, PLAIN)
    assert (kind, node) == (UPDATE, 0)
    assert time == pytest.approx(0.3)


def test_detected_node_never_updates():
    world = two_node_world([0.3, 0.0], [1.0, 1.0])
    world.oscillators[0].fired = True
    world.oscillators[0].detected = True
    assert select(world, PLAIN)[1:3] == (FIRE, 0)


def test_armed_node_past_half_phase_is_an_invariant_violation():
    world = two_node_world([0.6, 0.0], [1.0, 1.0])
    world.oscillators[0].fired = True
    with pytest.raises(InvariantViolation):
        select(world, PLAIN)


def test_start_pulse_scheduling_window():
    # Due at phase 1 - zeta, but only for nodes that have not emitted one
    # and have not already passed the threshold this cycle.  A silent faulty
    # companion keeps node 0's candidates from being shadowed.
    world = two_node_world([0.0, 0.95], [1.0, 1.0], faulty=(1,))
    time, kind, node = select(world, STARTING)
    assert (kind, node) == (START_PULSE, 0)
    assert time == pytest.approx(0.9)
    world.oscillators[0].start_emitted = True
    time, kind, node = select(world, STARTING)
    assert (kind, node) == (FIRE, 0)
    assert time == pytest.approx(1.0)
    # Already past the threshold: no start candidate is manufactured.
    late = two_node_world([0.95, 0.0], [1.0, 1.0], faulty=(1,))
    time, kind, node = select(late, STARTING)
    assert (kind, node) == (FIRE, 0)
    assert time == pytest.approx(0.05)


def test_every_selected_event_carries_one_of_the_engine_kinds():
    # ``simulate`` sends a kind it does not recognise to ``handle_start``, so
    # a kind equal to an engine name but not that object would run the wrong
    # handler silently. Over a relative run with a flood and forged start
    # pulses, every selection returns a plain (time, kind, node) tuple whose
    # kind is one of the four engine names, and the trace's kinds are those
    # names plus "init"; a forged start pulse is one the tape's head flags.
    kinds = (ADVERSARY_PULSE, FIRE, START_PULSE, UPDATE)
    config = ScenarioConfig(
        graph=complete_digraph(8), algorithm="relative", f=2,
        phases=[0.01 * k for k in range(8)], frequencies=[1.0 + 0.002 * k for k in range(8)],
        horizon=6.0, monitor="off", eager_detection=True, halt_on_detection=False,
        attackers=[
            AttackerSpec(6, "flooding", {"burst_count": 4, "burst_interval": 0.02, "start_time": 2.1}),
            AttackerSpec(7, "custom", {"pulses": [[1.3, 1.0]], "start_pulses": [0.4, 1.2, 3.7]}),
        ],
    )
    seen = []

    def recording(world, pending, table):
        event = next_event(world, pending, table)
        seen.append((event, pending))
        return event

    with mock.patch.object(pcosync.engine, "next_event", recording):
        result = run_scenario(config, force=True, collect_trace=True)
    events = [event for event, _ in seen if event is not None]
    assert all(type(event) is tuple and len(event) == 3 for event in events)
    assert all(any(event[1] is kind for kind in kinds) for event in events)
    assert {event[1] for event in events} == set(kinds)
    assert result.metrics.rows[0].event_kind == "init"
    assert {row.event_kind for row in result.metrics.rows} == {"init", *kinds}
    assert any(event is not None and event[1] is ADVERSARY_PULSE and pending[0][2]
               for event, pending in seen)


def test_event_budget_scales_with_size_and_horizon():
    assert event_budget(2, 0, 10.0) < event_budget(4, 0, 10.0)
    assert event_budget(2, 0, 10.0) < event_budget(2, 0, 100.0)
    assert event_budget(2, 5, 10.0) > event_budget(2, 0, 10.0)


def test_event_budget_scales_the_nodes_term_by_the_fastest_frequency():
    assert event_budget(3, 0, 3.0, 874.5) == int(6 * 874.5 * 4.0 * 4.0) + 16
    assert event_budget(3, 5, 3.0, 2.0) == int((6 * 2.0 + 5) * 4.0 * 4.0) + 16
    # Never below the budget of frequency 1.
    assert event_budget(3, 5, 3.0, 0.25) == event_budget(3, 5, 3.0) == (6 + 5) * 16 + 16


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
    outcome = simulate(world, prepared.protocol, prepared.tape, metrics=metrics)
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
        simulate(world, prepared.protocol, prepared.tape, metrics=metrics)


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


def _drawn_world(nodes, clock):
    n = len(nodes)
    faulty = frozenset(i for i, node in enumerate(nodes) if node["faulty"])
    return WorldState(
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
        faulty=faulty,
        clock=clock,
    )


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.lists(_NODE, min_size=2, max_size=5),
    clock=st.sampled_from([0.0, 0.375, 3.0, 41.125]),
    protocol=st.sampled_from([
        PLAIN,
        SimpleNamespace(start_target=1.0 - 0.25),
        SimpleNamespace(start_target=1.0 - 0.125),
    ]),
    head=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 16), st.integers(0, 4), st.booleans()),
    ),
)
def test_next_event_matches_the_candidate_scan(nodes, clock, protocol, head):
    world = _drawn_world(nodes, clock)
    pending = ()
    if head is not None:
        steps, node, is_start = head
        pending = ((clock + steps / 16, node, is_start, 1.0),)
    try:
        expected = scan_next_event(world, protocol, pending)
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as raised:
            select(world, protocol, pending)
        assert str(raised.value) == str(exc)
        return
    got = select(world, protocol, pending)
    if expected is None:
        assert got is None
    else:
        assert repr(got) == repr(expected)


# -- selections at one clock: resuming from the cursor --------------------------
#
# One table serves a walk of selections at an unchanged clock. Between two
# of them either one actor's selection inputs change (``table.actor`` names
# it) or only a new adversary head arrives (no actor), as in ``simulate``.
# Steps can aim an actor's slot at the kept earliest time: exactly on it, a
# 2**-44 nudge either side, 2**-44 inside or outside TIME_EPS above it, or
# 1/16 below it. Adversary heads land at the same offsets.
_AIMS = (0.0, 0.0, 2.0**-44, -(2.0**-44), TIME_EPS - 2.0**-44, TIME_EPS + 2.0**-44, -1 / 16)


def _selection_path(world, protocol, table):
    """The way ``next_event`` goes at this selection, read from the table and
    a fresh computation of every slot."""
    if table.clock != world.clock:
        return "full scan: clock moved"
    fresh = fresh_table(world, protocol)
    fresh.clock = world.clock
    fresh.refresh(world, world.normal_ids)
    times, actor, n = fresh.times, table.actor, table.n
    if actor is not None and min(times[actor::n]) < table.tmin:
        return "full scan: an actor slot fell below tmin"
    if table.tmin not in times[table.cursor:]:
        return "full scan: no slot from the cursor on holds tmin"
    limit = table.tmin + TIME_EPS
    if actor is not None and any(times[s] <= limit for s in range(actor, table.cursor, n)):
        return "resumed: an actor slot before the cursor wins"
    return "resumed from the cursor"


def _actor_step(data, world, protocol, table, last):
    """Change one normal node's phase, omega or flags and name it the actor.
    An aimed step moves one slot, often one before the cursor, to the kept
    earliest time; the other steps favor the node of the last event."""
    n = table.n
    normal = world.normal_ids
    change = data.draw(st.sampled_from(["aim", "aim", "phase", "omega", "flags"]), label="change")
    if change == "aim" and table.tmin < math.inf:
        # A slot's threshold phase, in slot order: fire, start pulse, update.
        targets = [1.0] + ([] if protocol.start_target is None else [protocol.start_target]) + [0.5]
        slots = [s for s in range(len(targets) * n) if s % n in normal]
        before = [s for s in slots if s < table.cursor]
        slot = data.draw(st.sampled_from(before or slots) | st.sampled_from(slots), label="aimed slot")
        actor, target = slot % n, targets[slot // n]
        osc = world.oscillators[actor]
        at = table.tmin + data.draw(st.sampled_from(_AIMS), label="aim")
        osc.phase = target - (at - world.clock) * osc.omega
    else:
        actor = data.draw(st.sampled_from(normal if last not in normal else (last,) + normal), label="actor")
        osc = world.oscillators[actor]
        if change == "omega":
            osc.omega = data.draw(st.sampled_from([0.5, 1.0, 1.25, 2.0]), label="omega")
        elif change == "flags":
            osc.fired, osc.detected, osc.start_emitted = data.draw(
                st.tuples(st.booleans(), st.booleans(), st.booleans()), label="flags")
        else:
            osc.phase = data.draw(_PHASES, label="phase")
    table.actor = actor


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    nodes=st.lists(_NODE, min_size=2, max_size=6),
    clock=st.sampled_from([0.0, 0.375, 41.125]),
    protocol=st.sampled_from([PLAIN, SimpleNamespace(start_target=1.0 - 0.25)]),
)
def test_selections_at_one_clock_match_the_candidate_scan(data, nodes, clock, protocol):
    world = _drawn_world(nodes, clock)
    table = fresh_table(world, protocol)
    pending = ()
    last = None
    for _ in range(data.draw(st.integers(1, 16), label="steps")):
        try:
            expected = scan_next_event(world, protocol, pending)
        except InvariantViolation as exc:
            with pytest.raises(InvariantViolation) as raised:
                next_event(world, pending, table)
            assert str(raised.value) == str(exc)
            event("raised")
            return
        event(_selection_path(world, protocol, table))
        got = next_event(world, pending, table)
        assert repr(got) == repr(expected)
        last = None if got is None or got[1] is ADVERSARY_PULSE else got[2]
        if world.normal_ids and data.draw(st.booleans(), label="actor step"):
            _actor_step(data, world, protocol, table, last)
            pending = ()
        else:
            table.actor = None
            near = table.tmin if table.tmin < math.inf else clock
            t = data.draw(st.sampled_from([near + aim for aim in _AIMS] + [clock + 1.0]), label="head")
            pending = ((t, data.draw(st.integers(0, 7), label="head node"), data.draw(st.booleans()), 1.0),)


# -- selections inside simulate -----------------------------------------------


class CheckedSelections:
    """Replace ``engine.next_event`` so that every selection ``simulate``
    makes is compared bit for bit with ``scan_next_event`` on the same
    world, raises included. Records the events and how many selections
    reused the candidate times of the previous one."""

    def __init__(self):
        self.events = []
        self.reused = 0

    def __call__(self, world, pending_adversary, table):
        if table.clock == world.clock:
            self.reused += 1
        try:
            # The table holds the protocol's start target, all the scan reads.
            expected = scan_next_event(world, table, pending_adversary)
        except InvariantViolation as exc:
            with pytest.raises(InvariantViolation) as raised:
                next_event(world, pending_adversary, table)
            assert str(raised.value) == str(exc)
            raise
        got = next_event(world, pending_adversary, table)
        if expected is None:
            assert got is None
        else:
            assert repr(got) == repr(expected)
            self.events.append(got)
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
    )
    protocol = AbsoluteProtocol(f=1, eager_detection=True)
    metrics = RunMetrics(world, alpha=0.25, mode="off")
    checked = CheckedSelections()
    with checked.patch():
        simulate(world, protocol, PulseTape([], 0.75), metrics=metrics, halt_on_detection=False)
    assert checked.events[:2] == [(0.0, FIRE, 0), (0.0, FIRE, 1)]
    assert checked.reused >= 1
    assert world.oscillators[2].detected
    assert (UPDATE, 2) not in [(kind, node) for _, kind, node in checked.events]


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
        )
        for _ in range(n)
    ]
    params = dict(f=draw(st.integers(0, 2), label="f"), eager_detection=draw(st.booleans()))
    relative = draw(st.booleans(), label="relative")
    if relative:
        protocol = RelativeProtocol(**params, zeta=0.25)
        handler = draw(st.sampled_from(["fire", "update", "start", "adversary"]))
    else:
        protocol = AbsoluteProtocol(**params)
        handler = draw(st.sampled_from(["fire", "update", "adversary"]))
    actor = draw(st.integers(0, n - 1), label="actor")
    faulty = draw(st.sets(st.integers(0, n - 1)), label="faulty")
    # An adversary pulse comes from a faulty node, every other event from a normal one.
    faulty = faulty | {actor} if handler == "adversary" else faulty - {actor}
    world = WorldState(
        graph=graph,
        oscillators=oscillators,
        faulty=frozenset(faulty),
        clock=2.0,
    )
    if relative:
        world.add_pair_slots()
        for osc, d in zip(oscillators, graph.in_degrees):
            osc.stamps = draw(st.lists(st.none() | phases, min_size=d, max_size=d))
    value = draw(st.sampled_from([0.5, 1.0, 1.5]))
    return world, protocol, handler, actor, value, draw(st.booleans(), label="is_start")


@settings(max_examples=300, deadline=None)
@given(call=_handler_calls())
def test_handlers_change_other_nodes_selection_inputs_only_when_they_report(call):
    world, protocol, handler, actor, value, is_start = call
    before = _selection_inputs(world)
    try:
        if handler == "fire":
            reported = protocol.handle_fire(world, actor)
        elif handler == "update":
            reported = protocol.handle_update(world, actor)
        elif handler == "start":
            reported = protocol.handle_start(world, actor)
        else:
            reported = protocol.deliver_adversary(world, actor, value, is_start)
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
    world = WorldState(graph, states)
    assert world.receiver_slots is graph.out_slots
    assert world.in_degrees is graph.in_degrees
    assert graph.in_degrees == (2, 2, 2)
    # (receiver, the sender's position in the receiver's in-neighbor list)
    assert graph.out_slots == (((1, 0), (2, 0)), ((0, 0), (2, 1)), ((0, 1), (1, 1)))
    attacked = WorldState(graph, states, frozenset({1}))
    assert attacked.receiver_slots == (((2, 0),), ((0, 0), (2, 1)), ((0, 1),))
