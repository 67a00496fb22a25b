"""Whole-run invariants of runs on random robust graphs."""

import dataclasses
import itertools
import math
from unittest import mock

from hypothesis import assume, event, example, given, settings, strategies as st

from pcosync import (
    AttackerSpec,
    DirectedGraph,
    RelativeProtocol,
    ScenarioConfig,
    complete_digraph,
    is_r_robust,
    run_scenario,
)
from pcosync.engine import PHASE_SLACK
from pcosync.metrics import RunMetrics
from pcosync.msr import MsrRound
from pcosync.phase import containing_arc
from pcosync.runner import run_built

from oracles import pairing


@st.composite
def _robust_scenarios(draw, grown=False):
    """A validated, attack-free scenario on a random (2f+1)-robust digraph:
    a complete digraph on 4-8 nodes with a few edges removed or, when
    ``grown`` is set, half the time a sparse one on 4-9 nodes as
    ``_grown_robust_graphs`` builds it (with f = 0, a tree whose root
    hears nobody)."""
    if grown and draw(st.booleans(), label="grown"):
        f = draw(st.integers(0, 1), label="f")
        graph = draw(_grown_robust_graphs(2 * f + 1, min_nodes=4), label="graph")
    else:
        n = draw(st.integers(4, 8), label="n")
        f = draw(st.integers(0, 1), label="f")
        graph = _draw_robust_graph(draw, n, 2 * f + 1)
    n = graph.node_count
    arc = draw(st.floats(0.0, 0.45), label="arc")
    spread = draw(st.floats(0.0, 0.2), label="spread")
    unit = st.floats(0.0, 1.0)
    return ScenarioConfig(
        graph=graph,
        algorithm=draw(st.sampled_from(["absolute", "relative"]), label="algorithm"),
        f=f,
        phases=[arc * u for u in draw(st.lists(unit, min_size=n, max_size=n), label="phases")],
        frequencies=[1.0 + spread * u for u in draw(st.lists(unit, min_size=n, max_size=n), label="frequencies")],
        horizon=draw(st.sampled_from([5.0, 15.0]), label="horizon"),
        monitor="off",
    )


def _draw_robust_graph(draw, n, r):
    """An r-robust complete digraph on ``n`` nodes with at most n edges removed."""
    pairs = [(i, j) for i, j in itertools.product(range(n), repeat=2) if i != j]
    removed = draw(st.sets(st.sampled_from(pairs), max_size=n), label="removed edges")
    graph = DirectedGraph.from_lists(
        [j for j in range(n) if j != i and (i, j) not in removed] for i in range(n)
    )
    assume(is_r_robust(graph, r))
    return graph


@st.composite
def _grown_robust_graphs(draw, r, min_nodes=1):
    """An r-robust digraph on at least ``min_nodes`` and at most 9 nodes,
    built so that no draw is rejected: a complete core of 2r - 1 nodes,
    then each later node listening to exactly r earlier ones, then 0-3
    back edges, each an earlier node listening to a later one. The core is
    r-robust, a node that listens to r nodes of an r-robust digraph keeps
    it r-robust, and an added edge never lowers robustness (LeBlanc et al.
    2013), so most nodes have in-degree r, far from a complete digraph's."""
    core = 2 * r - 1
    n = draw(st.integers(max(core, min_nodes), 9), label="n")
    rows = [[j for j in range(core) if j != i] for i in range(core)]
    for i in range(core, n):
        # r distinct earlier nodes, each drawn from those not yet taken.
        earlier = list(range(i))
        rows.append(sorted(earlier.pop(draw(st.integers(0, len(earlier) - 1)))
                           for _ in range(r)))
    back = [(i, j) for j in range(core, n) for i in range(j)]
    if back:
        for i, j in draw(st.lists(st.sampled_from(back), max_size=3, unique=True),
                         label="back edges"):
            rows[i].append(j)
    return DirectedGraph.from_lists(sorted(row) for row in rows)


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from([1, 2, 3]), data=st.data())
def test_grown_graphs_are_r_robust(r, data):
    # Robustness needs two nodes; the r = 1 core has one.
    graph = data.draw(_grown_robust_graphs(r, min_nodes=2), label="graph")
    assert is_r_robust(graph, r)


# Relative runs estimate each frequency ratio from two stamped phases, so a
# ratio of exactly 1 can come out an ulp away; the monitor allows 1e-9.
HULL_SLACK = {"absolute": 0.0, "relative": 1e-9}


@settings(max_examples=60, deadline=None)
@given(config=_robust_scenarios(grown=True))
def test_attack_free_runs_keep_the_hull_and_the_phase_range_and_repeat(config, tmp_path_factory):
    event(f"smallest in-degree {min(config.graph.in_degrees)}")
    assert config.validate()[0] == []
    initial = config.prepare()[2]
    slack = HULL_SLACK[config.algorithm]
    low, high = min(initial) - slack, max(initial) + slack
    directory = tmp_path_factory.mktemp("runs")
    result = run_scenario(config, trace_path=directory / "first.csv")
    rows = result.metrics.rows
    for k, row in enumerate(rows):
        assert all(low <= w <= high for w in row.omegas), (row.k, row.omegas, low, high)
        for i, phase in enumerate(row.phases):
            if 0.0 <= phase < 1.0:
                continue
            # A phase reaches 1, by at most the tolerated overshoot, only
            # when the node's next event is its fire.
            assert 1.0 <= phase <= 1.0 + PHASE_SLACK, (row.k, i, phase)
            own = [later.event_kind for later in rows[k + 1 :] if later.node == i]
            assert own[:1] in ([], ["fire"]), (row.k, i, phase)
    run_scenario(config, trace_path=directory / "second.csv")
    assert (directory / "first.csv").read_bytes() == (directory / "second.csv").read_bytes()


@st.composite
def _attacked_scenarios(draw):
    """A robust scenario with one or two scripted attackers, which may
    outnumber f: such runs end detected, or in a protocol fault when a
    receiver hears too few pulses."""
    config = draw(_robust_scenarios())
    n = config.graph.node_count
    attackers = []
    for node in sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2), label="attackers")):
        attackers.append(_draw_attacker(draw, node))
    return dataclasses.replace(
        config,
        attackers=attackers,
        eager_detection=draw(st.booleans(), label="eager_detection"),
        halt_on_detection=draw(st.booleans(), label="halt_on_detection"),
    )


def _draw_attacker(draw, node):
    """A scripted attacker of any kind at ``node``."""
    kind = draw(st.sampled_from(["silent", "stealthy", "flooding", "custom"]), label="kind")
    if kind == "stealthy":
        options = {"offsets": [draw(st.floats(0.0, 0.99), label="offset")]}
    elif kind == "flooding":
        options = {"burst_count": draw(st.integers(1, 8), label="burst"),
                   "start_time": draw(st.floats(0.0, 4.0), label="burst start")}
    elif kind == "custom":
        times = draw(st.lists(st.floats(0.0, 5.0), max_size=6, unique=True), label="pulses")
        options = {"pulses": [(t, 1.0 + t % 0.3) for t in times]}
    else:
        options = {}
    return AttackerSpec(node, kind, options)


@st.composite
def _admissible_attacked_scenarios(draw):
    """A scenario inside the paper's conditions: f = 1 on a 3-robust digraph,
    either nearly complete as in ``_robust_scenarios`` or sparse as
    ``_grown_robust_graphs`` builds it, one attacker, so no normal node
    hears more than f misbehaving in-neighbors, and equal initial
    frequencies with an initial arc of at most 0.45. With a spread of 0 the
    strict initial bound of ``check_initial_bound`` reads the arc alone,
    against 0.5; any spread above 0 meets a coefficient of about 1e30 at
    n = 5."""
    if draw(st.booleans(), label="grown"):
        graph = draw(_grown_robust_graphs(3), label="graph")
    else:
        graph = _draw_robust_graph(draw, draw(st.integers(5, 8), label="n"), 3)
    n = graph.node_count
    arc = draw(st.floats(0.0, 0.45), label="arc")
    phases = [arc * u for u in draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                                     label="phases")]
    return ScenarioConfig(
        graph=graph,
        algorithm=draw(st.sampled_from(["absolute", "relative"]), label="algorithm"),
        f=1,
        phases=phases,
        frequencies=[1.0] * n,
        attackers=[_draw_attacker(draw, draw(st.integers(0, n - 1), label="attacker"))],
        horizon=60.0,
        eager_detection=draw(st.booleans(), label="eager_detection"),
        monitor="off",
    )


@settings(max_examples=100, deadline=None)
@given(config=_admissible_attacked_scenarios())
def test_admissible_attacked_runs_detect_or_synchronize_inside_the_hull(config):
    # The paper's dichotomy: under its conditions the normal nodes either
    # detect the misbehaving one or synchronize, and W-MSR trimming keeps
    # every normal frequency inside the initial normal hull.
    assert config.validate()[0] == []
    initial = config.prepare()[2]
    normal = config.normal_ids
    slack = HULL_SLACK[config.algorithm]
    low = min(initial[i] for i in normal) - slack
    high = max(initial[i] for i in normal) + slack
    result = run_scenario(config, validate=False, collect_trace=True)
    assert result.outcome in ("converged", "detected"), (result.outcome, result.fault_message)
    for row in result.metrics.rows:
        assert all(low <= row.omegas[i] <= high for i in normal), (row.k, row.omegas, low, high)
    event(f"{config.algorithm} {config.attackers[0].kind} {result.outcome}")
    event(f"smallest in-degree {min(config.graph.in_degrees)}")


def _reported(result):
    m = result.metrics
    return (result.outcome, result.fault_message, result.world.event_count,
            m.delta, m.delta_windowed, result.detections)


@settings(max_examples=100, deadline=None)
@given(config=_robust_scenarios() | _attacked_scenarios())
def test_monitor_and_trace_leave_every_reported_value_unchanged(config):
    # With the monitor off and no trace, observe skips what nothing reads;
    # every value a run reports must match the runs that compute it all.
    plain = run_scenario(config, validate=False)
    warned = run_scenario(dataclasses.replace(config, monitor="warn"), validate=False)
    traced = run_scenario(config, validate=False, collect_trace=True)
    assert _reported(warned) == _reported(plain)
    assert _reported(traced) == _reported(plain)
    last = traced.metrics.rows[-1]
    assert (last.delta, last.delta_windowed) == (plain.metrics.delta, plain.metrics.delta_windowed)


# The observer modes ``observe`` runs in: the monitor off or on, a trace
# collected or not.
_OBSERVERS = st.tuples(st.sampled_from(["off", "warn"]), st.booleans())


def _observed_run(config, observer):
    monitor, traced = observer
    result = run_scenario(dataclasses.replace(config, monitor=monitor), validate=False,
                          collect_trace=traced)
    assert result.metrics._tracks_radii == (monitor != "off" or traced)
    return result


@settings(max_examples=100, deadline=None)
@given(config=_robust_scenarios() | _attacked_scenarios(), observer=_OBSERVERS)
def test_kept_frequency_extrema_follow_every_update(config, observer):
    # In every observer mode an update moves the extrema from the updated
    # node alone; after every event they must be the floats min and max of
    # the normal frequencies return.
    observe = RunMetrics.observe
    checked = []

    def checking_observe(self, world, event, newly_detected=True):
        observe(self, world, event, newly_detected)
        omegas = world.normal_omegas()
        assert (repr(self._lo), repr(self._hi)) == (repr(min(omegas)), repr(max(omegas))), (
            world.event_count, event)
        checked.append(event[1])

    with mock.patch.object(RunMetrics, "observe", checking_observe):
        observed = _observed_run(config, observer)
    assert len(checked) == observed.world.event_count
    other = run_scenario(config, validate=False, collect_trace=not observer[1])
    assert _summary(observed) == _summary(other)


@settings(max_examples=100, deadline=None)
@given(config=_robust_scenarios() | _attacked_scenarios(), observer=_OBSERVERS)
def test_kept_phases_and_streak_follow_every_event(config, observer):
    # In every observer mode observe rereads the phases only when the clock
    # moves, and lets its witness pair rule the arc out where it can. After
    # every event the kept phases must be the world's, and the streak and
    # convergence what computing the arc at every event gives.
    observe = RunMetrics.observe
    reference = {"streak": 0, "converged": False}

    def checking_observe(self, world, event, newly_detected=True):
        observe(self, world, event, newly_detected)
        phases = world.normal_phases()
        assert self._phases == phases, (world.event_count, event)
        omegas = world.normal_omegas()
        if (max(omegas) - min(omegas) <= self.tol_freq
                and containing_arc(phases).length <= self.tol_phase):
            reference["streak"] += 1
            reference["converged"] |= reference["streak"] >= self.window_len
        else:
            reference["streak"] = 0
        assert (self._streak, self.converged) == (reference["streak"], reference["converged"]), (
            world.event_count, event)

    with mock.patch.object(RunMetrics, "observe", checking_observe):
        observed = _observed_run(config, observer)
    event(f"outcome {observed.outcome}")


class ContractCheckingProtocol:
    """A protocol wrapper that checks, around every handler call, the event
    loop's unchanged-clock contract that event selection and ``observe``
    both rely on (see ``engine``): a handler moves no normal
    phase but its actor's and never the clock, and an adversary pulse moves
    no normal phase. Every other attribute is the wrapped protocol's;
    ``checked`` counts the handler calls that returned."""

    def __init__(self, inner):
        self.inner = inner
        self.checked = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _call(self, world, actor, handler, *args):
        before = world.normal_phases()
        clock = world.clock
        result = handler(world, *args)
        moved = [i for i, old, new in zip(world.normal_ids, before, world.normal_phases())
                 if old != new and i != actor]
        assert moved == [], (world.event_count, handler.__name__, actor, moved)
        assert world.clock == clock, (world.event_count, handler.__name__)
        self.checked += 1
        return result

    def handle_fire(self, world, i):
        return self._call(world, i, self.inner.handle_fire, i)

    def handle_start(self, world, i):
        return self._call(world, i, self.inner.handle_start, i)

    def handle_update(self, world, i):
        return self._call(world, i, self.inner.handle_update, i)

    def deliver_adversary(self, world, attacker, value, is_start):
        return self._call(world, None, self.inner.deliver_adversary, attacker, value, is_start)


@settings(max_examples=100, deadline=None)
@given(config=_robust_scenarios() | _attacked_scenarios(),
       algorithm=st.sampled_from(["absolute", "relative"]), eager=st.booleans())
def test_handlers_keep_the_unchanged_clock_contract(config, algorithm, eager):
    config = dataclasses.replace(config, algorithm=algorithm, eager_detection=eager)
    prepared, world = config.build()
    checking = prepared.protocol = ContractCheckingProtocol(prepared.protocol)
    outcome, metrics, fault = run_built(prepared, world)
    # A handler that raised a protocol fault ended the run uncounted.
    assert checking.checked == world.event_count
    plain = run_scenario(config, validate=False)
    assert (outcome, fault) == (plain.outcome, plain.fault_message)
    assert world.event_count == plain.world.event_count
    event(f"outcome {outcome}")


@settings(max_examples=100, deadline=None)
@given(config=_robust_scenarios() | _attacked_scenarios(), eager=st.booleans())
def test_only_an_event_whose_handler_reports_a_detection_detects(config, eager):
    # observe scans for new detections only after a handler reported one; a
    # full scan after every other event must find no newly detected node.
    config = dataclasses.replace(config, eager_detection=eager)
    observe = RunMetrics.observe
    seen = set()

    def checking_observe(self, world, event, newly_detected=True):
        detected = {i for i in world.normal_ids if world.oscillators[i].detected}
        assert newly_detected or detected <= seen, (world.event_count, event)
        seen.update(detected)
        observe(self, world, event, newly_detected)

    with mock.patch.object(RunMetrics, "observe", checking_observe):
        result = run_scenario(config, validate=False)
    assert {node for _, _, node in result.detections} == seen


def _summary(result):
    m = result.metrics
    return (result.outcome, result.world.event_count, m.detection_events,
            repr(m.delta), repr(m.delta_windowed))


def _own_updates(result, node, before):
    return [r.omegas[node] for r in result.metrics.rows
            if r.event_kind == "update" and r.node == node and r.t < before]


# Attack-free, each relative ratio recovers its sender's frequency over the
# receiver's, so every node takes the frequencies the absolute protocol gives
# it, within rounding, while two conditions hold (see ``relative.py``):
# - every pulse a node counts completes a start/end pair by its update; and
# - no counted pulse reaches a receiver within rounding of phase 0.5, where
#   a landmark's jump rule switches and a pulse can trade places with the
#   update. A relative run's start pulses split its phase advance, so its
#   phases round differently from an absolute run's.
HALF_PHASE_BAND = 1e-9


def _runs_and_first_breach(config):
    """Both protocols' traced runs of ``config``, and the time at which either
    run first breaks a condition above (infinity when neither does)."""
    breaches = [math.inf]
    deliver = MsrRound.deliver_pulse
    update = RelativeProtocol.handle_update

    def checking_deliver(self, world, edges, value):
        if any(abs(world.oscillators[j].phase - 0.5) <= HALF_PHASE_BAND for j, _ in edges):
            breaches.append(world.clock)
        return deliver(self, world, edges, value)

    def checking_update(self, world, i):
        if world.oscillators[i].pulse_count != len(pairing(world, i)[1]):
            breaches.append(world.clock)
        return update(self, world, i)

    with mock.patch.object(MsrRound, "deliver_pulse", checking_deliver), \
            mock.patch.object(RelativeProtocol, "handle_update", checking_update):
        runs = [run_scenario(dataclasses.replace(config, algorithm=algorithm), collect_trace=True)
                for algorithm in ("absolute", "relative")]
    return runs, min(breaches)


def _attack_free(graph, phases, frequencies):
    return ScenarioConfig(graph=graph, phases=phases, frequencies=frequencies, horizon=5.0,
                          monitor="off")


@settings(max_examples=60, deadline=None)
@given(config=_robust_scenarios(grown=True))
# At t = 1.0 landmark pulses reach node 4 at phase 0.49999999999999994 in the
# absolute run and at 0.5 in the relative one, so its jumps differ by about
# 0.5; at t = 1.5 node 0 counts 5 pulses but holds only 4 pulse pairs.
@example(config=_attack_free(complete_digraph(5), [0.0, 0.0, 0.0, 0.0, 0.375],
                             [1.0, 1.0, 1.0, 1.125, 1.125]))
# At t = 2.2251 node 3 counts 5 pulses but holds only 4 pulse pairs.
@example(config=_attack_free(
    DirectedGraph.from_lists([(2, 3, 4, 5), (0, 2, 3, 4, 5), (0, 1, 3, 4, 5), (0, 1, 2, 4, 5),
                              (1, 2, 5), (0, 1, 2, 3, 4)]),
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.25], [1.0, 1.1875, 1.1875, 1.0, 1.1875, 1.1875]))
def test_attack_free_absolute_and_relative_runs_agree(config):
    # Every update before the first breach must agree; with no breach, all do.
    event(f"smallest in-degree {min(config.graph.in_degrees)}")
    (absolute, relative), breach = _runs_and_first_breach(config)
    event("both conditions hold" if breach == math.inf else "a condition breaks")
    for node in range(config.graph.node_count):
        pairs = list(zip(_own_updates(absolute, node, breach),
                         _own_updates(relative, node, breach)))
        assert all(abs(a - b) <= 1e-9 for a, b in pairs), (node, breach, pairs)
