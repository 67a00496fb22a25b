"""Whole-run invariants of attack-free runs on random robust graphs."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from pcosync import DirectedGraph, ScenarioConfig, is_r_robust, run_scenario
from pcosync.engine import PHASE_SLACK


@st.composite
def _robust_scenarios(draw):
    """A validated, attack-free scenario on a random (2f+1)-robust digraph:
    a complete digraph on 4-8 nodes with a few edges removed."""
    n = draw(st.integers(4, 8), label="n")
    f = draw(st.integers(0, 1), label="f")
    pairs = [(i, j) for i, j in itertools.product(range(n), repeat=2) if i != j]
    removed = draw(st.sets(st.sampled_from(pairs), max_size=n), label="removed edges")
    graph = DirectedGraph.from_lists(
        [j for j in range(n) if j != i and (i, j) not in removed] for i in range(n)
    )
    assume(is_r_robust(graph, 2 * f + 1))
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


# Relative runs estimate each frequency ratio from two stamped phases, so a
# ratio of exactly 1 can come out an ulp away; the monitor allows 1e-9.
HULL_SLACK = {"absolute": 0.0, "relative": 1e-9}


@settings(max_examples=60, deadline=None)
@given(config=_robust_scenarios())
def test_attack_free_runs_keep_the_hull_and_the_phase_range_and_repeat(config, tmp_path_factory):
    assert config.validate()[0] == []
    _, initial = config.resolve_initials()
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
