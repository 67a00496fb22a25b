"""Every scenario file exits 0 or 2: random whole files, and random values
under every top-level and nested key of the scenario schema. Files that once
overshot a threshold inside a tie window, and random tie-window bursts of
nodes and scripted pulses, run without overshooting.

``validate-config`` and ``run`` must answer each file with a verdict (exit 0)
or violation lines (exit 2), never an uncaught exception. ``run`` may also
exit 3, its documented code for a run that aborts on a protocol fault or a
broken runtime invariant (the ``strict`` monitor raises one by design).
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from pcosync import (
    AttackerSpec,
    ScenarioConfig,
    complete_digraph,
    run_scenario,
)
from pcosync import engine
from pcosync.cli import main
from pcosync.engine import PHASE_SLACK, TIME_EPS
from pcosync.runner import run_built
from pcosync.scenario import _KEYS, UnrunnableScenarioError

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=16,
)

_K5_TEXT = "5\n0 <- 1 2 3 4\n1 <- 0 2 3 4\n2 <- 0 1 3 4\n3 <- 0 1 2 4\n4 <- 0 1 2 3\n"
_K5_ROWS = [[j for j in range(5) if j != i] for i in range(5)]
# Valid scenarios that between them hold every key the schema reads, each
# nested object in every form it takes, and every attacker kind's options.
BASES = [
    {
        "name": "fuzz",
        "algorithm": "relative",
        "graph": {"named": "complete", "n": 5},
        "f": 1,
        "weights": {"policy": "alpha", "alpha": 0.2},
        "zeta": 0.1,
        "phases": {"random": {"low": 0.0, "high": 0.3, "seed": 1}},
        "frequencies": {"random": {"low": 1.0, "high": 1.1}},
        "attackers": [
            {"node": 4, "type": "stealthy", "offsets": [0.35], "claim": "sawtooth",
             "period": 1.0, "start_offsets": [0.25]},
        ],
        "horizon": 20.0,
        "seed": 3,
        "normalize_phases": True,
        "normalize_frequencies": True,
        "window_len": 4,
        "tol_phase": 1e-4,
        "tol_freq": 1e-4,
        "eager_detection": False,
        "halt_on_detection": True,
        "monitor": "warn",
    },
    {
        "graph": {"inline": _K5_ROWS},
        "f": 1,
        "weights": {"policy": "equal"},
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0, 1.02, 1.04, 1.0, 1.01],
        "attackers": [
            {"node": 4, "type": "flooding", "burst_count": 6, "burst_interval": 0.02,
             "start_time": 1.2, "claim": 2.0},
        ],
        "horizon": 20.0,
    },
    {
        "graph": {"text": _K5_TEXT},
        "f": 1,
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0] * 5,
        "attackers": [
            {"node": 0, "type": "custom", "pulses": [[0.5, 1.5], [1.5, 1.2]],
             "start_pulses": [0.4]},
        ],
        "horizon": 20.0,
    },
    {
        "graph": {"file": "k5.txt"},
        "f": 1,
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0] * 5,
        "attackers": [{"node": 2, "type": "silent"}],
        "horizon": 20.0,
    },
]


def _paths(value, prefix=()):
    """The path to every object key and list item below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


PATHS = [(b, path) for b, base in enumerate(BASES) for path in _paths(base)]


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _exit_codes(text: str) -> dict[str, int]:
    """Each command's exit code on a scenario file holding ``text``."""
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "k5.txt").write_text(_K5_TEXT)
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        for command in ("validate-config", "run"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes[command] = main([command, str(path)])
    return codes


def _check(codes):
    assert codes["validate-config"] in (0, 2)
    assert codes["run"] in (0, 2, 3)


def test_the_bases_hold_every_key_and_run():
    top = {path[0] for _, path in PATHS if len(path) == 1}
    assert top == set(_KEYS)
    for base in BASES:
        assert _exit_codes(json.dumps(base)) == {"validate-config": 0, "run": 0}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(PATHS), value=JSON)
def test_a_random_value_under_any_key_exits_0_or_2(case, value):
    b, path = case
    _check(_exit_codes(json.dumps(_replaced(BASES[b], path, value))))


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        JSON,
        st.dictionaries(st.sampled_from(sorted(_KEYS)) | st.text(max_size=8), JSON, max_size=8),
    )
)
def test_a_random_json_file_exits_0_or_2(data):
    _check(_exit_codes(json.dumps(data)))


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=40))
def test_a_random_text_file_exits_0_or_2(text):
    _check(_exit_codes(text))


# Files that once ended in a traceback, in an allocation sized by one
# number in the file, or in a run stuck at one clock; each now exits 2 with
# one violation line naming the value. Sizes sit just past each limit.
_STEALTHY = BASES[0]["attackers"][0]
_NOMINAL_DEMO8 = {
    **json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "nominal_sync.json")
                 .read_text()),
    "graph": {"named": "demo8"},
}
REFUSED = {
    "tiny_period": (
        _replaced(BASES[0], ("attackers", 0), {**_STEALTHY, "period": 1e-310, "offsets": [0.0],
                                               "start_offsets": []}),
        "pulses by the horizon",
    ),
    "zero_period_no_offsets": (
        _replaced(BASES[0], ("attackers", 0), {**_STEALTHY, "period": 0.0, "offsets": [],
                                               "start_offsets": []}),
        "period must be finite and positive",
    ),
    "nan_period_no_offsets": (
        _replaced(BASES[0], ("attackers", 0), {**_STEALTHY, "period": float("nan"),
                                               "offsets": [], "start_offsets": []}),
        "period must be finite and positive",
    ),
    "schedule_past_the_limit": (
        _replaced(BASES[0], ("horizon",), 100_001.0), "pulses by the horizon"
    ),
    "burst_past_the_limit": (
        _replaced(BASES[1], ("attackers", 0, "burst_count"), 100_001), "burst needs 1 to"
    ),
    "named_graph_past_the_limit": (
        _replaced(BASES[0], ("graph", "n"), 1025), "at most 1024 nodes"
    ),
    "graph_text_past_the_limit": (
        _replaced(BASES[2], ("graph", "text"), "1025\n"), "node count must lie in 1..1024"
    ),
    "draw_range_past_the_largest_float": (
        _replaced(BASES[0], ("phases", "random"), {"low": -1e308, "high": 1e308}),
        "phases draw range must be finite",
    ),
    # The decay envelope and the admissibility bounds raise the weight floor
    # to window_len times the normal node count as a float.
    "window_past_the_largest_float": (
        {**_NOMINAL_DEMO8, "window_len": 10**400},
        "window_len times the 8 normal nodes must fit in a float",
    ),
    "draw_range_from_high_down_to_low": (
        _replaced(BASES[0], ("frequencies", "random", "low"), 2), "from low up to high"
    ),
    "frequency_past_the_clock_resolution": (
        _replaced(BASES[1], ("frequencies", 1), 1e308), "too fast to simulate"
    ),
    "frequency_draw_past_the_clock_resolution": (
        _replaced(BASES[0], ("frequencies", "random"), {"low": 1.0, "high": 1e308}),
        "too fast to simulate",
    ),
    # Node 1 runs 1e6 times as fast as node 0, and the clock's rounding
    # near the horizon could carry it 7e-9 past a threshold.
    "frequency_past_the_clock_rounding": (
        {"graph": {"named": "complete", "n": 2}, "f": 0, "phases": [0.0, 0.0],
         "frequencies": [1.0, 1e6], "normalize_phases": False,
         "normalize_frequencies": False, "horizon": 5.0, "monitor": "off"},
        "the clock's rounding of 7.105427357601002e-15 can carry a node",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_file_past_a_limit_exits_2_naming_it(case, capsys, tmp_path):
    data, message = REFUSED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    for command in ("validate-config", "run"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        violations = [line for line in lines if line.startswith("violation:")]
        assert len(violations) == 1 and message in violations[0]


def test_a_window_past_the_largest_float_is_refused_by_sweep_and_one_below_it_runs(
    capsys, tmp_path
):
    refused, runs = tmp_path / "refused.json", tmp_path / "runs.json"
    refused.write_text(json.dumps({**_NOMINAL_DEMO8, "window_len": 10**400}))
    runs.write_text(json.dumps({**_NOMINAL_DEMO8, "window_len": 10**20}))
    out = tmp_path / "frontier.csv"
    command = ["sweep", str(refused), "--grid", "0.05", "--trials", "1", "--output", str(out)]
    assert main(command) == 2
    assert "violation: window_len times the 8 normal nodes" in capsys.readouterr().err
    assert main(["run", str(runs)]) == 0
    assert "outcome: horizon" in capsys.readouterr().out



# Files whose run once stopped with "overshot its firing threshold" (exit 3),
# or that were refused to keep it from doing so, when the clock moved to each
# tied event's own time. Now every event of a tie window happens at its
# earliest time, and each runs to the protocol's own answer.
_K7_BURST = {"graph": {"named": "complete", "n": 7}, "f": 1, "phases": [0.45, 0, 0, 0, 0, 0, 0],
             "frequencies": [1, 1, 1, 1, 1, 1, 1], "halt_on_detection": False, "horizon": 5.0,
             "monitor": "off"}
ONCE_OVERSHOT = {
    # Node 0 fires 0.9 * TIME_EPS after node 1 crosses its threshold, inside
    # one tie window, which carried node 1 9e-9 past it. Both now fire at
    # node 1's crossing, and the protocol faults on a node 10000 times as
    # fast as its peer.
    "frequency_past_one_tie_window": (
        {"graph": {"named": "complete", "n": 2}, "f": 0, "phases": [0.9998999999991, 0.0],
         "frequencies": [1.0, 10000.0], "normalize_phases": False,
         "normalize_frequencies": False, "horizon": 5.0, "monitor": "off"},
        3, "outcome: fault",
    ),
    # Burst pulses 9e-13 apart: once node 0 sat at its threshold, each one
    # tied with it and moved the clock on, carrying it past.
    "burst_within_one_tie_window": (
        {**_K7_BURST, "attackers": [{"node": 6, "type": "flooding", "burst_count": 5000,
                                     "burst_interval": 9e-13, "start_time": 0.5499999999999}]},
        0, "outcome: horizon",
    ),
    # The same pulses as one custom attacker's explicit schedule.
    "custom_pulses_within_one_tie_window": (
        {**_K7_BURST, "attackers": [{"node": 6, "type": "custom", "pulses": [
            [0.5499999999999 + k * 9e-13, 1.0] for k in range(5000)]}]},
        0, "outcome: horizon",
    ),
}


@pytest.mark.parametrize("case", sorted(ONCE_OVERSHOT))
def test_a_file_that_once_overshot_runs(case, capsys, tmp_path):
    data, code, outcome = ONCE_OVERSHOT[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["validate-config", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path)]) == code
    captured = capsys.readouterr()
    assert outcome in captured.out.splitlines()
    assert "overshot" not in captured.out + captured.err


# Forced past validation, each once exited 3 with a broken engine invariant
# instead of a run outcome. Each now ends in a protocol fault.
FORCED_ONCE_BROKEN = {
    # Node 1 runs 870 times as fast as its peers. The liveness budget, which
    # allowed about one round per unit of time, stopped the run at event 113.
    # It now scales with the fastest initial normal frequency.
    "frequency_past_the_liveness_budget": (
        {"graph": {"named": "complete", "n": 3}, "algorithm": "absolute", "f": 2,
         "phases": [3e-12, 0, 2e-12],
         "frequencies": [1.0055173926504193, 874.5291460322534, 1.0089490597039135],
         "horizon": 3, "halt_on_detection": False, "normalize_phases": False,
         "normalize_frequencies": False},
        ["events: 1734", "fault: cannot trim 1 from each end of 1 values"],
    ),
    # Node 3 starts 59 turns behind. The relative protocol reads its stamps as
    # phases in [0, 1), so its ratios raise its frequency to 2.5e15, far past
    # what the step rule checked at the start; the next advance carried it
    # past its threshold ("node 3 overshot its firing threshold").
    "update_past_the_step_rule": (
        {"graph": {"named": "complete", "n": 4}, "algorithm": "relative", "f": 0,
         "phases": [0.0, 0.0, 0.0, -59.00000000012], "frequencies": [1.0, 1.0, 1.0, 60.0],
         "normalize_phases": False, "normalize_frequencies": False,
         "horizon": 1.1666666666666667, "halt_on_detection": False, "monitor": "off"},
        ["events: 8", "fault: node 3 updated its frequency to 2533274790395919.5, past "
         "562949.828421312, the fastest the event loop can step"],
    ),
}


@pytest.mark.parametrize("case", sorted(FORCED_ONCE_BROKEN))
def test_a_forced_file_that_once_broke_an_invariant_ends_in_a_fault(case, capsys, tmp_path):
    data, lines = FORCED_ONCE_BROKEN[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--force", str(path)]) == 3
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert "outcome: fault" in out
    assert set(lines) <= set(out)
    assert "invariant violation" not in captured.err


# Two flooding attackers, each spaced 1.8e-12, the second 9e-13 after the
# first: no one script holds two pulses within TIME_EPS, but their merged
# stream does. Forced past validation, both start times once ended in "node
# 0 overshot its firing threshold" under both protocols.
@pytest.mark.parametrize("algorithm", ["absolute", "relative"])
@pytest.mark.parametrize("start", [0.999999999, 0.9999999995])
def test_pulses_merged_from_two_scripts_within_time_eps_run_to_detection(algorithm, start):
    burst = {"burst_count": 2500, "burst_interval": 1.8e-12}
    config = ScenarioConfig(
        graph=complete_digraph(7),
        algorithm=algorithm,
        f=2,
        phases=[0, 0.001, 0.002, 0.003, 0.004, 0, 0],
        frequencies=[1.0] * 7,
        attackers=[
            AttackerSpec(5, "flooding", {**burst, "start_time": start}),
            AttackerSpec(6, "flooding", {**burst, "start_time": start + 9e-13}),
        ],
        horizon=5.0,
        monitor="off",
    )
    assert run_scenario(config, validate=False).outcome == "detected"


def _thresholds(osc, start_target):
    """The thresholds a normal node has a candidate time for and has not
    passed by more than PHASE_SLACK: its fire, its update when armed, and
    its start pulse when due."""
    out = [1.0]
    if osc.fired and not osc.detected:
        out.append(0.5)
    if start_target is not None and not osc.start_emitted:
        out.append(start_target)
    return [g for g in out if osc.phase <= g + PHASE_SLACK]


@st.composite
def _tie_window_bursts(draw):
    """A complete digraph whose normal nodes first cross their firing
    threshold within a few TIME_EPS of one time T, some of them fast, and up
    to two attackers whose pulses land within a few TIME_EPS of T too."""
    n = draw(st.integers(3, 6), label="n")
    algorithm = draw(st.sampled_from(["absolute", "relative"]), label="algorithm")
    rate = st.sampled_from([1.0]) | st.floats(1.0, 1.001) | st.floats(1.0, 3e5)
    freqs = [draw(rate) for _ in range(n)]
    if algorithm == "absolute":
        at = draw(st.floats(0.5, 2.0) | st.floats(2.0, 50.0), label="T")
    else:
        # Within the fastest node's first period, so every phase starts in
        # [0, 1), where the relative protocol reads its stamps.
        at = draw(st.floats(0.1, 0.99), label="share of a period") / max(freqs)
    near = st.floats(-3.0, 3.0).map(lambda k: at + k * TIME_EPS)
    attackers = []
    for node in range(n - draw(st.integers(0, 2), label="attackers"), n):
        if draw(st.booleans(), label="flooding"):
            attackers.append(AttackerSpec(node, "flooding", {
                "burst_count": draw(st.integers(1, 40)),
                "burst_interval": draw(st.floats(0.1, 2.5)) * TIME_EPS,
                "start_time": max(0.0, draw(near)),
            }))
        else:
            # Claims inside the hull and no forged start pulse, so no update
            # raises the fastest frequency.
            times = draw(st.lists(near.map(lambda t: max(0.0, t)), min_size=1, max_size=12,
                                  unique=True))
            attackers.append(AttackerSpec(node, "custom", {"pulses": [[t, 1.0] for t in times]}))
    phases = [1.0 - w * (at + draw(st.floats(0.0, 3.0)) * TIME_EPS) for w in freqs]
    # Three rounds of the fastest node after T: the liveness budget counts
    # about one round per unit of time, whatever the frequencies.
    horizon = at + min(2.0, 3.0 / max(freqs))
    return ScenarioConfig(
        graph=complete_digraph(n), algorithm=algorithm, f=draw(st.integers(0, 1), label="f"),
        zeta=draw(st.sampled_from([0.1, 0.45])), phases=phases, frequencies=freqs,
        attackers=attackers, normalize_phases=False, normalize_frequencies=False,
        horizon=horizon, halt_on_detection=False, monitor="off",
    )


@settings(max_examples=150, deadline=None)
@given(config=_tie_window_bursts())
def test_tie_window_bursts_never_carry_a_phase_past_a_threshold(config):
    start_target = 1.0 - config.zeta if config.algorithm == "relative" else None
    advance = engine.advance_all

    def checked(world, dt):
        due = [(i, _thresholds(world.oscillators[i], start_target)) for i in world.normal_ids]
        advance(world, dt)
        for i, thresholds in due:
            for g in thresholds:
                assert world.oscillators[i].phase <= g + PHASE_SLACK

    try:
        built = config.build()
    except UnrunnableScenarioError:
        event("refused: too fast")
        return
    with mock.patch.object(engine, "advance_all", checked):
        outcome = run_built(*built)[0]
    event(outcome)


def test_an_integer_too_long_to_convert_exits_2(capsys, tmp_path):
    path = tmp_path / "long_integer.json"
    path.write_text('{"f": ' + "1" * 5000 + "}")
    for command in ("validate-config", "run"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert "violation: scenario file is not valid JSON" in captured.out + captured.err
