"""Scenario parsing, validation, serialization, and the command line."""

import dataclasses
import errno
import functools
import io
import json
import math
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pcosync import (
    AttackerSpec,
    ConfiguredAlpha,
    DirectedGraph,
    EqualWeights,
    OscillatorState,
    RandomInterval,
    RunResult,
    ScenarioConfig,
    ScenarioValidationError,
    WorldState,
    complete_digraph,
    demo_graph_8,
    directed_ring,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)
import pcosync.engine
from pcosync.cli import main
from pcosync.engine import TIME_EPS
from pcosync.errors import UnrunnableScenarioError
from pcosync.metrics import MONITOR_MODES, trace_header
from pcosync.msr import effective_alpha
from pcosync.runner import run_built
from pcosync.scenario import _KEYS

from oracles import former_attacker_build, streams

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
FIXTURES = (
    "nominal_sync",
    "stealthy_attack",
    "flooding_detection",
    "relative_equivalence",
    "frontier_sweep",
)


@pytest.mark.parametrize("stem", FIXTURES)
def test_shipped_scenarios_validate_cleanly(stem):
    config = load_scenario(SCENARIOS / f"{stem}.json")
    assert config.name == stem
    violations, info = config.validate()
    assert violations == []
    assert info  # at least the robustness and bound report lines


def test_unknown_keys_are_rejected():
    data = {"graph": {"named": "complete", "n": 3}, "turbo": True}
    with pytest.raises(ScenarioValidationError, match="turbo"):
        scenario_from_dict(data)


def test_graph_forms():
    by_file = scenario_from_dict(
        {"graph": {"file": "graphs/demo8.txt"}}, base_dir=SCENARIOS
    )
    assert by_file.graph == demo_graph_8()

    inline = scenario_from_dict({"graph": {"inline": [[1], [0]]}})
    assert inline.graph == complete_digraph(2)

    text = scenario_from_dict({"graph": {"text": "2\n0 <- 1\n1 <- 0\n"}})
    assert text.graph == complete_digraph(2)

    assert scenario_from_dict({"graph": {"named": "demo8"}}).graph == demo_graph_8()
    named_k = scenario_from_dict({"graph": {"named": "complete", "n": 3}})
    assert named_k.graph == complete_digraph(3)
    named_ring = scenario_from_dict({"graph": {"named": "ring", "n": 4}})
    assert named_ring.graph == directed_ring(4)

    with pytest.raises(ValueError, match="unknown named graph"):
        scenario_from_dict({"graph": {"named": "petersen"}})
    with pytest.raises(ValueError, match="graph must be"):
        scenario_from_dict({"graph": 5})


def test_random_initials_are_deterministic():
    base = ScenarioConfig(
        graph=complete_digraph(4),
        phases=RandomInterval(0.0, 0.4),
        frequencies=RandomInterval(1.0, 1.5),
        seed=7,
        normalize_phases=False,
        normalize_frequencies=False,
    )
    phases_a, freqs_a = base.prepare()[1:]
    phases_b, freqs_b = base.prepare()[1:]
    assert phases_a == phases_b and freqs_a == freqs_b
    assert all(0.0 <= p < 0.4 for p in phases_a)
    assert all(1.0 <= w < 1.5 for w in freqs_a)
    # The two draws come from independent streams of the scenario seed.
    assert phases_a != freqs_a

    other = dataclasses.replace(base, seed=8)
    assert other.prepare()[1] != phases_a

    # A dedicated interval seed decouples that draw from the scenario seed.
    pinned = dataclasses.replace(
        base, phases=RandomInterval(0.0, 0.4, seed=123)
    )
    pinned_phases = pinned.prepare()[1]
    assert dataclasses.replace(pinned, seed=9).prepare()[1] == pinned_phases
    assert dataclasses.replace(pinned, seed=9).prepare()[2] != freqs_a


def test_normalization_pins_tail_and_floor():
    config = ScenarioConfig(
        graph=demo_graph_8(),
        f=1,
        phases=RandomInterval(0.1, 0.45),
        frequencies=RandomInterval(1.2, 1.9),
        attackers=[AttackerSpec(node=4, kind="silent")],
        seed=3,
    )
    phases, freqs = config.prepare()[1:]
    normal = config.normal_ids
    assert min(phases[i] for i in normal) == 0.0
    assert min(freqs[i] for i in normal) == 1.0
    assert max(freqs[i] for i in normal) < 1.7 + 1e-12


@pytest.mark.parametrize("weights", [EqualWeights(), ConfiguredAlpha(0.125)])
def test_prepared_worlds_are_the_world_a_direct_build_gives(weights):
    # The prepared scenario checks the partition and derives the world's
    # tables once; each world it makes must equal one built and checked
    # directly, and share no state a run changes with the worlds before it.
    config = ScenarioConfig(
        graph=demo_graph_8(),
        f=1,
        weights=weights,
        phases=RandomInterval(0.1, 0.45),
        frequencies=RandomInterval(1.2, 1.9),
        attackers=[AttackerSpec(node=4, kind="silent")],
        seed=3,
        horizon=5.0,
        monitor="off",
    )
    prepared, phases, freqs = config.prepare()
    assert prepared.config is config
    d_max = max(len(config.graph.in_neighbors[i]) for i in config.normal_ids)
    assert prepared.alpha == effective_alpha(weights, d_max)

    def direct():
        return WorldState(config.graph, [OscillatorState(p, w) for p, w in zip(phases, freqs)],
                          config.faulty_ids)

    first = prepared.world(phases, freqs)
    assert vars(first) == vars(direct())
    run_built(prepared, first)
    assert first.event_count > 0
    second = prepared.world(phases, freqs)
    assert vars(second) == vars(direct()) != vars(first)
    assert not {id(osc) for osc in first.oscillators} & {id(osc) for osc in second.oscillators}


def test_unnormalized_slow_frequencies_are_flagged():
    config = ScenarioConfig(
        graph=complete_digraph(2),
        phases=[0.0, 0.1],
        frequencies=[1.2, 1.3],
        normalize_frequencies=False,
    )
    violations, _ = config.validate()
    assert any("slowest normal frequency" in v for v in violations)
    violations, _ = dataclasses.replace(config, frequencies=[0.9, 1.3]).validate()
    assert "node 0 initial frequency 0.9 below 1" in violations


def test_wide_initial_arc_is_flagged():
    config = ScenarioConfig(
        graph=complete_digraph(2),
        phases=[0.0, 0.5],
        frequencies=[1.0, 1.0],
        normalize_phases=False,
    )
    violations, _ = config.validate()
    assert any("half circle" in v for v in violations)
    violations, info = dataclasses.replace(config, phases=[0.1, 0.2]).validate()
    assert violations == []
    assert "phases not rotated to put the arc tail at 0 (min is 0.1)" in info


def test_crowded_attackers_break_locality():
    # Node 1 listens to both 0 and 2, one more misbehaving source than f.
    config = ScenarioConfig(
        graph=demo_graph_8(),
        f=1,
        phases=[0.0] * 8,
        frequencies=[1.0] * 8,
        attackers=[AttackerSpec(node=0, kind="silent"),
                   AttackerSpec(node=2, kind="silent")],
    )
    violations, _ = config.validate()
    assert any("misbehaving in-neighbors" in v for v in violations)


def test_insufficient_robustness_is_flagged():
    config = ScenarioConfig(
        graph=directed_ring(5),
        f=1,
        phases=[0.0, 0.05, 0.1, 0.15, 0.2],
        frequencies=[1.0] * 5,
    )
    violations, _ = config.validate()
    assert any("not 3-robust" in v for v in violations)


def test_oversize_graph_reports_robustness_unchecked():
    config = ScenarioConfig(
        graph=complete_digraph(15),
        phases=[i / 31 for i in range(15)],
        frequencies=[1.0] * 15,
    )
    violations, info = config.validate()
    assert violations == []
    assert any("robustness unchecked" in line for line in info)


def test_infeasible_weight_policy_is_flagged():
    config = ScenarioConfig(
        graph=complete_digraph(5),
        weights=ConfiguredAlpha(0.3),
        phases=[0.0, 0.1, 0.2, 0.3, 0.4],
        frequencies=[1.0] * 5,
    )
    violations, _ = config.validate()
    assert any("infeasible" in v for v in violations)


def test_dict_roundtrip_preserves_the_config():
    config = ScenarioConfig(
        graph=demo_graph_8(),
        name="roundtrip",
        algorithm="relative",
        f=1,
        weights=ConfiguredAlpha(0.2),
        zeta=0.15,
        phases=[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35],
        frequencies=RandomInterval(1.0, 1.4, seed=5),
        attackers=[AttackerSpec(node=4, kind="flooding",
                                options={"burst_count": 7})],
        horizon=45.0,
        seed=11,
        window_len=10,
        monitor="off",
    )
    back = scenario_from_dict(json.loads(json.dumps(config.to_dict())))
    assert back.graph == config.graph
    assert back.name == "roundtrip"
    assert back.algorithm == "relative"
    assert back.weights == ConfiguredAlpha(0.2)
    assert back.zeta == 0.15
    assert back.phases == config.phases
    assert back.frequencies == RandomInterval(1.0, 1.4, seed=5)
    assert back.attackers == config.attackers
    assert (back.horizon, back.seed, back.window_len) == (45.0, 11, 10)
    assert back.monitor == "off"


_REALS = st.floats(-1e3, 1e3)
_OFFSETS = st.lists(st.floats(0.0, 0.99), min_size=1, max_size=3)
_CLAIMS = st.one_of(st.sampled_from(["one_plus_abs_sin", "sawtooth", "constant:1.5"]),
                    st.floats(0.5, 2.0))
ATTACKER_OPTIONS = {
    "silent": st.just({}),
    "stealthy": st.fixed_dictionaries({}, optional={
        "offsets": _OFFSETS, "claim": _CLAIMS, "period": st.floats(1.0, 2.0),
        "start_offsets": _OFFSETS,
    }),
    "flooding": st.fixed_dictionaries({"burst_count": st.integers(1, 9)}, optional={
        "burst_interval": st.floats(0.001, 0.5), "start_time": st.floats(0.0, 10.0),
        "claim": _CLAIMS,
    }),
    "custom": st.fixed_dictionaries({}, optional={
        "pulses": st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.5, 2.0)).map(list),
                           max_size=4, unique_by=lambda pulse: pulse[0]),
        "start_pulses": st.lists(st.floats(0.0, 50.0), max_size=3),
    }),
}


@st.composite
def scenario_configs(draw):
    n = draw(st.integers(2, 6))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1).filter(lambda j, i=i: j != i))))
            for i in range(n)]

    def initials():
        return st.one_of(
            st.lists(_REALS, min_size=n, max_size=n),
            st.builds(RandomInterval, _REALS, _REALS, st.none() | st.integers(0, 2**32)),
        )

    attackers = [
        AttackerSpec(node, kind, draw(ATTACKER_OPTIONS[kind]))
        for node in sorted(draw(st.sets(st.integers(0, n - 1), max_size=2)))
        for kind in [draw(st.sampled_from(sorted(ATTACKER_OPTIONS)))]
    ]
    return ScenarioConfig(
        graph=DirectedGraph.from_lists(rows),
        algorithm=draw(st.sampled_from(["absolute", "relative"])),
        f=draw(st.integers(0, 3)),
        weights=draw(st.one_of(st.just(EqualWeights()), st.builds(ConfiguredAlpha, st.floats(0.01, 0.5)))),
        zeta=draw(st.floats(0.01, 0.49)),
        phases=draw(initials()),
        frequencies=draw(initials()),
        attackers=attackers,
        horizon=draw(st.floats(0.1, 1e3)),
        seed=draw(st.integers(0, 2**32)),
        normalize_phases=draw(st.booleans()),
        normalize_frequencies=draw(st.booleans()),
        window_len=draw(st.none() | st.integers(1, 40)),
        tol_phase=draw(st.floats(0.0, 1e-2)),
        tol_freq=draw(st.floats(0.0, 1e-2)),
        eager_detection=draw(st.booleans()),
        halt_on_detection=draw(st.booleans()),
        monitor=draw(st.sampled_from(MONITOR_MODES)),
        name=draw(st.text(max_size=8)),
    )


@settings(max_examples=150, deadline=None)
@given(config=scenario_configs())
def test_random_configs_survive_the_json_round_trip(config):
    assert scenario_from_dict(json.loads(json.dumps(config.to_dict()))) == config


def _emissions(script, horizon=60.0):
    """A script's counted pulse times, the claim at each, and its start
    pulse times, up to the horizon."""
    counted = streams(script.emission_times, horizon)
    claims = tuple(script.freq_claim(t) for t in counted)
    return counted, claims, streams(script.start_emission_times, horizon)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(ATTACKER_OPTIONS)))
def test_attacker_scripts_match_the_former_build(data, kind):
    spec = AttackerSpec(3, kind, data.draw(ATTACKER_OPTIONS[kind], label="options"))
    assert _emissions(spec.build()) == _emissions(former_attacker_build(spec))


# Each kind with no options but the required one, so every default applies.
@pytest.mark.parametrize("kind, options", [
    ("silent", {}), ("stealthy", {}), ("flooding", {"burst_count": 3}), ("custom", {}),
])
def test_defaulted_attacker_scripts_match_the_former_build(kind, options):
    spec = AttackerSpec(3, kind, options)
    assert _emissions(spec.build()) == _emissions(former_attacker_build(spec))


def test_load_scenario_names_unnamed_files_from_the_stem(tmp_path):
    path = tmp_path / "quiet_pair.json"
    path.write_text(json.dumps({
        "graph": {"named": "complete", "n": 2},
        "phases": [0.0, 0.1],
        "frequencies": [1.0, 1.0],
    }))
    assert load_scenario(path).name == "quiet_pair"


# -- command line -------------------------------------------------------------


def test_cli_validate_config(capsys, tmp_path):
    assert main(["validate-config", str(SCENARIOS / "nominal_sync.json")]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "info:" in out

    bad = tmp_path / "ring.json"
    bad.write_text(json.dumps({
        "graph": {"named": "ring", "n": 5},
        "f": 1,
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0] * 5,
    }))
    assert main(["validate-config", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "violation:" in out and "invalid:" in out

    assert main(["validate-config", str(tmp_path / "missing.json")]) == 2


def test_cli_check_robustness(capsys, tmp_path):
    demo = str(SCENARIOS / "graphs" / "demo8.txt")
    assert main(["check-robustness", demo]) == 0
    assert "max_robustness: 3" in capsys.readouterr().out

    assert main(["check-robustness", demo, "--r", "3"]) == 0
    assert "robust: yes" in capsys.readouterr().out

    assert main(["check-robustness", demo, "--r", "4"]) == 2
    assert "robust: no" in capsys.readouterr().out

    assert main(["check-robustness", str(tmp_path / "none.txt")]) == 2
    assert main(["check-robustness", demo, "--max-nodes", "4"]) == 2
    capsys.readouterr()
    assert main(["check-robustness", demo, "--r", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "violation: robustness level must be >= 1, got 0"
    ]


def test_cli_run_writes_summary_and_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main([
        "run", str(SCENARIOS / "nominal_sync.json"),
        "--trace", str(trace), "--summary", "-",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: converged" in out
    assert "monitor_violations: 0" in out
    assert trace.read_text().splitlines()[0] == trace_header(8)

    summary = tmp_path / "summary.txt"
    code = main([
        "run", str(SCENARIOS / "nominal_sync.json"), "--summary", str(summary),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert "outcome: converged" in summary.read_text()


def test_cli_run_refuses_a_summary_over_its_trace_before_the_run(capsys, tmp_path):
    (tmp_path / "sub").mkdir()
    trace = tmp_path / "same.out"
    # The same file by another spelling of its path.
    summary = tmp_path / "sub" / ".." / "same.out"
    with mock.patch("pcosync.cli.run_scenario") as run:
        code = main([
            "run", str(SCENARIOS / "nominal_sync.json"),
            "--trace", str(trace), "--summary", str(summary),
        ])
    assert code == 2
    assert not run.called and not trace.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"violation: cannot write the summary to {summary}: it is the trace file"
    ]


def test_cli_run_exit_codes(capsys, tmp_path):
    diverging = tmp_path / "diverging.json"
    diverging.write_text(json.dumps({
        "graph": {"named": "demo8"},
        "f": 1,
        "phases": {"random": {"low": 0.0, "high": 0.5}},
        "frequencies": {"random": {"low": 1.0, "high": 2.0}},
        "attackers": [
            {"node": 1, "type": "stealthy", "offsets": [0.35],
             "claim": "one_plus_abs_sin"},
            {"node": 4, "type": "stealthy", "offsets": [0.6],
             "claim": "sawtooth"},
        ],
        "horizon": 120.0,
        "seed": 0,
        "monitor": "strict",
    }))
    assert main(["run", str(diverging)]) == 3
    assert "invariant violation:" in capsys.readouterr().err

    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps({
        "graph": {"named": "complete", "n": 5},
        "f": 0,
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0] * 5,
        "attackers": [{"node": 4, "type": "silent"}],
        "horizon": 30.0,
        "monitor": "off",
    }))
    # A silent in-neighbor starves every round: invalid without --force.
    assert main(["run", str(starved)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["run", str(starved), "--force"]) == 3
    assert "outcome: fault" in capsys.readouterr().out


# Each output option: the command, its scenario, the extra arguments and
# what the output holds.
OUTPUTS = {
    "--summary": ("run", "nominal_sync", [], "the summary"),
    "--trace": ("run", "nominal_sync", [], "the trace"),
    "--output": ("sweep", "frontier_sweep",
                 ["--grid", "0.05", "--trials", "2", "--spread-cap", "0.2", "--tol", "0.1",
                  "--horizon", "20"], "the frontier"),
}


@pytest.mark.parametrize("option", OUTPUTS)
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_cli_unwritable_output_exits_2_before_the_run(option, where, capsys, tmp_path):
    command, stem, extra, what = OUTPUTS[option]
    path = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    with mock.patch("pcosync.cli.run_scenario") as run, \
            mock.patch("pcosync.cli.sweep_frontier") as sweep:
        code = main([command, str(SCENARIOS / f"{stem}.json"), *extra, option, str(path)])
    assert code == 2
    assert not run.called and not sweep.called
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"violation: cannot write {what} to {path}: not a file in an existing directory"
    ]


@pytest.mark.parametrize("option", OUTPUTS)
def test_cli_output_that_fails_to_write_exits_2(option, capsys, tmp_path):
    command, stem, extra, what = OUTPUTS[option]
    path = tmp_path / "out.txt"
    full = OSError(errno.ENOSPC, "No space left on device")
    with mock.patch("pcosync.runner.write_trace", side_effect=full), \
            mock.patch.object(Path, "write_text", side_effect=full):
        code = main([command, str(SCENARIOS / f"{stem}.json"), *extra, option, str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if not line.startswith("# arc")] == [
        f"violation: cannot write {what} to {path}: {full}"
    ]


@pytest.mark.parametrize("option", OUTPUTS)
def test_cli_refuses_to_write_over_its_scenario_file(option, capsys, tmp_path):
    command, stem, extra, what = OUTPUTS[option]
    (tmp_path / "sub").mkdir()
    shutil.copytree(SCENARIOS / "graphs", tmp_path / "graphs")  # the scenario's graph file
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes((SCENARIOS / f"{stem}.json").read_bytes())
    before = scenario.read_bytes()
    # The same file by another spelling of its path.
    path = tmp_path / "sub" / ".." / "scenario.json"
    with mock.patch("pcosync.cli.run_scenario") as run, \
            mock.patch("pcosync.cli.sweep_frontier") as sweep:
        code = main([command, str(scenario), *extra, option, str(path)])
    assert code == 2
    assert not run.called and not sweep.called
    assert scenario.read_bytes() == before
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"violation: cannot write {what} to {path}: it is the scenario file"
    ]


def test_cli_sweep_smoke(capsys, tmp_path):
    out_csv = tmp_path / "frontier.csv"
    code = main([
        "sweep", str(SCENARIOS / "frontier_sweep.json"),
        "--grid", "0.05", "--trials", "4", "--spread-cap", "0.2",
        "--tol", "0.06", "--horizon", "40", "--output", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "Delta0,delta0_max,success_rate"
    assert len(lines) == 2
    assert lines[1].startswith("0.05,")


def test_cli_sweep_exits_3_on_an_invariant_violation(capsys, monkeypatch):
    # A liveness budget of 16 events breaks the first trial that runs longer.
    monkeypatch.setattr(pcosync.engine, "event_budget",
                        functools.partial(pcosync.engine.event_budget, safety=0.0))
    code = main([
        "sweep", str(SCENARIOS / "frontier_sweep.json"),
        "--grid", "0.05", "--trials", "4", "--spread-cap", "0.2", "--tol", "0.06",
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "invariant violation: event 17 exceeded the liveness budget of 16"
    ]


def test_cli_sweep_prints_the_bytes_it_writes(capsys, tmp_path):
    out_csv = tmp_path / "frontier.csv"
    command = [
        "sweep", str(SCENARIOS / "frontier_sweep.json"),
        "--grid", "0.05,0.3", "--trials", "4", "--spread-cap", "0.2",
        "--tol", "0.06", "--horizon", "40",
    ]
    assert main(command + ["--output", str(out_csv)]) == 0
    assert capsys.readouterr().out == ""
    assert main(command) == 0
    assert capsys.readouterr().out.encode() == out_csv.read_bytes()


def test_cli_sweep_progress_reports_trials_and_trials_per_second(capsys):
    command = [
        "sweep", str(SCENARIOS / "frontier_sweep.json"),
        "--grid", "0.05,0.3", "--trials", "4", "--spread-cap", "0.2",
        "--tol", "0.06", "--horizon", "40",
    ]
    assert main(command) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line in lines:
        match = re.fullmatch(
            r"# arc [0-9.]+: spread [0-9.]{6} \(rate [0-9.]{4}\), ([0-9]+) trials, [0-9]+ trials/s",
            line,
        )
        assert match, line
        assert int(match[1]) > 0 and int(match[1]) % 4 == 0


@pytest.mark.parametrize("parallelism", ["0", "-3"])
def test_cli_sweep_refuses_parallelism_below_one(parallelism, capsys):
    code = main([
        "sweep", str(SCENARIOS / "frontier_sweep.json"), "--parallelism", parallelism,
        "--grid", "0.05", "--trials", "2",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"violation: parallelism must be at least 1, got {parallelism}"]


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--spread-cap", "inf", "spread cap must be finite and at least 0, got inf"),
        ("--spread-cap", "nan", "spread cap must be finite and at least 0, got nan"),
        ("--spread-cap", "-1", "spread cap must be finite and at least 0, got -1.0"),
        ("--tol", "nan", "bisection tolerance must be positive, got nan"),
        ("--tol", "0", "bisection tolerance must be positive, got 0.0"),
        ("--threshold", "nan", "success threshold must lie in [0, 1], got nan"),
        ("--threshold", "1.5", "success threshold must lie in [0, 1], got 1.5"),
        ("--threshold", "-0.1", "success threshold must lie in [0, 1], got -0.1"),
        ("--seed", "-1", "seed must be nonnegative, got -1"),
        ("--trials", "0", "need at least one trial, got 0"),
    ],
)
def test_cli_sweep_refuses_bad_numeric_options(option, value, message, capsys):
    # The option under test comes last, so it overrides the defaults here.
    code = main([
        "sweep", str(SCENARIOS / "frontier_sweep.json"), "--grid", "0.05", "--trials", "2",
        option, value,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"violation: {message}"]


@pytest.mark.parametrize("stem", ["nominal_sync", "stealthy_attack", "relative_equivalence"])
def test_validated_run_builds_one_world(stem, monkeypatch):
    build = ScenarioConfig.build
    calls = []

    def counting_build(config):
        calls.append(config)
        return build(config)

    monkeypatch.setattr(ScenarioConfig, "build", counting_build)
    config = load_scenario(SCENARIOS / f"{stem}.json")
    result = run_scenario(config)
    assert len(calls) == 1
    assert result.info == config.validate()[1]


_PAIR = {
    "graph": {"named": "complete", "n": 5},
    "f": 1,
    "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
    "frequencies": [1.0] * 5,
}
# Initial values for the three-node inline graphs below.
_K3 = {"phases": [0.0, 0.1, 0.2], "frequencies": [1.0] * 3}
MALFORMED = {
    "unknown_named_graph": ({"graph": {"named": "star"}}, "unknown named graph 'star'"),
    "no_graph": ({k: v for k, v in _PAIR.items() if k != "graph"}, "graph must be an object"),
    "attacker_without_node": ({**_PAIR, "attackers": [{"type": "silent"}]}, "missing key 'node'"),
    "flooding_without_burst_count": (
        {**_PAIR, "attackers": [{"node": 4, "type": "flooding"}]},
        "missing key 'burst_count'",
    ),
    "random_without_high": ({**_PAIR, "phases": {"random": {"low": 0.0}}}, "missing key 'high'"),
    "non_integer_f": ({**_PAIR, "f": "x"}, "f: expected an integer, got 'x'"),
    "fractional_f": ({**_PAIR, "f": 1.9}, "f: expected an integer, got 1.9"),
    "boolean_seed": ({**_PAIR, "seed": True}, "seed: expected an integer, got True"),
    "fractional_attacker_node": (
        {**_PAIR, "attackers": [{"node": 1.5, "type": "silent"}]},
        "attacker 0: expected an integer, got 1.5",
    ),
    "string_named_graph_n": (
        {**_PAIR, "graph": {"named": "complete", "n": "5"}}, "graph: expected an integer, got '5'"
    ),
    "string_window_len": ({**_PAIR, "window_len": "x"}, "window_len: expected an integer or null"),
    "fractional_window_len": ({**_PAIR, "window_len": 2.5}, "window_len: expected an integer or null"),
    "boolean_window_len": ({**_PAIR, "window_len": True}, "window_len: expected an integer or null"),
    "string_normalize_phases": (
        {**_PAIR, "normalize_phases": "false"}, "normalize_phases: expected true or false"
    ),
    "integer_normalize_frequencies": (
        {**_PAIR, "normalize_frequencies": 0}, "normalize_frequencies: expected true or false"
    ),
    "string_eager_detection": (
        {**_PAIR, "eager_detection": "true"}, "eager_detection: expected true or false"
    ),
    "string_halt_on_detection": (
        {**_PAIR, "halt_on_detection": "false"}, "halt_on_detection: expected true or false"
    ),
    "boolean_horizon": ({**_PAIR, "horizon": True}, "horizon: expected a number, got True"),
    "string_zeta": ({**_PAIR, "zeta": "0.1"}, "zeta: expected a number, got '0.1'"),
    "string_phases": (
        {**_PAIR, "phases": "00000"}, "phases: expected a list or {'random': {...}}, got '00000'"
    ),
    "string_frequency": (
        {**_PAIR, "frequencies": [1.0, "1.0", 1.0, 1.0, 1.0]},
        "frequencies: expected a number, got '1.0'",
    ),
    "string_random_low": (
        {**_PAIR, "phases": {"random": {"low": "1", "high": 2.0}}},
        "phases: expected a number, got '1'",
    ),
    "boolean_random_high": (
        {**_PAIR, "frequencies": {"random": {"low": 1, "high": True}}},
        "frequencies: expected a number, got True",
    ),
    "string_alpha": (
        {**_PAIR, "weights": {"policy": "alpha", "alpha": "0.1"}},
        "weights: expected a number, got '0.1'",
    ),
    "fractional_inline_entry": (
        {**_K3, "graph": {"inline": [[1.9, 2], [0, 2], [0, 1]]}}, "graph: expected an integer, got 1.9"
    ),
    "string_inline_entry": (
        {**_K3, "graph": {"inline": [[1, 2], [0, 2], ["0", 1]]}}, "graph: expected an integer, got '0'"
    ),
    "boolean_inline_entry": (
        {**_K3, "graph": {"inline": [[1, 2], [0, 2], [0, True]]}},
        "graph: expected an integer, got True",
    ),
    "nan_pulse_time": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "pulses": [[math.nan, 1.0]]}]},
        "attacker 0: pulse times must be finite and nonnegative, got nan",
    ),
    "infinite_pulse_time": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "pulses": [[math.inf, 1.0]]}]},
        "attacker 0: pulse times must be finite and nonnegative, got inf",
    ),
    "negative_infinite_start_pulse": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "start_pulses": [-math.inf]}]},
        "attacker 0: pulse times must be finite and nonnegative, got -inf",
    ),
    "infinite_start_pulse": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "start_pulses": [math.inf]}]},
        "attacker 0: pulse times must be finite and nonnegative, got inf",
    ),
    "nan_start_pulse": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "start_pulses": [0.5, math.nan]}]},
        "attacker 0: pulse times must be finite and nonnegative, got nan",
    ),
    "nan_burst_start": (
        {**_PAIR, "attackers": [{"node": 4, "type": "flooding", "burst_count": 2,
                                 "start_time": math.nan}]},
        "attacker 0: pulse times must be finite and nonnegative, got nan",
    ),
    "integer_name": ({**_PAIR, "name": 5}, "name: expected a string, got 5"),
    "unknown_weight_policy": (
        {**_PAIR, "weights": {"policy": "median"}}, "weights: unknown weight policy 'median'"
    ),
    "unknown_attacker_type": (
        {**_PAIR, "attackers": [{"node": 4, "type": "byzantine"}]},
        "attacker 0: unknown attacker kind 'byzantine'",
    ),
    "misspelled_stealthy_option": (
        {**_PAIR, "attackers": [{"node": 4, "type": "stealthy", "ofsets": [0.35]}]},
        "attacker 0: unknown stealthy attacker option 'ofsets'",
    ),
    "unknown_flooding_option": (
        {**_PAIR, "attackers": [{"node": 4, "type": "flooding", "burst_count": 3, "rate": 2}]},
        "attacker 0: unknown flooding attacker option 'rate'",
    ),
    "named_demo8_with_n": (
        {**_PAIR, "graph": {"named": "demo8", "n": 5}}, "graph: unknown graph key 'n'"
    ),
    "misspelled_random_seed": (
        {**_PAIR, "phases": {"random": {"low": 0.0, "high": 0.5, "sede": 3}}},
        "phases: unknown random key 'sede'",
    ),
    "misspelled_weights_alpha": (
        {**_PAIR, "weights": {"policy": "alpha", "alpha": 0.2, "alfa": 0.1}},
        "weights: unknown alpha weights key 'alfa'",
    ),
    "graph_with_two_forms": (
        {**_K3, "graph": {"inline": [[1, 2], [0, 2], [0, 1]], "file": "graphs/demo8.txt"}},
        "graph: a graph takes one form, got 'file' and 'inline'",
    ),
    "boolean_burst_count": (
        {**_PAIR, "attackers": [{"node": 4, "type": "flooding", "burst_count": True}]},
        "attacker 0 option 'burst_count': expected an integer, got True",
    ),
    "string_stealthy_offset": (
        {**_PAIR, "attackers": [{"node": 4, "type": "stealthy", "offsets": ["0.35"]}]},
        "attacker 0 option 'offsets': expected a number, got '0.35'",
    ),
    "boolean_claim": (
        {**_PAIR, "attackers": [{"node": 4, "type": "stealthy", "claim": True}]},
        "attacker 0 option 'claim': expected a claim name or a number, got True",
    ),
    "custom_pulse_without_claim": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "pulses": [[1.0]]}]},
        "attacker 0 option 'pulses': expected a [time, claim] pair, got [1.0]",
    ),
    # A non-finite claim would reach the receivers' trimmed averages.
    "nan_custom_claim": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "pulses": [[1.0, math.nan]]}]},
        "attacker 0: frequency claim must be finite, got nan",
    ),
    "infinite_custom_claim": (
        {**_PAIR, "attackers": [{"node": 4, "type": "custom", "pulses": [[1.0, math.inf]]}]},
        "attacker 0: frequency claim must be finite, got inf",
    ),
    "nan_constant_claim": (
        {**_PAIR, "attackers": [{"node": 4, "type": "flooding", "burst_count": 2,
                                 "claim": "constant:nan"}]},
        "attacker 0: frequency claim must be finite, got nan",
    ),
    "infinite_constant_claim": (
        {**_PAIR, "attackers": [{"node": 4, "type": "stealthy", "claim": "constant:inf"}]},
        "attacker 0: frequency claim must be finite, got inf",
    ),
    "negative_infinite_number_claim": (
        {**_PAIR, "attackers": [{"node": 4, "type": "stealthy", "claim": -math.inf}]},
        "attacker 0: frequency claim must be finite, got -inf",
    ),
}
# The JSON types each scenario key accepts. A value of any other type is
# refused at load with one violation line that starts with the key.
JSON_TYPES = {
    "name": {str}, "algorithm": {str}, "monitor": {str},
    "graph": {dict}, "weights": {dict}, "attackers": {list},
    "phases": {list, dict}, "frequencies": {list, dict},
    "f": {int}, "seed": {int}, "window_len": {int, type(None)},
    "zeta": {int, float}, "horizon": {int, float}, "tol_phase": {int, float},
    "tol_freq": {int, float},
    "normalize_phases": {bool}, "normalize_frequencies": {bool},
    "eager_detection": {bool}, "halt_on_detection": {bool},
}
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(-2.0, 2.0),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


def test_every_scenario_key_has_its_json_types():
    assert set(JSON_TYPES) == set(_KEYS)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(JSON_TYPES)), value=JSON_VALUES)
def test_a_value_of_the_wrong_json_type_exits_2_naming_its_key(key, value):
    assume(type(value) not in JSON_TYPES[key])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wrong_type.json"
        path.write_text(json.dumps({**_PAIR, key: value}))
        for command in ("validate-config", "run"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert main([command, str(path)]) == 2
            lines = (out.getvalue() + err.getvalue()).splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"violation: {key}")


# Well-typed but out of range: validation reports the one violation, then
# validate-config adds its closing line; run adds none, since forcing the
# run would not help.
OUT_OF_RANGE = {
    "zero_window_len": ({**_PAIR, "window_len": 0}, "window_len must be at least 1, got 0"),
    "negative_window_len": ({**_PAIR, "window_len": -3}, "window_len must be at least 1, got -3"),
    "nan_tol_phase": (
        {**_PAIR, "tol_phase": math.nan}, "tol_phase must be finite and nonnegative, got nan"
    ),
    "negative_tol_freq": (
        {**_PAIR, "tol_freq": -1e-6}, "tol_freq must be finite and nonnegative, got -1e-06"
    ),
}
CLOSING_LINES = {
    "validate-config": ["invalid: 1 violation(s)"],
    "run": [],
}


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(OUT_OF_RANGE))
def test_cli_malformed_scenario_exits_2_with_one_line(case, command, capsys, tmp_path):
    data, message = MALFORMED.get(case) or OUT_OF_RANGE[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    if case in OUT_OF_RANGE:
        assert lines[1:] == CLOSING_LINES[command]
        lines = lines[:1]
    assert len(lines) == 1
    assert lines[0].startswith("violation: ") and message in lines[0]


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_cli_too_deeply_nested_file_exits_2_with_one_line(command, capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert lines == [f"violation: scenario file is nested too deeply to parse: {path}"]


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize("unreadable", ["directory", "non_utf8"])
def test_cli_unreadable_scenario_file_exits_2_with_one_line(command, unreadable, capsys, tmp_path):
    # A path that is a directory raises an OSError on reading, and bytes
    # that are not UTF-8 a UnicodeDecodeError; both are one violation.
    path = tmp_path / "scenario.json"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"violation: cannot read scenario file {path}: ")


@pytest.mark.parametrize("command", ["validate-config", "run"])
@pytest.mark.parametrize("text, key", [
    # Top level: without the check, the last f (7) was kept.
    ('{"graph": {"named": "complete", "n": 5}, "f": 1, "f": 7}', "f"),
    # Nested: without the check, this attacker was node 4.
    ('{"graph": {"named": "complete", "n": 5}, "f": 1,'
     ' "attackers": [{"node": 1, "type": "silent", "node": 4}]}', "node"),
])
def test_cli_repeated_key_exits_2_with_one_line(command, text, key, capsys, tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert lines == [f"violation: scenario file is not valid JSON: duplicate key {key!r}"]


def test_attacker_specs_from_python_take_numpy_values():
    # JSON options are exact-typed at load; Python callers may pass numpy.
    flooding = AttackerSpec(4, "flooding", {"burst_count": np.int64(3), "start_time": np.float64(1.5)})
    assert streams(flooding.build().emission_times, 10.0) == (1.5, 1.52, 1.54)
    stealthy = AttackerSpec(4, "stealthy", {"offsets": np.array([0.25]), "claim": np.float64(1.5)})
    assert streams(stealthy.build().emission_times, 1.0) == (0.25,)


# Values no run can use: refused with exit 2 and only violation lines, even
# under --force, which skips the guarantee conditions and nothing else.
UNRUNNABLE = {
    "bogus_algorithm": ({"algorithm": "bogus"}, "algorithm must be one of"),
    "infinite_horizon": ({"horizon": math.inf}, "horizon must be finite and positive, got inf"),
    "negative_horizon": ({"horizon": -1.0}, "horizon must be finite and positive, got -1.0"),
    "nan_frequency": (
        {"frequencies": [1.0, math.nan, 1.0, 1.0, 1.0]},
        "node 1 initial frequency must be finite and positive, got nan",
    ),
    "zero_frequency": (
        {"frequencies": [0.0] * 5, "normalize_frequencies": False},
        "node 0 initial frequency must be finite and positive, got 0.0",
    ),
    "all_attackers": (
        {"attackers": [{"node": i, "type": "silent"} for i in range(5)]},
        "every node is an attacker",
    ),
    "infeasible_alpha": (
        {"weights": {"policy": "alpha", "alpha": 0.3}},
        "neighbor weight 0.3 is infeasible at in-degree 4",
    ),
    "nan_alpha": (
        {"weights": {"policy": "alpha", "alpha": math.nan}},
        "neighbor weight nan is infeasible at in-degree 4",
    ),
    "loud_monitor": ({"monitor": "loud"}, "monitor must be off/warn/strict, got 'loud'"),
    "negative_f": ({"f": -1}, "fault bound must be nonnegative, got -1"),
    "half_cycle_zeta": ({"zeta": 0.5}, "start-pulse offset must lie in (0, 0.5), got 0.5"),
    "negative_draw_seed": (
        {"phases": {"random": {"low": 0.0, "high": 0.2}}, "seed": -1},
        "phases draw seed must be nonnegative, got -1",
    ),
    "attacker_node_9": (
        {"attackers": [{"node": 9, "type": "silent"}]}, "attacker node 9 outside 0..4"
    ),
    "one_node_graph": (
        {"graph": {"inline": [[]]}, "f": 0, "phases": [0.0], "frequencies": [1.0]},
        "the graph needs at least two nodes, got 1",
    ),
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_cli_unrunnable_scenario_exits_2_even_when_forced(case, capsys, tmp_path):
    overrides, message = UNRUNNABLE[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps({**_PAIR, **overrides}))

    assert main(["validate-config", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("invalid: ")
    assert any(line.startswith("violation: ") and message in line for line in lines)

    # Forced or not, run lists the violations and gives no --force advice.
    for forced in ([], ["--force"]):
        assert main(["run", str(path), *forced]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and lines
        assert all(line.startswith("violation: ") for line in lines)
        assert any(message in line for line in lines)


@pytest.mark.parametrize("start_pulses", [False, True])
@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_the_gate_refuses_non_finite_pulse_times_from_python(time, start_pulses):
    # Python callers skip the JSON tier; the gate every run passes refuses them.
    option = {"start_pulses": [time]} if start_pulses else {"pulses": [(time, 1.0)]}
    config = dataclasses.replace(
        scenario_from_dict(_PAIR), attackers=[AttackerSpec(4, "custom", option)]
    )
    with pytest.raises(UnrunnableScenarioError) as caught:
        config.build()
    assert caught.value.violations == [
        f"attacker 4: pulse times must be finite and nonnegative, got {time}"
    ]


# Options a Python caller can pass that break inside the script factory
# rather than in its own checks; the JSON tier refuses each before the gate.
MALFORMED_PYTHON_ATTACKERS = {
    "flooding_without_burst_count": (("flooding", {}), "missing key 'burst_count'"),
    "stealthy_scalar_offsets": (("stealthy", {"offsets": 5}), "'int' object is not iterable"),
    "custom_bare_pulse_time": (
        ("custom", {"pulses": [1.0]}), "cannot unpack non-iterable float object"
    ),
    "stealthy_null_claim": (
        ("stealthy", {"claim": None}), "'NoneType' object has no attribute 'startswith'"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PYTHON_ATTACKERS))
def test_the_gate_reports_malformed_attacker_options_from_python(case):
    (kind, options), message = MALFORMED_PYTHON_ATTACKERS[case]
    config = dataclasses.replace(
        scenario_from_dict(_PAIR), attackers=[AttackerSpec(4, kind, options)]
    )
    expected = [f"attacker 4: {message}"]
    with pytest.raises(UnrunnableScenarioError) as caught:
        config.build()
    assert caught.value.violations == expected
    assert config.validate() == (expected, [])
    with pytest.raises(UnrunnableScenarioError):
        run_scenario(config, force=True)


# The NaN or infinite initial value is the one named: normalizing first
# would spread it to every node.
NON_FINITE_INITIALS = {
    "one_normal_node": (
        {"graph": {"named": "complete", "n": 3}, "phases": [math.nan, 0.1, 0.2],
         "frequencies": [1.0] * 3,
         "attackers": [{"node": 1, "type": "silent"}, {"node": 2, "type": "silent"}]},
        "node 0 initial phase must be finite, got nan",
    ),
    "five_normal_nodes": (
        {"phases": [0.0, math.nan, 0.1, 0.15, 0.2]},
        "node 1 initial phase must be finite, got nan",
    ),
    "infinite_phase": (
        {"phases": [-math.inf, 0.05, 0.1, 0.15, 0.2]},
        "node 0 initial phase must be finite, got -inf",
    ),
    "first_frequency": (
        {"frequencies": [math.nan, 1.0, 1.0, 1.0, 1.0]},
        "node 0 initial frequency must be finite and positive, got nan",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INITIALS))
def test_a_non_finite_initial_value_names_only_its_node(case, capsys, tmp_path):
    overrides, message = NON_FINITE_INITIALS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps({**_PAIR, **overrides}))
    assert main(["validate-config", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"violation: {message}", "invalid: 1 violation(s)"
    ]
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"violation: {message}"]


NEGATIVE_HORIZON = ({}, ["--horizon", "-1"], "horizon must be finite and positive, got -1.0")
ZERO_WINDOW = ({"window_len": 0}, [], "window_len must be at least 1, got 0")
# Spread caps whose first trial draws a frequency too fast to simulate: past
# the clock's resolution, and past what the clock's rounding may carry.
SPREAD_1E300 = ({}, ["--spread-cap", "1e300"], (
    "normal frequency 8.558969105758093e+299 is too fast to simulate: a phase step of 0.5 "
    "takes 5.8418250354896394e-301, not above 1.007105427357601e-12 (TIME_EPS plus the "
    "clock's resolution at the horizon)"
))
SPREAD_1E10 = ({}, ["--spread-cap", "1e10"], (
    "normal frequency 8558969106.758094 is too fast to simulate: the clock's rounding of "
    "5.684341886080802e-14 can carry a node 0.00048652106595216616 past a threshold, more "
    "than PHASE_SLACK (1e-09) less rounding"
))


@pytest.mark.parametrize(
    "command, case",
    [
        (["run", "--force"], NEGATIVE_HORIZON),
        (["sweep", "--parallelism", "1"], NEGATIVE_HORIZON),
        (["sweep", "--parallelism", "2"], NEGATIVE_HORIZON),
        (["sweep", "--parallelism", "1"], ZERO_WINDOW),
        (["sweep", "--parallelism", "2"], ZERO_WINDOW),
        (["sweep", "--parallelism", "1"], SPREAD_1E300),
        (["sweep", "--parallelism", "2"], SPREAD_1E300),
        (["sweep", "--parallelism", "1"], SPREAD_1E10),
        (["sweep", "--parallelism", "2"], SPREAD_1E10),
    ],
    ids=["run-force-horizon", "sweep-p1-horizon", "sweep-p2-horizon", "sweep-p1-window",
         "sweep-p2-window", "sweep-p1-spread-1e300", "sweep-p2-spread-1e300",
         "sweep-p1-spread-1e10", "sweep-p2-spread-1e10"],
)
def test_cli_unrunnable_overrides_and_sweep_trials_exit_2(command, case, capsys, tmp_path):
    overrides, options, message = case
    path = tmp_path / "base.json"
    path.write_text(json.dumps({**_PAIR, **overrides}))
    if command[0] == "sweep":
        options = [*options, "--grid", "0.05", "--trials", "2"]
    assert main([command[0], str(path), *command[1:], *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"violation: {message}"]


# -- one check of initial values, for a run and for a sweep trial -------------


def _refusal(make) -> list[str] | None:
    """The violations ``make()`` raises, or None when it returns."""
    try:
        make()
    except UnrunnableScenarioError as exc:
        return exc.violations
    return None


# Initial values around each edge of the check: not finite, not positive,
# and each side of the step rule's two clauses: the clock rounding's, near
# 1.1e6 at horizon 0.5, 1.8e4 at 60 and 69 at 1e4, and the clock
# resolution's, near 5e11 for a phase step of 0.5 and near 100 (36 at 1e4)
# for a step of zeta = 1e-10.
EDGE_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0]),
    st.floats(),
    st.floats(0.0, 1.0),
    st.floats(20.0, 200.0),
    st.floats(1e4, 2e6),
    st.floats(1e11, 1e12),
)


def _check_the_frequency_limit(algorithm, zeta, horizon):
    # The step rule as README states it: a phase step over the frequency
    # above TIME_EPS plus one ulp of the horizon, and the frequency times
    # four ulps of twice the padded horizon at most PHASE_SLACK less 2**-52.
    gap = zeta if algorithm == "relative" else 0.5

    def accepted(omega):
        return (gap / omega > TIME_EPS + math.ulp(horizon)
                and omega * 4 * math.ulp(2 * (horizon + 2 * TIME_EPS)) <= 1e-9 - 2**-52)

    config = ScenarioConfig(graph=complete_digraph(3), algorithm=algorithm, zeta=zeta,
                            horizon=horizon, phases=[0.0] * 3, frequencies=[1.0] * 3,
                            normalize_phases=False, normalize_frequencies=False)
    prepared = config.prepare()[0]
    limit = prepared.protocol.omega_limit
    above = math.nextafter(limit, math.inf)
    assert limit == 0.0 or accepted(limit)
    assert not accepted(above)
    if limit > 0.0:
        prepared.world([0.0] * 3, [limit] * 3)
    with pytest.raises(UnrunnableScenarioError, match="too fast to simulate"):
        prepared.world([0.0] * 3, [above] * 3)


@pytest.mark.parametrize("algorithm,zeta", [("absolute", 0.1), ("relative", 0.1),
                                            ("relative", 1e-10)])
@pytest.mark.parametrize("horizon", [0.5, 5.0, 60.0, 1e4, 1e300, 1.7e308])
def test_the_protocol_frequency_limit_is_the_fastest_the_step_rule_accepts(
        algorithm, zeta, horizon):
    """The limit is accepted and the next float up refused, at fixed
    horizons and offsets; the test below draws them."""
    _check_the_frequency_limit(algorithm, zeta, horizon)


@settings(deadline=None)
@given(
    algorithm=st.sampled_from(["absolute", "relative"]),
    zeta=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    horizon=st.floats(math.log(1e-6), math.log(1.7e308)).map(math.exp),
)
@example(algorithm="relative", zeta=8.195076984629253e-06, horizon=0.0033340389720211295)
@example(algorithm="relative", zeta=0.00019048234948569444, horizon=0.0014774411761548601)
def test_the_protocol_frequency_limit_holds_at_drawn_horizons_and_offsets(
        algorithm, zeta, horizon):
    """As above, at horizons drawn log-uniform from 1e-6 up to 1.7e308 and
    start-pulse offsets drawn from (0, 0.5). On the two examples, both
    found by such draws, ``PreparedScenario``'s first guess (the smaller
    clause bound) lands one ulp above the limit, so its downward
    ``nextafter`` step runs, as it does at zeta = 1e-10 above. Its upward
    step, for a first guess below the limit, never ran in 320 000 drawn
    configs, and no test reaches it; it stays as the guard the limit's
    definition needs."""
    _check_the_frequency_limit(algorithm, zeta, horizon)


@settings(max_examples=300, deadline=None)
@given(
    algorithm=st.sampled_from(["absolute", "relative"]),
    zeta=st.sampled_from([0.1, 0.45, 1e-10]),
    horizon=st.sampled_from([0.5, 60.0, 1e4]),
    attacked=st.booleans(),
    phases=st.lists(EDGE_VALUES, min_size=3, max_size=3),
    freqs=st.lists(EDGE_VALUES, min_size=3, max_size=3),
)
def test_a_trial_world_refuses_what_a_run_refuses(algorithm, zeta, horizon, attacked, phases,
                                                   freqs):
    config = ScenarioConfig(
        graph=complete_digraph(3),
        algorithm=algorithm,
        zeta=zeta,
        horizon=horizon,
        attackers=[AttackerSpec(2, "silent")] if attacked else [],
        phases=phases,
        frequencies=freqs,
        normalize_phases=False,
        normalize_frequencies=False,
        monitor="off",
    )
    refused = _refusal(config.build)
    # A sweep prepares its base on placeholder values and makes each trial's
    # world from its draws.
    prepared = dataclasses.replace(config, phases=[0.0] * 3, frequencies=[1.0] * 3).build()[0]
    event("accepted" if refused is None else "rounding" if "rounding" in refused[0]
          else "phase step" if "phase step" in refused[0] else "initial value")
    assert _refusal(lambda: prepared.world(phases, freqs)) == refused


@settings(max_examples=300, deadline=None)
@given(
    algorithm=st.sampled_from(["absolute", "relative"]),
    fast=st.one_of(st.floats(0.5, 1100.0), st.floats(2.0, 12.0).map(lambda x: 10.0 ** x)),
    lag=st.floats(0.0, 1.0),
    horizon=st.sampled_from([None, 5.0, 60.0, 1e4]),
    periods=st.floats(1.5, 4.0),
    share=st.one_of(st.none(), st.floats(0.1, 0.9)),
)
def test_a_frequency_the_check_accepts_survives_a_two_node_tie(algorithm, fast, lag, horizon,
                                                                periods, share):
    # None: a few of node 1's periods, where the clock rounds finest.
    horizon = periods / fast if horizon is None else horizon
    # The slow node 0 fires ``lag`` of TIME_EPS after the fast node 1
    # crosses its threshold, inside its tie window and first in tie order,
    # so node 0 fires at node 1's crossing, and the clock must not pass it
    # before node 1 fires. The tie
    # comes at node 1's first crossing from phase 0, or, from negative
    # phases, at a share of the horizon, where the clock rounds coarser. The
    # second is left to the absolute protocol: the relative one estimates
    # frequency ratios from phases it reads as lying in [0, 1).
    late = share is not None and algorithm == "absolute"
    at = share * horizon if late else 1.0 / fast
    config = ScenarioConfig(
        graph=complete_digraph(2),
        algorithm=algorithm,
        phases=[1.0 - (at + lag * TIME_EPS), 1.0 - fast * at],
        frequencies=[1.0, fast],
        normalize_phases=False,
        normalize_frequencies=False,
        horizon=horizon,
        monitor="off",
    )
    try:
        built = config.build()
    except UnrunnableScenarioError as exc:
        assert "too fast to simulate" in exc.violations[0]
        event("refused")
        return
    event("accepted")
    run_built(*built)  # raises InvariantViolation on an overshoot


# Nodes 0 and 1 fire 0.9 and 1.8 TIME_EPS after node 2 crosses its
# threshold, each before node 2 in tie order. When the clock moved to each
# event's own time, they carried node 2 past its threshold twice. Now nodes
# 0 and 2 act at node 2's crossing and node 1 at its own time, and the
# protocol faults on a node 900 times as fast as its peers.
def test_a_frequency_the_check_accepts_survives_a_three_node_tie_chain():
    config = ScenarioConfig(
        graph=complete_digraph(3),
        f=0,
        phases=[0.9988888888879, 0.998888888887, 0.0],
        frequencies=[1.0, 1.0, 900.0],
        normalize_phases=False,
        normalize_frequencies=False,
        horizon=5.0,
        monitor="off",
    )
    built = config.build()
    assert config.validate(built)[0] == []
    outcome, _, message = run_built(*built)
    assert (outcome, built[1].event_count) == ("fault", 5)
    assert message.startswith("node 2 heard only 0 of 2 in-neighbor pulses in a round")


# -- the run-ability gate, over legal and illegal scalar values ---------------


# Per scalar field: values the gate must accept and values it must refuse.
LEGAL = {
    "algorithm": st.sampled_from(["absolute", "relative"]),
    "f": st.integers(0, 3),
    "zeta": st.floats(0.01, 0.49),
    "horizon": st.floats(0.1, 3.0),
    # "strict" is left out: it raises InvariantViolation by design.
    "monitor": st.sampled_from(["off", "warn"]),
    "window_len": st.one_of(st.none(), st.integers(1, 12)),
    "tol_phase": st.floats(0.0, 1e-3),
    "tol_freq": st.floats(0.0, 1e-3),
    "attackers": st.lists(st.integers(0, 4), max_size=3, unique=True),
}
ILLEGAL = {
    "algorithm": st.sampled_from(["bogus", ""]),
    "f": st.integers(-3, -1),
    "zeta": st.sampled_from([0.0, 0.5, -0.2, math.nan, math.inf]),
    "horizon": st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]),
    "monitor": st.sampled_from(["loud", ""]),
    "window_len": st.integers(-3, 0),
    "tol_phase": st.sampled_from([-1e-6, math.nan, math.inf, -math.inf]),
    "tol_freq": st.sampled_from([-1e-6, math.nan, math.inf, -math.inf]),
    "attackers": st.sampled_from([[9], [-1], [2, 2], [0, 1, 2, 3, 4]]),
}


@settings(max_examples=120, deadline=None)
@given(data=st.data(), broken=st.sets(st.sampled_from(sorted(LEGAL)), max_size=3))
def test_forced_runs_either_run_or_refuse_with_the_gate(data, broken):
    values = {key: data.draw((ILLEGAL if key in broken else LEGAL)[key], label=key)
              for key in sorted(LEGAL)}
    attackers = values.pop("attackers")
    config = ScenarioConfig(
        graph=complete_digraph(5),
        phases=[0.0, 0.05, 0.1, 0.15, 0.2],
        frequencies=[1.0, 1.1, 1.2, 1.0, 1.3],
        attackers=[AttackerSpec(node=i, kind="silent") for i in attackers],
        **values,
    )
    try:
        config.build()
    except ScenarioValidationError as exc:
        refused = exc.violations
    else:
        refused = []
    violations, _ = config.validate()
    if refused:
        assert violations == refused
    else:
        assert not broken
    try:
        result = run_scenario(config, force=True)
    except ScenarioValidationError as exc:
        assert refused and exc.violations == refused
    else:
        assert not refused and isinstance(result, RunResult)
