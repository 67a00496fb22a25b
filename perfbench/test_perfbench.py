"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench

They are not part of the package test suite (``testpaths`` is ``tests``).
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pcosync import scenario, sweep  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    make = workloads.WORKLOADS[name]
    first = repr(vars(make(ROOT, 7)))
    assert repr(vars(make(ROOT, 7))) == first
    assert repr(vars(make(ROOT, 8))) != first


def test_corpus_is_the_acceptance_corpus():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    corpus = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "CORPUS"
    )
    assert tuple(ast.literal_eval(corpus)) == workloads.CORPUS


def test_wrappers_are_installed_only_inside_the_traced_repetition(monkeypatch, capsys):
    seen = []
    original_rep = workloads.Certify.rep

    def rep(self, outdir):
        seen.append(tracing.all_original())
        return original_rep(self, outdir)

    monkeypatch.setattr(workloads.Certify, "rep", rep)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert tracing.all_original()
    code = run.main(["--workload", "certify", "--seed", "3", "--seconds", "0", "--trace", "1"])
    assert code == 0, capsys.readouterr().out
    assert seen == [True, False]
    assert tracing.all_original()


def test_uninstall_restores_every_target_even_after_an_error():
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(spans=True, dispatch=True):
            for owner, attr, _ in tracing.ALL_TARGETS:
                assert vars(owner)[attr] is not tracing.ORIGINALS[(id(owner), attr)]
            1 / 0
    assert tracing.all_original()


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3].
    names = ["outer", "a", "b", "c"]
    stats = tracing.summarize(
        np.array([0, 1, 2, 3]), np.array([-1, 0, 0, 1]),
        np.array([0.0, 1.0, 5.0, 2.0]), np.array([10.0, 4.0, 6.0, 3.0]), names,
    )
    assert {n: stats[n]["self_s"] for n in names} == {"outer": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}
    assert stats["outer"]["total_s"] == 10.0


def test_trial_count_replay_matches_the_counted_trials(tmp_path):
    spec = sweep.SweepSpec(
        base=scenario.load_scenario(ROOT / "scenarios" / "frontier_sweep.json"),
        arc_grid=(0.05, 0.45), trials=2, seed=5,
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        points = sweep.sweep_frontier(spec)
    assert tracer.summary()["sweep.run_trial"]["calls"] == 2 * workloads.evaluations(spec, points)
