"""Frontier sweep dispatch: the worker cap, one trial drain per worker per
evaluation, the lowest-index trial error, serial/parallel byte-identity,
the frozen frontier bytes, and a base checked and built once."""

import dataclasses
import functools
import hashlib
import io
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import scenario_run_trial
from pcosync import (
    AttackerSpec,
    RandomInterval,
    ScenarioConfig,
    SweepSpec,
    load_scenario,
    sweep_frontier,
    write_frontier,
)
from pcosync import sweep
from pcosync.errors import UnrunnableScenarioError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def small_spec(**overrides) -> SweepSpec:
    base = dataclasses.replace(load_scenario(SCENARIOS / "frontier_sweep.json"), horizon=40.0)
    fields = dict(base=base, arc_grid=(0.05, 0.45), trials=9, spread_cap=1.0, bisect_tol=0.2)
    return SweepSpec(**{**fields, **overrides})


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may run on, as the sweep sees them."""

    def pretend(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return pretend


class _PoolStarted(Exception):
    pass


@pytest.mark.parametrize(
    "parallelism, trials, cpu_count, started",
    [(5000, 100, 3, 3), (8, 2, 64, 2), (2, 100, 64, 2), (3, 100, 2, 2)],
)
def test_worker_count_is_capped(monkeypatch, cpus, parallelism, trials, cpu_count, started):
    seen = []

    def record(max_workers, **kwargs):
        seen.append(max_workers)
        raise _PoolStarted

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", record)
    cpus(cpu_count)
    with pytest.raises(_PoolStarted):
        sweep_frontier(small_spec(trials=trials), parallelism=parallelism)
    assert seen == [started]


def test_one_usable_worker_runs_serially(monkeypatch, cpus):
    def refuse(**kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", refuse)
    cpus(1)
    spec = small_spec(arc_grid=(0.05,), trials=2)
    assert sweep_frontier(spec, parallelism=4) == sweep_frontier(spec)
    cpus(8)
    assert sweep_frontier(dataclasses.replace(spec, trials=1), parallelism=4)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"arc_grid": ()}, "arc grid is empty"),
        ({"arc_grid": (0.05, 0.5)}, r"arc width 0.5 outside \[0, 0.5\)"),
        ({"arc_grid": (-0.1,)}, r"arc width -0.1 outside \[0, 0.5\)"),
        ({"trials": 0}, "need at least one trial, got 0"),
    ],
    ids=["empty-grid", "half-circle-arc", "negative-arc", "no-trials"],
)
def test_a_spec_outside_its_domain_is_refused(overrides, message):
    with pytest.raises(ValueError, match=message):
        small_spec(**overrides)


@pytest.mark.parametrize("parallelism", [0, -3])
def test_parallelism_below_one_is_refused(parallelism):
    with pytest.raises(ValueError, match=f"parallelism must be at least 1, got {parallelism}"):
        sweep_frontier(small_spec(), parallelism=parallelism)


class _TypeRecorder(pickle.Pickler):
    """Pickles to nowhere, noting the type of every object it meets."""

    def __init__(self):
        super().__init__(io.BytesIO())
        self.types = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return NotImplemented


def test_each_evaluation_submits_one_drain_per_worker_and_no_scenario(monkeypatch, cpus):
    """Exactly one submission per worker per evaluation, none of which
    carries the base scenario."""
    submit = ProcessPoolExecutor.submit
    submissions = []
    pickled = set()

    def recording_submit(executor, fn, /, *args, **kwargs):
        recorder = _TypeRecorder()
        recorder.dump((fn, args, kwargs))
        pickled.update(recorder.types)
        submissions.append(fn)
        return submit(executor, fn, *args, **kwargs)

    rate = sweep._Evaluator.rate
    per_evaluation = []

    def counting_rate(evaluator, grid_index, spread0):
        before = len(submissions)
        result = rate(evaluator, grid_index, spread0)
        per_evaluation.append(len(submissions) - before)
        return result

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    monkeypatch.setattr(sweep._Evaluator, "rate", counting_rate)
    cpus(2)
    sweep_frontier(small_spec(trials=9), parallelism=2)
    assert per_evaluation and all(count == 2 for count in per_evaluation)
    assert ScenarioConfig not in pickled
    assert pickled  # the recorder saw the submissions


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers see the patched run_trial only when they fork",
)
def test_a_pooled_sweep_raises_the_lowest_index_trial_error_as_a_serial_one_does(
    monkeypatch, cpus
):
    run_trial = sweep.run_trial

    def failing_run_trial(base, grid_index, trial_index, arc0, spread0):
        if trial_index in (2, 5, 7):
            # The lowest failing index is the slowest to fail, so a drain
            # past it fails first.
            time.sleep(0.2 if trial_index == 2 else 0.0)
            raise UnrunnableScenarioError([f"trial {trial_index}"])
        return run_trial(base, grid_index, trial_index, arc0, spread0)

    monkeypatch.setattr(sweep, "run_trial", failing_run_trial)
    cpus(2)
    for parallelism in (1, 2):
        with pytest.raises(UnrunnableScenarioError) as caught:
            sweep_frontier(small_spec(trials=9), parallelism=parallelism)
        assert caught.value.violations == ["trial 2"]


@pytest.mark.parametrize(
    "overrides, parallelism",
    [
        ({"trials": 9}, 2),  # an odd number of trials for two drains
        ({"trials": 3}, 4),  # fewer trials than requested workers
        ({"trials": 9, "synchronized_only": True, "success_threshold": 0.1}, 2),
    ],
    ids=["odd-trials-per-drain", "fewer-trials-than-workers", "synchronized-only"],
)
def test_serial_and_parallel_frontiers_are_byte_identical(cpus, tmp_path, overrides, parallelism):
    cpus(2)
    spec = small_spec(**overrides)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_frontier(serial, sweep_frontier(spec))
    write_frontier(parallel, sweep_frontier(spec, parallelism=parallelism))
    assert serial.read_bytes() == parallel.read_bytes()


class _StubEvaluator:
    """Passes every spread up to 0.3 and fails every larger one; stops a
    bisection that would never end."""

    def __init__(self):
        self.calls = 0

    def rate(self, grid_index, spread0):
        self.calls += 1
        assert self.calls < 100, f"still bisecting at spread {spread0!r}"
        return 1.0 if spread0 <= 0.3 else 0.0


def test_bisection_ends_when_the_tolerance_is_below_the_float_spacing():
    stub = _StubEvaluator()
    point = sweep._bisect_point(stub, 0, 0.05, small_spec(bisect_tol=1e-300))
    # lo and hi end as adjacent floats around 0.3, about 55 halvings of [0, 1].
    assert point.spread0_max == 0.3
    assert point.success_rate == 1.0


def test_each_point_counts_the_trials_its_evaluations_ran(cpus, monkeypatch):
    cpus(2)
    run_trial = sweep.run_trial
    calls = []

    def counting_run_trial(*args):
        calls.append(args)
        return run_trial(*args)

    monkeypatch.setattr(sweep, "run_trial", counting_run_trial)
    spec = small_spec()
    serial = sweep_frontier(spec)
    assert sum(point.trials for point in serial) == len(calls)
    assert all(point.trials and point.trials % spec.trials == 0 for point in serial)
    assert sweep_frontier(spec, parallelism=2) == serial


@pytest.mark.parametrize("cap", [0.0, -0.0])
def test_a_zero_cap_evaluates_each_failing_point_once(cap):
    # The cap is zero spread, so a point that fails there is reported from
    # that one evaluation, with the bytes a second one at zero spread gave.
    spec = small_spec(spread_cap=cap, synchronized_only=True)
    points = sweep_frontier(spec)
    assert [point.trials for point in points] == [spec.trials] * 2
    assert sweep.format_frontier(points) == (
        "Delta0,delta0_max,success_rate\n"
        "0.05,0.0,0.0\n"
        "0.45,0.0,0.1111111111111111\n"
    )


# SHA-256 of the frontier CSV of three small sweeps. A digest may only change
# together with a CHANGES.md entry naming the intended change in output.
FRONTIER_DIGESTS = {
    "absolute": "d574c1c72533f78ae867aa9e8f6d5c0be4ee61c6d3723c89ef639d8a650398dd",
    "relative": "d574c1c72533f78ae867aa9e8f6d5c0be4ee61c6d3723c89ef639d8a650398dd",
    "synchronized-only": "318bc7b61837cc525e62eff2da72b0344d8c3b0d20ec93b6491418f5b99089c8",
}


def pinned_spec(case: str) -> SweepSpec:
    if case == "relative":
        return small_spec(base=dataclasses.replace(small_spec().base, algorithm="relative"))
    return small_spec(synchronized_only=case == "synchronized-only")


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("case", sorted(FRONTIER_DIGESTS))
def test_frontier_csv_is_frozen(cpus, case, parallelism):
    cpus(2)
    points = sweep_frontier(pinned_spec(case), parallelism=parallelism)
    digest = hashlib.sha256(sweep.format_frontier(points).encode()).hexdigest()
    assert digest == FRONTIER_DIGESTS[case]


def test_the_base_initial_conditions_and_monitor_are_ignored():
    shipped = small_spec()
    n = shipped.base.graph.node_count
    expected = sweep_frontier(shipped)
    bases = [
        dataclasses.replace(
            shipped.base, phases=RandomInterval(0.0, 0.9), frequencies=[1.0] * (n - 1),
            normalize_phases=True, normalize_frequencies=True, monitor="warn",
        ),
        dataclasses.replace(
            shipped.base, phases=[0.0, 0.1], frequencies=RandomInterval(1.0, 3.0, seed=-1),
            normalize_phases=True, normalize_frequencies=False, monitor="loud",
        ),
    ]
    for base in bases:
        assert sweep_frontier(dataclasses.replace(shipped, base=base)) == expected


def test_an_unrunnable_base_is_refused_before_any_pool_starts(monkeypatch, cpus):
    def refuse(**kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", refuse)
    cpus(2)
    spec = small_spec()
    spec = dataclasses.replace(spec, base=dataclasses.replace(spec.base, window_len=0))
    with pytest.raises(UnrunnableScenarioError) as caught:
        sweep_frontier(spec, parallelism=2)
    assert caught.value.violations == ["window_len must be at least 1, got 0"]


def test_a_serial_sweep_builds_each_attack_script_once(monkeypatch):
    spec = small_spec()
    build = AttackerSpec.build
    built = []

    def counting_build(attacker):
        built.append(attacker.node)
        return build(attacker)

    monkeypatch.setattr(AttackerSpec, "build", counting_build)
    points = sweep_frontier(spec)
    assert sum(point.trials for point in points) > spec.trials
    assert sorted(built) == sorted(a.node for a in spec.base.attackers)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0),
    grid_index=st.integers(0, 2**63),
    trial_index=st.integers(0, 2**63),
    arc0=st.floats(0.0, 0.5, exclude_max=True),
    spread0=st.floats(0.0, 1e300),
    n=st.integers(1, 70),
)
def test_rebuilt_draws_equal_numpy_uniform_bit_for_bit(seed, grid_index, trial_index, arc0,
                                                       spread0, n):
    u0, u1 = sweep.unit_draws(seed, grid_index, trial_index, n)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(grid_index, trial_index)))
    phases = rng.uniform(0.0, arc0, n)
    freqs = rng.uniform(1.0, 1.0 + spread0, n)
    assert np.array(sweep.uniform(0.0, arc0, u0)).tobytes() == phases.tobytes()
    assert np.array(sweep.uniform(1.0, 1.0 + spread0, u1)).tobytes() == freqs.tobytes()


@functools.lru_cache(maxsize=None)
def prepared_base(algorithm: str, seed: int):
    """One prepared base per algorithm and seed, shared by every example
    below, so its draws move between grid points as the examples do."""
    base = dataclasses.replace(small_spec().base, algorithm=algorithm)
    return base, sweep.PreparedBase(base, seed)


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["absolute", "relative"]),
    grid_index=st.integers(0, 3),
    trial_index=st.integers(0, 20),
    arc0=st.sampled_from([0.0, 0.05, 0.25, 0.45]),
    spread0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 3),
)
def test_a_trial_matches_the_former_build_and_run(algorithm, grid_index, trial_index, arc0,
                                                  spread0, seed):
    base, prepared = prepared_base(algorithm, seed)
    args = (grid_index, trial_index, arc0, spread0)
    assert sweep.run_trial(prepared, *args) == scenario_run_trial(base, *args, seed)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_sweep_inside_another_sweeps_progress_callback_changes_neither(cpus, parallelism):
    cpus(2)
    outer = small_spec(seed=3)
    inner = small_spec(
        base=dataclasses.replace(outer.base, algorithm="relative"), arc_grid=(0.25,),
        seed=11, synchronized_only=True,
    )
    alone = sweep.format_frontier(sweep_frontier(outer)), sweep.format_frontier(sweep_frontier(inner))
    inner_csvs = []

    def progress(point):
        inner_csvs.append(sweep.format_frontier(sweep_frontier(inner)))

    nested = sweep_frontier(outer, parallelism=parallelism, progress=progress)
    assert sweep.format_frontier(nested) == alone[0]
    assert inner_csvs == [alone[1]] * len(outer.arc_grid)
