"""Frontier sweep dispatch: the worker cap, chunked trials, and serial/parallel
byte-identity."""

import dataclasses
import io
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from pcosync import ScenarioConfig, SweepSpec, load_scenario, sweep_frontier, write_frontier
from pcosync import sweep

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


def test_chunked_dispatch_sends_no_scenario(monkeypatch, cpus):
    """At most four submissions per worker per evaluation, none of which
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
    assert per_evaluation and all(0 < count <= 4 * 2 for count in per_evaluation)
    assert ScenarioConfig not in pickled
    assert pickled  # the recorder saw the chunks


@pytest.mark.parametrize(
    "overrides, parallelism",
    [
        ({"trials": 9}, 2),  # chunks of 2: the last one holds a single trial
        ({"trials": 3}, 4),  # fewer trials than requested workers
        ({"trials": 9, "synchronized_only": True, "success_threshold": 0.1}, 2),
    ],
    ids=["ragged-chunks", "fewer-trials-than-workers", "synchronized-only"],
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
