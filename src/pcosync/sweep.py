"""Monte Carlo frontier estimation.

For each initial arc width on a grid, bisect over the initial frequency
spread for the largest value at which the trial success rate stays at or
above a threshold. Trials are seeded per (grid point, trial index), not per
bisection evaluation, so every evaluation at one grid point reuses the same
underlying draws (common random numbers); this keeps the per-trial response
nearly monotone in the spread and makes serial and parallel execution
byte-identical.

Each process checks and builds the base scenario once and keeps its
prepared scenario: the gate runs in the calling process before any trial or
worker starts, so a base no run can use raises UnrunnableScenarioError
there. A trial then makes a fresh world and runs it with ``run_built``.
Each process also keeps every trial's draws while the sweep stays at one
grid point: a trial's phases do not depend on the spread, and its
frequencies are rebuilt from the kept unit draws with numpy's own
``uniform`` formula. A parallel sweep sends the base scenario to each
worker once, when the pool starts, and then sends each evaluation's trial
indices in a few chunks.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import UnrunnableScenarioError
from .runner import run_built
# Not called here: the benchmark's tracing module reads this name when it
# is imported.
from .runner import run_scenario  # noqa: F401
from .scenario import ScenarioConfig, initial_value_problems


@dataclass(frozen=True)
class SweepSpec:
    """Template plus grid. ``base`` supplies everything a trial does not
    override: topology, algorithm, trim parameter, attackers, horizon,
    tolerances. Its initial conditions, their normalization flags and its
    monitor mode are ignored: every trial draws its own initial values,
    runs them as drawn, and runs with the monitor off."""

    base: ScenarioConfig
    arc_grid: tuple[float, ...]
    trials: int = 100
    spread_cap: float = 1.0
    bisect_tol: float = 0.01
    seed: int = 0
    success_threshold: float = 0.95
    synchronized_only: bool = False

    def __post_init__(self):
        if not self.arc_grid:
            raise ValueError("arc grid is empty")
        for value in self.arc_grid:
            if not 0.0 <= value < 0.5:
                raise ValueError(f"arc width {value} outside [0, 0.5)")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        # Each comparison is written so that NaN fails it.
        if not 0.0 <= self.spread_cap < math.inf:
            raise ValueError(f"spread cap must be finite and at least 0, got {self.spread_cap}")
        if not self.bisect_tol > 0.0:
            raise ValueError(f"bisection tolerance must be positive, got {self.bisect_tol}")
        if not 0.0 <= self.success_threshold <= 1.0:
            raise ValueError(f"success threshold must lie in [0, 1], got {self.success_threshold}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class FrontierPoint:
    """One grid point's result; ``trials`` counts the trials its
    evaluations ran (0 where a point is built by hand)."""

    arc0: float
    spread0_max: float
    success_rate: float
    trials: int = 0


def unit_draws(
    seed: int, grid_index: int, trial_index: int, n: int
) -> tuple[list[float], list[float]]:
    """A trial's two draws of ``n`` unit values, phases' then frequencies':
    ``rng.random(n)`` twice from the trial's own generator."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(grid_index, trial_index))
    )
    return rng.random(n).tolist(), rng.random(n).tolist()


def uniform(low: float, high: float, units: list[float]) -> list[float]:
    """What ``rng.uniform(low, high, n)`` returns when ``rng.random(n)``
    would return ``units``: numpy computes each value as
    ``low + (high - low) * u``."""
    scale = high - low
    return [low + scale * u for u in units]


class PreparedBase:
    """What the trials of one sweep share in one process: the prepared
    scenario of the base with a trial's overrides, checked and built once,
    and each trial's draws at the current grid point."""

    def __init__(self, base: ScenarioConfig):
        n = base.graph.node_count
        # Placeholder initial values of the right length: the gate checks
        # every other field, and each trial checks its own draws.
        self.prepared = dataclasses.replace(
            base,
            phases=[0.0] * n,
            frequencies=[1.0] * n,
            normalize_phases=False,
            normalize_frequencies=False,
            monitor="off",
        ).prepare()[0]
        self.n = n
        self._point = None
        self._draws: dict[int, tuple[list[float], list[float]]] = {}

    def draws(self, grid_index: int, trial_index: int, arc0: float, seed: int):
        """The trial's shifted phases and its frequencies' unit draws, kept
        until a trial at another grid point asks."""
        point = (grid_index, arc0, seed)
        if point != self._point:
            self._point = point
            self._draws = {}
        drawn = self._draws.get(trial_index)
        if drawn is None:
            u0, u1 = unit_draws(seed, grid_index, trial_index, self.n)
            raw_phase = uniform(0.0, arc0, u0)
            low = min(raw_phase)
            drawn = self._draws[trial_index] = [p - low for p in raw_phase], u1
        return drawn


def run_trial(
    base: PreparedBase,
    grid_index: int,
    trial_index: int,
    arc0: float,
    spread0: float,
    seed: int,
    synchronized_only: bool,
) -> bool:
    """One Monte Carlo trial on the prepared base; the sweep calls it once
    per trial.

    Phases are drawn uniformly on [0, arc0] and shifted so the slowest
    point sits exactly at 0; frequencies on [1, 1 + spread0] shifted so the
    minimum is exactly 1 (Sterbenz: both endpoints within a factor of two,
    so the subtraction is exact). Draw order is phases then frequencies,
    which keeps the phase sample fixed across bisection evaluations. The
    drawn values pass the gate's check of initial values, and the trial
    runs them on a fresh world with the base's protocol and scripts."""
    phases, units = base.draws(grid_index, trial_index, arc0, seed)
    raw_freq = uniform(1.0, 1.0 + spread0, units)
    low = min(raw_freq)
    freqs = [(w - low) + 1.0 for w in raw_freq]
    prepared = base.prepared
    problems = initial_value_problems(phases, freqs, prepared.normal_ids, 0.0)
    if problems:
        raise UnrunnableScenarioError(problems)
    outcome = run_built(prepared, prepared.world(phases, freqs))[0]
    if outcome == "converged":
        return True
    return outcome == "detected" and not synchronized_only


# A pool worker's prepared copy of the sweep's base scenario, set once per
# worker by the pool initializer; the parent process never sets it.
_worker_base: PreparedBase | None = None


def _set_worker_base(base: ScenarioConfig) -> None:
    global _worker_base
    _worker_base = PreparedBase(base)


def _worker_trial(grid_index, trial_index, arc0, spread0, seed, synchronized_only) -> bool:
    return run_trial(
        _worker_base, grid_index, trial_index, arc0, spread0, seed, synchronized_only
    )


def pool_size(parallelism: int, trials: int) -> int:
    """Worker processes a sweep starts: ``parallelism``, but no more than
    the trials per evaluation or the CPUs this process may run on. At 1
    the sweep runs serially. Raises ValueError when ``parallelism`` is
    below 1."""
    if parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, got {parallelism}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(parallelism, trials, cpus)


class _Evaluator:
    """Runs one (grid point, spread) evaluation across all trials and
    aggregates by trial index, so completion order never matters."""

    def __init__(
        self, spec: SweepSpec, base: PreparedBase, executor: ProcessPoolExecutor | None,
        workers: int,
    ):
        self.spec = spec
        self.base = base
        self.executor = executor
        # About four chunks per worker: few submissions, and a slow chunk
        # leaves the other workers little to wait for.
        self.chunksize = math.ceil(spec.trials / (4 * workers))
        self.trials = 0  # trials run so far, over every evaluation

    def rate(self, grid_index: int, spread0: float) -> float:
        spec = self.spec
        arc0 = spec.arc_grid[grid_index]
        n = spec.trials
        self.trials += n
        if self.executor is None:
            outcomes = [
                run_trial(self.base, grid_index, t, arc0, spread0, spec.seed,
                          spec.synchronized_only)
                for t in range(n)
            ]
        else:
            # map yields in trial-index order, whatever order chunks finish in.
            outcomes = self.executor.map(
                _worker_trial, repeat(grid_index, n), range(n), repeat(arc0, n),
                repeat(spread0, n), repeat(spec.seed, n), repeat(spec.synchronized_only, n),
                chunksize=self.chunksize,
            )
        return sum(outcomes) / n


def sweep_frontier(
    spec: SweepSpec,
    parallelism: int = 1,
    progress=None,
) -> list[FrontierPoint]:
    """Estimate the admissible-spread frontier over the arc grid.

    Per grid point: if the full spread cap already passes, report it; if
    even zero spread fails, report zero with its observed rate; otherwise
    bisect down to ``bisect_tol`` and report the largest passing spread.
    ``parallelism`` must be at least 1; ``pool_size`` gives the number of
    worker processes it starts. ``progress``, when given, is called with
    each point as soon as it is done. A base scenario no run can use raises
    UnrunnableScenarioError before any trial runs or any worker starts.
    """
    workers = pool_size(parallelism, spec.trials)
    base = PreparedBase(spec.base)
    executor = None
    if workers > 1:
        executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_set_worker_base, initargs=(spec.base,)
        )
    try:
        evaluator = _Evaluator(spec, base, executor, workers)
        points = []
        for gi, arc0 in enumerate(spec.arc_grid):
            before = evaluator.trials
            point = _bisect_point(evaluator, gi, arc0, spec)
            point = dataclasses.replace(point, trials=evaluator.trials - before)
            points.append(point)
            if progress is not None:
                progress(point)
        return points
    finally:
        if executor is not None:
            executor.shutdown()


def _bisect_point(
    evaluator: _Evaluator, grid_index: int, arc0: float, spec: SweepSpec
) -> FrontierPoint:
    threshold = spec.success_threshold
    rate_cap = evaluator.rate(grid_index, spec.spread_cap)
    if rate_cap >= threshold:
        return FrontierPoint(arc0, spec.spread_cap, rate_cap)
    rate_zero = evaluator.rate(grid_index, 0.0)
    if rate_zero < threshold:
        return FrontierPoint(arc0, 0.0, rate_zero)
    lo, rate_lo = 0.0, rate_zero
    hi = spec.spread_cap
    while hi - lo > spec.bisect_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats: no spread lies between them
        rate_mid = evaluator.rate(grid_index, mid)
        if rate_mid >= threshold:
            lo, rate_lo = mid, rate_mid
        else:
            hi = mid
    return FrontierPoint(arc0, lo, rate_lo)


def format_frontier(points: list[FrontierPoint]) -> str:
    """The frontier as CSV text, one row per grid point, floats in ``repr``
    form so that a rerun can be compared byte for byte."""
    lines = ["Delta0,delta0_max,success_rate"]
    for p in points:
        lines.append(f"{p.arc0!r},{p.spread0_max!r},{p.success_rate!r}")
    return "\n".join(lines) + "\n"


def write_frontier(path: str | Path, points: list[FrontierPoint]) -> None:
    Path(path).write_text(format_frontier(points))
