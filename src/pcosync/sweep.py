"""Monte Carlo frontier estimation.

For each initial arc width on a grid, bisect over the initial frequency
spread for the largest value at which the trial success rate stays at or
above a threshold. Trials are seeded per (grid point, trial index), not per
bisection evaluation, so every evaluation at one grid point reuses the same
underlying draws (common random numbers); this keeps the per-trial response
nearly monotone in the spread and makes serial and parallel execution
byte-identical.

Each process checks and builds the base scenario once, with the sweep's
seed: the gate runs in the calling process before any trial or worker
starts, so a base no run can use raises UnrunnableScenarioError there. The
attackers' pulses and their claims are merged once per process, on the
prepared base's ``PulseTape``, and every trial reads them there. Each
process also keeps every trial's draws while the sweep stays at one grid
point: a trial's phases do not depend on the spread, and its frequencies
are rebuilt from the kept unit draws by the package's own ``rng.uniform``.
A trial normalizes its draws as a scenario's are, runs them with
``run_built`` on a fresh world, which refuses them as it would a run's, and
returns the run's outcome.

Serial and pooled sweeps run trials alike, in drains that run the trial
of each index they take and return (index, outcome) pairs; ``_Evaluator``
alone judges the outcomes, by trial index. A pool sends each worker the
base, the seed and one shared trial counter once, through its initializer.
Each evaluation resets the counter and submits one drain per worker, which
takes the next index from it until none is left, so a worker that finishes
early takes more trials; serially one drain runs ``range(trials)``. One
evaluation runs at a time, so the pool idles between evaluations. The
calling process keeps no sweep state at module level: it passes its own
prepared base to each serial drain.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import rng
from .rng import uniform
from .runner import run_built
# Not called here: the benchmark's tracing module reads this name when it
# is imported.
from .runner import run_scenario  # noqa: F401
from .scenario import ScenarioConfig, normalized_frequencies, normalized_phases


@dataclass(frozen=True)
class SweepSpec:
    """Template plus grid. ``base`` supplies everything a trial does not
    override: topology, algorithm, trim parameter, attackers, horizon,
    tolerances. Its initial conditions, their normalization flags and its
    monitor mode are ignored: every trial draws its own initial values,
    normalizes them as a scenario file's are, leaving out the attackers'
    draws, and runs with the monitor off."""

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
    the first and last ``n`` of ``2n`` from the trial's own stream, whose
    spawn key is (grid index, trial index)."""
    units = rng.random(seed, 2 * n, spawn_key=(grid_index, trial_index))
    return units[:n], units[n:]


class PreparedBase:
    """What the trials of one sweep share in one process: the prepared
    scenario of the base with a trial's overrides, checked and built once,
    the sweep's seed, and each trial's draws at the current grid point."""

    def __init__(self, base: ScenarioConfig, seed: int):
        n = base.graph.node_count
        # Placeholder initial values of the right length, which normalize to
        # themselves; each trial's world checks its own draws.
        self.prepared = dataclasses.replace(
            base, phases=[0.0] * n, frequencies=[1.0] * n, monitor="off"
        ).build()[0]
        self.n = n
        self.seed = seed
        self._point = None
        self._draws: dict[int, tuple[list[float], list[float]]] = {}

    def draws(self, grid_index: int, trial_index: int, arc0: float):
        """The trial's normalized phases and its frequencies' unit draws,
        kept until a trial at another grid point asks."""
        point = (grid_index, arc0)
        if point != self._point:
            self._point = point
            self._draws = {}
        drawn = self._draws.get(trial_index)
        if drawn is None:
            u0, u1 = unit_draws(self.seed, grid_index, trial_index, self.n)
            phases = normalized_phases(uniform(0.0, arc0, u0), self.prepared.normal_ids)
            drawn = self._draws[trial_index] = phases, u1
        return drawn


def run_trial(
    base: PreparedBase, grid_index: int, trial_index: int, arc0: float, spread0: float
) -> str:
    """One Monte Carlo trial on the prepared base, and its run's outcome;
    the sweep calls it once per trial.

    Phases are drawn uniformly on [0, arc0) and frequencies on
    [1, 1 + spread0), phases first, which keeps the phase sample fixed
    across bisection evaluations. Both are normalized as a scenario file's
    are, over the normal nodes only. The trial runs them on a fresh world
    with the base's protocol and scripts, which refuses them as it would a
    single run's initial values."""
    phases, units = base.draws(grid_index, trial_index, arc0)
    prepared = base.prepared
    freqs = normalized_frequencies(uniform(1.0, 1.0 + spread0, units), prepared.normal_ids)
    return run_built(prepared, prepared.world(phases, freqs))[0]


# A pool worker's prepared copy of the sweep's base scenario and the pool's
# shared trial counter, set once per worker by the pool initializer; the
# calling process never sets them.
_worker_base: PreparedBase | None = None
_worker_counter = None


def _set_worker_base(base: ScenarioConfig, seed: int, counter) -> None:
    global _worker_base, _worker_counter
    _worker_base = PreparedBase(base, seed)
    _worker_counter = counter


def _drain(base: PreparedBase, indices, grid_index: int, arc0: float, spread0: float):
    """(index, outcome) pairs of ``run_trial``, looked up on the module at
    each call, on each index ``indices`` yields. A trial that raises ends
    the drain, with its exception as its outcome."""
    done = []
    for index in indices:
        try:
            done.append((index, run_trial(base, grid_index, index, arc0, spread0)))
        except Exception as error:  # judged, and raised, by _Evaluator.rate
            done.append((index, error))
            break
    return done


def _counted(counter, trials: int):
    """Indices taken one at a time from the shared counter, under its lock,
    until it reaches ``trials``."""
    while True:
        with counter.get_lock():
            index = counter.value
            if index >= trials:
                return
            counter.value = index + 1
        yield index


def _pool_drain(grid_index: int, arc0: float, spread0: float, trials: int):
    """A worker's drain, on the base and counter its initializer set."""
    return _drain(_worker_base, _counted(_worker_counter, trials), grid_index, arc0, spread0)


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
    """Runs one (grid point, spread) evaluation across all trials, in one
    drain serially or one per worker from the pool's reset counter, and
    judges their outcomes by trial index, so completion order never
    matters. A drain stops at a trial that raised; every index below the
    counter ran, so the lowest-index error is raised, as serially."""

    def __init__(
        self, spec: SweepSpec, base: PreparedBase, executor: ProcessPoolExecutor | None,
        counter, workers: int,
    ):
        self.spec = spec
        self.base, self.executor, self.counter, self.workers = base, executor, counter, workers
        self.trials = 0  # trials run so far, over every evaluation

    def rate(self, grid_index: int, spread0: float) -> float:
        spec = self.spec
        self.trials += spec.trials
        args = (grid_index, spec.arc_grid[grid_index], spread0)
        if self.executor is None:
            drains = [_drain(self.base, range(spec.trials), *args)]
        else:
            self.counter.value = 0
            futures = [
                self.executor.submit(_pool_drain, *args, spec.trials)
                for _ in range(self.workers)
            ]
            drains = [future.result() for future in futures]
        outcomes = [None] * spec.trials
        for index, outcome in itertools.chain.from_iterable(drains):
            outcomes[index] = outcome
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        # A trial succeeds when its run converged or, unless the spec counts
        # only synchronized runs, when it ended on a detection.
        passed = ("converged",) if spec.synchronized_only else ("converged", "detected")
        return sum(outcome in passed for outcome in outcomes) / spec.trials


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
    UnrunnableScenarioError before any trial runs or any worker starts, and
    in an evaluation whose draws no run can use, the lowest-index such
    trial raises it, serially or pooled.
    """
    workers = pool_size(parallelism, spec.trials)
    base = PreparedBase(spec.base, spec.seed)
    executor = counter = None
    if workers > 1:
        # Made by the pool's own context: workers inherit the counter under
        # fork and are sent it as they start under spawn or forkserver.
        context = multiprocessing.get_context()
        counter = context.Value("q", 0)
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=context, initializer=_set_worker_base,
            initargs=(spec.base, spec.seed, counter),
        )
    try:
        evaluator = _Evaluator(spec, base, executor, counter, workers)
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
    # A zero cap is zero spread: its rate is already known.
    rate_zero = rate_cap if spec.spread_cap == 0.0 else evaluator.rate(grid_index, 0.0)
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
