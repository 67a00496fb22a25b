"""The four benchmark workloads: inputs drawn from a seed, one repetition
of the work, its correctness checks, and its end-to-end figures.

Every workload calls the library entry points the command line uses
(``run_scenario``, ``sweep_frontier``, ``is_r_robust``) through their
module attributes, so a ``tracing.Tracer`` sees the calls when installed.
Each repetition returns the outputs it observed (``signature``), which
must be identical in every repetition of one invocation, traced or not.

After every operation the kernel of ``calibration.py`` runs for a quarter
of the operation's time, and each operation's time is scaled by the
kernel's speed around it (see ``Rep.attempt``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import Helper, calibrate, speed
from pcosync import graph, runner, scenario, sweep

# The pinned stealthy-attack corpus of the acceptance gate
# (tests/test_acceptance.py, CORPUS); these seeds must converge cleanly.
CORPUS = (
    17, 28, 34, 36, 46, 48, 50, 51, 56, 61,
    80, 95, 96, 102, 106, 121, 123, 127, 139, 141,
    142, 150, 152, 165, 169, 213, 222, 223, 236, 252,
    260, 262, 268, 273, 284, 298, 309, 310, 314, 320,
    325, 332, 342, 344, 364, 372, 384, 389, 392, 397,
)
FRONTIER_GRID = (0.05, 0.15, 0.25, 0.35, 0.45)
CALIBRATION_SHARE = 0.25  # kernel time per unit of operation time


@dataclass
class Rep:
    """What one repetition did: timings by series (seconds, scaled to the
    reference speed), the outputs it observed, event counts read from
    outputs, and the operation tally."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    signature: list = field(default_factory=list)
    observed: Counter = field(default_factory=Counter)
    attempted: int = 0
    problems: list[tuple[str, str]] = field(default_factory=list)
    scaled_s: float = 0.0
    calibration: list[float] = field(default_factory=list)
    _paused_s: float = 0.0
    _mark: float = field(default_factory=time.perf_counter)
    _last_interlude: int = 0
    helper: Helper | None = None

    @property
    def failed(self) -> int:
        """Operations that raised or whose output failed a check."""
        return len({label for label, _ in self.problems})

    def time(self, series: str, seconds: float) -> None:
        self.samples.setdefault(series, []).append(seconds)

    def interlude(self) -> None:
        """Run the kernel for CALIBRATION_SHARE of the time since it last ran."""
        start = time.perf_counter()
        self._last_interlude = len(self.calibration)
        seconds = CALIBRATION_SHARE * (start - self._mark)
        if self.helper:
            self.helper.start(seconds)
        self.calibration += calibrate(seconds)
        if self.helper:
            self.calibration += self.helper.samples()
        self._mark = time.perf_counter()
        self._paused_s += self._mark - start

    def attempt(self, label: str, call):
        """Run one operation and the kernel after it. Returns the result
        (None if it raised, which is a failed operation) and its time,
        less any interludes it ran, scaled by the kernel's speed in the
        interludes right before, during and right after it."""
        self.attempted += 1
        first, paused = self._last_interlude, self._paused_s
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is reported, not fatal
            self.problems.append((label, f"{type(exc).__name__}: {exc}"))
            result = None
        took = time.perf_counter() - start - (self._paused_s - paused)
        self.interlude()
        took *= speed(self.calibration[first:])
        self.scaled_s += took
        return result, took

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.problems.append((label, f"check failed {detail}".rstrip()))


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def pooled(reps: list[Rep], series: str) -> list[float]:
    return [s for rep in reps for s in rep.samples.get(series, [])]


class Workload:
    name = ""

    def rep(self, outdir: Path) -> Rep:
        raise NotImplementedError

    def traced_rep(self, tracer, outdir: Path) -> Rep:
        with tracer.installed():
            return self.rep(outdir)

    def figures(self, reps: list[Rep]) -> tuple[float, float]:
        """(base_ms, stress_ms) over the repetitions of one invocation."""
        raise NotImplementedError


# -- run_shipped -------------------------------------------------------------


def _trace_kinds(path: Path) -> Counter:
    """Event rows by kind in a ``run --trace`` CSV, keyed like the traced
    counts (``engine.events.<kind>``); the header and init row excluded."""
    kinds: Counter = Counter()
    with path.open() as handle:
        next(handle)
        for line in handle:
            kinds[line.split(",", 3)[2]] += 1
    kinds.pop("init", None)
    return Counter({f"engine.events.{kind}": count for kind, count in kinds.items()})


def _update_omegas(result, node: int) -> list[float]:
    return [r.omegas[node] for r in result.metrics.rows
            if r.event_kind == "update" and r.node == node]


class RunShipped(Workload):
    """``pcosync run --trace`` over the shipped scenarios: the pinned corpus,
    stealthy_attack at seeds drawn from the workload seed, nominal_sync,
    flooding_detection, and relative_equivalence with its absolute twin."""

    name = "run_shipped"
    DRAWN = 150

    def __init__(self, root: Path, seed: int):
        scen = root / "scenarios"
        stealthy = scenario.load_scenario(scen / "stealthy_attack.json")
        rng = np.random.default_rng([seed, 1])
        drawn = rng.choice(np.arange(3000, 1_000_000), size=self.DRAWN, replace=False)
        equiv = scenario.load_scenario(scen / "relative_equivalence.json")
        self.calls = (
            [(f"corpus:{s}", dataclasses.replace(stealthy, seed=s)) for s in CORPUS]
            + [(f"stealthy:{int(s)}", dataclasses.replace(stealthy, seed=int(s))) for s in drawn]
            + [
                ("nominal_sync", scenario.load_scenario(scen / "nominal_sync.json")),
                ("flooding_detection", scenario.load_scenario(scen / "flooding_detection.json")),
                ("relative_equivalence", equiv),
                ("relative_equivalence:absolute", dataclasses.replace(equiv, algorithm="absolute")),
            ]
        )

    def rep(self, outdir: Path) -> Rep:
        rep = Rep()
        results = {}
        for i, (label, config) in enumerate(self.calls):
            path = outdir / f"trace_{i}.csv"
            result, took = rep.attempt(
                label,
                lambda: runner.run_scenario(config, validate=True, trace_path=path),
            )
            if result is None:
                continue
            rep.time("run", took)
            kinds = _trace_kinds(path)
            path.unlink()
            rep.observed.update(kinds)
            rep.observed["engine.events.total"] += result.world.event_count
            rep.observed["metrics.trace_rows"] += sum(kinds.values()) + 1
            rep.signature.append((label, result.outcome, result.world.event_count))
            if label.startswith("relative_equivalence"):
                results[label] = result
            self._check(rep, label, result)
        self._check_equivalence(rep, results)
        return rep

    @staticmethod
    def _check(rep: Rep, label: str, result) -> None:
        if label.startswith("corpus:"):
            clean = (
                result.outcome == "converged"
                and result.metrics.violations == []
                and result.metrics.suppressed_violations() == 0
                and result.detections == []
            )
            rep.check(label, clean, f"(outcome {result.outcome})")
        elif label == "flooding_detection":
            rep.check(label, result.outcome == "detected", f"(outcome {result.outcome})")
        elif not label.startswith("stealthy:"):
            rep.check(label, result.outcome == "converged", f"(outcome {result.outcome})")

    @staticmethod
    def _check_equivalence(rep: Rep, results: dict) -> None:
        rel = results.get("relative_equivalence")
        ab = results.get("relative_equivalence:absolute")
        if rel is None or ab is None:
            return
        for node in rel.config.normal_ids:
            a, b = _update_omegas(ab, node), _update_omegas(rel, node)
            same = len(a) > 4 and len(b) > 4 and all(abs(x - y) < 1e-9 for x, y in zip(a, b))
            rep.check("relative_equivalence", same, f"(node {node})")

    def figures(self, reps):
        runs = pooled(reps, "run")
        return 1e3 * statistics.median(runs), 1e3 * quantile(runs, 0.95)


# -- sweep_frontier ----------------------------------------------------------


def evaluations(spec, points) -> int:
    """Success-rate evaluations ``sweep_frontier`` makes to report ``points``,
    replayed from its documented search: one at the spread cap if that
    passes, one more at zero if that fails, otherwise both plus a bisection
    that halves [0, cap] until it is narrower than ``bisect_tol``."""
    total = 0
    for p in points:
        if p.spread0_max == spec.spread_cap:
            total += 1
        elif p.spread0_max == 0.0 and p.success_rate < spec.success_threshold:
            total += 2
        else:
            lo, hi, steps = 0.0, spec.spread_cap, 0
            while hi - lo > spec.bisect_tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if mid <= p.spread0_max else (lo, mid)
                steps += 1
            total += 2 + steps
    return total


class SweepFrontier(Workload):
    """``sweep_frontier`` on frontier_sweep.json over the acceptance grid,
    serially and with two worker processes."""

    name = "sweep_frontier"
    PARALLELISM = (1, 2)

    def __init__(self, root: Path, seed: int):
        self.spec = sweep.SweepSpec(
            base=scenario.load_scenario(root / "scenarios" / "frontier_sweep.json"),
            arc_grid=FRONTIER_GRID,
            trials=100,
            spread_cap=1.0,
            bisect_tol=0.01,
            seed=int(np.random.default_rng([seed, 2]).integers(2**31)),
            success_threshold=0.95,
        )

    def rep(self, outdir: Path, parallelism=PARALLELISM) -> Rep:
        rep = Rep()
        csvs = {}
        for par in parallelism:
            def run():
                # The kernel also runs between grid points, while the pool idles.
                return sweep.sweep_frontier(
                    self.spec, parallelism=par, progress=lambda _: rep.interlude()
                )

            if par == 1:
                points, took = rep.attempt("sweep p1", run)
            else:
                with Helper() as rep.helper:
                    points, took = rep.attempt(f"sweep p{par}", run)
                rep.helper = None
            if points is None:
                continue
            trials = self.spec.trials * evaluations(self.spec, points)
            rep.time(f"p{par}", took / trials)
            rep.observed["sweep.trials"] = trials
            path = outdir / f"frontier_p{par}.csv"
            sweep.write_frontier(path, points)
            csvs[par] = path.read_bytes()
            path.unlink()
        digests = {par: hashlib.sha256(data).hexdigest() for par, data in csvs.items()}
        rep.check("sweep", len(set(digests.values())) <= 1, f"(frontier CSVs differ: {digests})")
        rep.signature = sorted(set(digests.values()))
        return rep

    def traced_rep(self, tracer, outdir: Path) -> Rep:
        # Worker processes keep their own spans, so only the serial sweep is
        # spanned; the parallel one records parent-side dispatch only.
        with tracer.installed():
            rep = self.rep(outdir, parallelism=(1,))
        with tracer.installed(spans=False, dispatch=True):
            par = self.rep(outdir, parallelism=(2,))
        rep.samples.update(par.samples)
        rep.scaled_s += par.scaled_s
        rep.attempted += par.attempted
        rep.problems += par.problems
        rep.check("sweep", par.signature == rep.signature, "(frontier CSVs differ)")
        return rep

    def figures(self, reps):
        per_trial = {p: statistics.median(pooled(reps, f"p{p}")) for p in self.PARALLELISM}
        return 1e3 * per_trial[1], 1e3 * per_trial[2]


# -- large_n -----------------------------------------------------------------


class LargeN(Workload):
    """``run_scenario`` on complete digraphs of 16 and 64 nodes under both
    algorithms, monitor off and no trace, from initial conditions inside an
    envelope where every run converges (phases within 0.3 of a turn,
    frequencies within 5%)."""

    name = "large_n"
    DRAWS = {16: 10, 64: 3}
    ALGORITHMS = ("absolute", "relative")

    def __init__(self, root: Path, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.calls = []
        for n, draws in self.DRAWS.items():
            g = graph.complete_digraph(n)
            for d in range(draws):
                phases = [float(x) for x in rng.uniform(0.0, 0.3, size=n)]
                freqs = [float(x) for x in rng.uniform(1.0, 1.05, size=n)]
                for alg in self.ALGORITHMS:
                    config = scenario.ScenarioConfig(
                        graph=g, algorithm=alg, f=1, zeta=0.1,
                        phases=phases, frequencies=freqs,
                        horizon=200.0, monitor="off", name=f"K{n}:{alg}:{d}",
                    )
                    self.calls.append((n, alg, config))

    def rep(self, outdir: Path) -> Rep:
        rep = Rep()
        spent: Counter = Counter()
        events: Counter = Counter()
        for n, alg, config in self.calls:
            result, took = rep.attempt(config.name, lambda: runner.run_scenario(config))
            if result is None:
                continue
            count = result.world.event_count
            spent[(n, alg)] += took
            events[(n, alg)] += count
            rep.observed["engine.events.total"] += count
            rep.signature.append((config.name, result.outcome, count))
            rep.check(config.name, result.outcome == "converged", f"(outcome {result.outcome})")
        for n in self.DRAWS:
            # Mean over the two algorithms of seconds per event, so the mix
            # of run lengths a seed draws does not weight one protocol.
            per_event = [spent[(n, a)] / events[(n, a)] for a in self.ALGORITHMS if events[(n, a)]]
            if per_event:
                rep.time(f"n{n}", statistics.fmean(per_event))
        return rep

    def figures(self, reps):
        return (1e3 * statistics.median(pooled(reps, "n16")),
                1e3 * statistics.median(pooled(reps, "n64")))


# -- certify -----------------------------------------------------------------


class Certify(Workload):
    """``is_r_robust(K_n, 3)`` for n = 10 and 12, plus ``demo_graph_8`` at
    r = 4. The seed only reorders each node's in-neighbor list, which
    changes neither the verdict nor the work."""

    name = "certify"
    CASES = ((10, 3, True), (12, 3, True), ("demo8", 4, False))

    def __init__(self, root: Path, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.calls = []
        for n, r, expected in self.CASES:
            g = graph.demo_graph_8() if n == "demo8" else graph.complete_digraph(n)
            rows = [list(rng.permutation(row)) for row in g.in_neighbors]
            self.calls.append((f"{n}", graph.DirectedGraph.from_lists(rows), r, expected))

    def rep(self, outdir: Path) -> Rep:
        rep = Rep()
        for label, g, r, expected in self.calls:
            verdict, took = rep.attempt(label, lambda: graph.is_r_robust(g, r))
            if verdict is None:
                continue
            rep.time(label, took)
            rep.observed["graph.is_r_robust.calls"] += 1
            rep.signature.append((label, r, verdict))
            rep.check(f"{label} r={r}", verdict is expected, f"(verdict {verdict})")
        return rep

    def figures(self, reps):
        return (1e3 * statistics.median(pooled(reps, "10")),
                1e3 * statistics.median(pooled(reps, "12")))


WORKLOADS = {w.name: w for w in (RunShipped, SweepFrontier, LargeN, Certify)}
