"""Acceptance gate: end-to-end checks over the shipped scenarios.

Each test prints one [PASS]/[FAIL] line with its elapsed time and budget;
run with ``pytest tests/test_acceptance.py -v -s`` to see them live.  The
stealthy-run corpus below is pinned: the 50 seeds are the first fifty in
ascending order from [0, 3000) whose stealthy-attack run converged with a
clean monitor when the corpus was frozen, and they must keep doing so.
"""

import dataclasses
import functools
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_arc, circle_dist, naive_is_r_robust, all_digraphs
from pcosync import (
    RandomInterval,
    ScenarioConfig,
    SweepSpec,
    clockwise_dist,
    complete_digraph,
    containing_arc,
    demo_graph_8,
    is_r_robust,
    load_scenario,
    max_robustness,
    random_digraph,
    run_scenario,
    sweep_frontier,
    write_frontier,
)
from pcosync.sweep import format_frontier

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

CORPUS = [
    17, 28, 34, 36, 46, 48, 50, 51, 56, 61,
    80, 95, 96, 102, 106, 121, 123, 127, 139, 141,
    142, 150, 152, 165, 169, 213, 222, 223, 236, 252,
    260, 262, 268, 273, 284, 298, 309, 310, 314, 320,
    325, 332, 342, 344, 364, 372, 384, 389, 392, 397,
]

FRONTIER_GRID = (0.05, 0.15, 0.25, 0.35, 0.45)


class _Gate:
    """Context manager that prints the verdict line and enforces the budget."""

    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"[{verdict}] {self.label} ({elapsed:.1f}s, budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"{self.label} took {elapsed:.1f}s, budget {self.budget_s:.0f}s"
            )
        return False


@functools.lru_cache(maxsize=None)
def corpus_results():
    base = load_scenario(SCENARIOS / "stealthy_attack.json")
    return {
        seed: run_scenario(dataclasses.replace(base, seed=seed))
        for seed in CORPUS
    }


@functools.lru_cache(maxsize=None)
def frontier(parallelism: int):
    spec = SweepSpec(
        base=load_scenario(SCENARIOS / "frontier_sweep.json"),
        arc_grid=FRONTIER_GRID,
        trials=100,
        spread_cap=1.0,
        bisect_tol=0.01,
        seed=0,
        success_threshold=0.95,
    )
    return sweep_frontier(spec, parallelism=parallelism)


def test_01_robustness_oracle():
    with _Gate("robustness oracle", 60.0):
        demo = demo_graph_8()
        assert is_r_robust(demo, 3)
        assert not is_r_robust(demo, 4)
        assert max_robustness(demo) == 3

        # Robustness is downward closed in r on every graph tried.
        for seed in range(100):
            n = 4 + seed % 4
            p = (0.3, 0.5, 0.8)[seed % 3]
            graph = random_digraph(n, p, seed=seed)
            flags = [is_r_robust(graph, r) for r in range(1, n)]
            assert flags == sorted(flags, reverse=True)

        # Exact agreement with the subset-pair definition on small graphs.
        for n in (2, 3):
            for graph in all_digraphs(n):
                for r in range(1, n):
                    assert is_r_robust(graph, r) == naive_is_r_robust(graph, r)
        for seed in range(100):
            for n in (4, 5):
                p = (0.3, 0.5, 0.8)[seed % 3]
                graph = random_digraph(n, p, seed=10_000 + 7 * seed + n)
                for r in range(1, n):
                    assert is_r_robust(graph, r) == naive_is_r_robust(graph, r)


def test_02_nominal_convergence():
    with _Gate("nominal convergence", 5.0):
        config = load_scenario(SCENARIOS / "nominal_sync.json")
        result = run_scenario(config, collect_trace=True)
        assert result.outcome == "converged"
        assert result.world.clock <= 200.0
        assert result.metrics.delta < 1e-6
        assert result.metrics.violations == []
        # Homogeneous start: the frequency corrections must cancel exactly.
        for row in result.metrics.rows:
            assert all(w == 1.0 for w in row.omegas)


def test_03_stealthy_corpus_converges_cleanly():
    with _Gate("stealthy corpus", 120.0):
        for seed, result in corpus_results().items():
            assert result.outcome == "converged", (seed, result.outcome)
            assert result.world.clock <= 500.0, seed
            assert result.metrics.delta < 1e-4, seed
            normal = result.world.normal_omegas()
            assert max(normal) - min(normal) < 1e-4, seed
            assert result.metrics.violations == [], (seed, result.metrics.violations[:3])
            assert result.metrics.suppressed_violations() == 0, seed
            assert result.detections == [], seed


def test_04_flooding_is_detected_and_never_falsely():
    with _Gate("flooding detection", 30.0):
        base = load_scenario(SCENARIOS / "flooding_detection.json")
        receivers = {
            i for i in range(base.graph.node_count)
            if 1 in base.graph.in_neighbors[i]
        }
        for seed in range(20):
            config = dataclasses.replace(
                base,
                phases=RandomInterval(0.0, 0.4),
                frequencies=RandomInterval(1.0, 1.1),
                seed=seed,
            )
            result = run_scenario(config, collect_trace=True)
            assert result.outcome == "detected", (seed, result.outcome)
            k, t, node = result.detections[0]
            assert node in receivers, (seed, node)
            # Latched at that node's own next update after the burst begins.
            assert 1.2 <= t < 2.5, (seed, t)
            row = result.metrics.rows[k]
            assert row.event_kind == "update" and row.node == node, (seed, k)

        # The same detector stays quiet on every clean corpus run.
        for seed, result in corpus_results().items():
            assert result.detections == [], seed


def test_05_relative_protocol_matches_absolute_when_attack_free():
    with _Gate("protocol equivalence", 30.0):
        for seed in range(10):
            config = ScenarioConfig(
                graph=complete_digraph(5),
                algorithm="absolute",
                f=1,
                zeta=0.1,
                phases=RandomInterval(0.0, 0.18),
                frequencies=RandomInterval(1.0, 1.05),
                seed=seed,
                horizon=40.0,
                monitor="warn",
            )
            absolute = run_scenario(config, collect_trace=True)
            relative = run_scenario(
                dataclasses.replace(config, algorithm="relative"),
                collect_trace=True,
                collect_ratios=True,
            )
            assert absolute.outcome == "converged"
            assert relative.outcome == "converged"
            upd_abs = [(r.node, r.omegas) for r in absolute.metrics.rows
                       if r.event_kind == "update"]
            upd_rel = [(r.node, r.omegas) for r in relative.metrics.rows
                       if r.event_kind == "update"]
            for i in range(5):
                own_abs = [om[i] for node, om in upd_abs if node == i]
                own_rel = [om[i] for node, om in upd_rel if node == i]
                assert min(len(own_abs), len(own_rel)) > 4
                for a, b in zip(own_abs, own_rel):
                    assert abs(a - b) < 1e-9, (seed, i, a, b)
            # Accepted ratios recover the sender's frequency exactly.
            assert relative.ratio_log
            for t, i, j, ratio, before, sender in relative.ratio_log:
                assert sender is not None
                assert abs(ratio * before - sender) < 1e-9, (seed, i, j)


def test_06_frontier_is_monotone():
    with _Gate("spread frontier", 600.0):
        points = frontier(4)
        assert [p.arc0 for p in points] == pytest.approx(list(FRONTIER_GRID))
        for p in points:
            assert p.spread0_max > 0.0, p
            assert p.success_rate >= 0.95, p
        for prev, nxt in zip(points, points[1:]):
            assert nxt.spread0_max <= prev.spread0_max + 0.01, (prev, nxt)


def test_07_geometry_matches_the_oracles():
    with _Gate("geometry oracles", 5.0):
        rng = np.random.default_rng(424242)
        for trial in range(1000):
            size = int(rng.integers(1, 13))
            if trial % 3 == 0:
                phases = list(rng.integers(0, 32, size=size) / 32.0)
            else:
                phases = list(rng.uniform(0.0, 1.0, size=size))
            length, tail, head = brute_force_arc(phases)
            arc = containing_arc(phases)
            assert arc.length == pytest.approx(length, abs=1e-12)
            assert arc.tail == tail and arc.head == head

        for _ in range(1000):
            a, b = rng.uniform(0.0, 1.0, size=2)
            assert clockwise_dist(a, b) == circle_dist(a, b)
            assert clockwise_dist(a, a) == 0.0
            if a != b:
                total = clockwise_dist(a, b) + clockwise_dist(b, a)
                assert total == pytest.approx(1.0, abs=1e-12)


def test_08_runs_are_deterministic(tmp_path):
    with _Gate("determinism", 120.0):
        base = load_scenario(SCENARIOS / "stealthy_attack.json")
        for stem, config in (
            ("nominal", load_scenario(SCENARIOS / "nominal_sync.json")),
            ("stealthy", dataclasses.replace(base, seed=17)),
        ):
            first = tmp_path / f"{stem}_a.csv"
            second = tmp_path / f"{stem}_b.csv"
            run_scenario(config, trace_path=first)
            run_scenario(config, trace_path=second)
            assert first.read_bytes() == second.read_bytes(), stem

        serial = frontier(1)
        parallel = frontier(4)
        assert serial == parallel
        csv_serial = tmp_path / "frontier_serial.csv"
        csv_parallel = tmp_path / "frontier_parallel.csv"
        write_frontier(csv_serial, serial)
        write_frontier(csv_parallel, parallel)
        assert csv_serial.read_bytes() == csv_parallel.read_bytes()


# SHA-256 of the shipped 5-point seed-0 frontier CSV. It may only change
# together with a CHANGES.md entry naming the intended change in output.
SHIPPED_FRONTIER_DIGEST = "8c7c1df6a43c84b0424eb32bc21bc555267571a05a5545925b55dbf2cafc64f8"


def test_09_shipped_frontier_is_frozen():
    with _Gate("frozen frontier", 120.0):
        csv = format_frontier(frontier(1))
        assert hashlib.sha256(csv.encode()).hexdigest() == SHIPPED_FRONTIER_DIGEST
