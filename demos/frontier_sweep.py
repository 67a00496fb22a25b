#!/usr/bin/env python3
"""Estimate how much initial disorder the stealthy-attack scenario absorbs.

For each initial arc width, bisect for the largest initial frequency spread
at which at least 95% of randomized trials still end well (synchronized, or
halted by an honest detection).  Wider packs tolerate less frequency
disorder, so the frontier slopes down.

The full 100-trial sweep is what the test suite runs; the default here is
trimmed for a quick look. Pass --full for the real thing.
"""

import argparse
import os
import time
from pathlib import Path

from pcosync import SweepSpec, load_scenario, sweep_frontier
from pcosync.sweep import pool_size

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "frontier_sweep.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="100 trials per evaluation instead of 25")
    parser.add_argument("--parallelism", type=int, default=os.cpu_count() or 1,
                        help="worker processes; the sweep starts no more than"
                             " the CPUs it may run on (default: all of them)")
    parser.add_argument("--plot", action="store_true",
                        help="draw the frontier (needs matplotlib)")
    args = parser.parse_args()

    spec = SweepSpec(
        base=load_scenario(SCENARIO),
        arc_grid=(0.05, 0.15, 0.25, 0.35, 0.45),
        trials=100 if args.full else 25,
        spread_cap=1.0,
        bisect_tol=0.01,
        seed=0,
    )
    started = time.perf_counter()
    points = sweep_frontier(spec, parallelism=args.parallelism)
    elapsed = time.perf_counter() - started

    print(f"{'arc':>6}  {'max spread':>10}  {'success':>7}")
    for p in points:
        print(f"{p.arc0:6.2f}  {p.spread0_max:10.4f}  {p.success_rate:7.2f}")
    print(f"\n{spec.trials} trials per evaluation, {elapsed:.1f}s"
          f" on {pool_size(args.parallelism, spec.trials)} worker process(es)")
    if not args.full:
        print("(25-trial estimates wiggle; --full restores the monotone frontier)")

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; skipping the plot")
            return 0
        fig, ax = plt.subplots(figsize=(6, 4))
        ax.plot([p.arc0 for p in points], [p.spread0_max for p in points], "o-")
        ax.set_xlabel("initial arc width")
        ax.set_ylabel("largest admissible frequency spread")
        ax.set_ylim(bottom=0)
        fig.tight_layout()
        out = Path("frontier_sweep.png")
        fig.savefig(out, dpi=120)
        print(f"plot written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
