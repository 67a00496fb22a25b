#!/usr/bin/env python3
"""Two adversaries, two endings.

A stealthy attacker rations itself to one pulse per round, so it can never
be told apart from a legitimate neighbor; the protocol simply absorbs it
and the normal nodes synchronize anyway.  A flooding attacker fires a
burst, and the first normal receiver to reach its own update sees more
pulses than it has in-neighbors, latches detection, and the run halts.
"""

import argparse
import dataclasses
from pathlib import Path

from pcosync import RandomInterval, load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def stealthy(seed: int) -> None:
    base = load_scenario(SCENARIOS / "stealthy_attack.json")
    config = dataclasses.replace(base, seed=seed)
    result = run_scenario(config)
    omegas = result.world.normal_omegas()
    spread = max(omegas) - min(omegas)
    print(f"stealthy attack, seed {seed}:")
    print(f"  outcome: {result.outcome} at t = {result.world.clock:.2f}")
    print(f"  final arc: {result.metrics.delta:.2e}, frequency spread: {spread:.2e}")
    print(f"  detections: {result.detections}  (a stealthy attacker leaves none)")
    print(f"  monitor violations: {len(result.metrics.violations)}")


def flooding(seed: int) -> None:
    base = load_scenario(SCENARIOS / "flooding_detection.json")
    config = dataclasses.replace(
        base,
        phases=RandomInterval(0.0, 0.4),
        frequencies=RandomInterval(1.0, 1.1),
        seed=seed,
    )
    result = run_scenario(config, collect_trace=True)
    print(f"flooding attack, seed {seed}:")
    print(f"  burst: 7 pulses from node 1 starting at t = 1.2")
    print(f"  outcome: {result.outcome}")
    for k, t, node in result.detections:
        row = result.metrics.rows[k]
        print(f"  node {node} latched at its t = {t:.3f} {row.event_kind}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args()
    stealthy(args.seed)
    print()
    flooding(args.seed % 20)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
