"""Frozen SHA-256 digests of per-event trace CSVs and monitor violations.

The README promises byte-for-byte reproducible traces. These digests pin
that promise across refactors: every shipped scenario runs under both
protocol variants (with the monitor in warn mode, so a strict-mode abort
cannot cut a run short), plus a few variants that reach the fault,
detection, eager-detection and configured-weight paths, traced runs
with the monitor off, where only the trace reads the virtual node, and
near-synchronized 16-node complete graphs, where most events share their
clock with the event before (plus one with a flooding attacker, eager
detection and no halt, where detection latches between such events). A
digest may only change together with a CHANGES.md entry naming the
intended change in floating-point output. Each case also pins its monitor
violation messages and suppressed count, which the trace does not show.
"""

import dataclasses
import functools
import hashlib
import tempfile
from pathlib import Path

import pytest

from pcosync import (
    AttackerSpec,
    ConfiguredAlpha,
    ScenarioConfig,
    complete_digraph,
    load_scenario,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SHIPPED = (
    "flooding_detection",
    "frontier_sweep",
    "nominal_sync",
    "relative_equivalence",
    "stealthy_attack",
)

# Phases within 0.03 of a turn and frequencies within 1.5%: the nodes fire
# in lockstep within a few rounds, so most events happen at an unchanged clock.
K16_SYNC = ScenarioConfig(
    graph=complete_digraph(16),
    f=1,
    zeta=0.1,
    phases=[0.002 * ((5 * k) % 16) for k in range(16)],
    frequencies=[1.0 + 0.001 * ((3 * k) % 16) for k in range(16)],
    horizon=40.0,
    monitor="off",
    name="k16_sync",
)
K16_FLOOD = dataclasses.replace(
    K16_SYNC,
    attackers=[
        AttackerSpec(5, "flooding", {"burst_count": 4, "burst_interval": 0.02, "start_time": 3.1})
    ],
    eager_detection=True,
    halt_on_detection=False,
    name="k16_flood",
)

# case id -> (scenario file stem or config, field overrides; monitor
# defaults to "warn")
CASES = {
    **{f"{name}-{alg}": (name, {"algorithm": alg}) for name in SHIPPED for alg in ("absolute", "relative")},
    **{
        f"stealthy_attack-seed{seed}-{alg}": ("stealthy_attack", {"algorithm": alg, "seed": seed})
        for seed in (1, 4)
        for alg in ("absolute", "relative")
    },
    **{
        f"flooding_detection-eager-nohalt-{alg}": (
            "flooding_detection",
            {"algorithm": alg, "eager_detection": True, "halt_on_detection": False},
        )
        for alg in ("absolute", "relative")
    },
    **{
        f"stealthy_attack-alpha-{alg}": ("stealthy_attack", {"algorithm": alg, "weights": ConfiguredAlpha(0.1)})
        for alg in ("absolute", "relative")
    },
    **{
        f"{name}-monitor_off-{alg}": (name, {"algorithm": alg, "monitor": "off"})
        for name in ("frontier_sweep", "stealthy_attack")
        for alg in ("absolute", "relative")
    },
    **{
        f"k16_sync-monitor_off-{alg}": (K16_SYNC, {"algorithm": alg, "monitor": "off"})
        for alg in ("absolute", "relative")
    },
    **{
        f"k16_flood-eager-nohalt-monitor_off-{alg}": (K16_FLOOD, {"algorithm": alg, "monitor": "off"})
        for alg in ("absolute", "relative")
    },
}

DIGESTS = {
    "flooding_detection-absolute": "08ac4626edf0dd9849d847725cde30a8d302435f1cc2f139234e13aa294e9b74",
    "flooding_detection-eager-nohalt-absolute": "b0c1bf806360dc0259cbb664c5a0883ea41e2540d0b92b8488e65691b85d6ed6",
    "flooding_detection-eager-nohalt-relative": "365baec31079ef3dbcc5b8f773751256ea617f903454633076480375b94f01d6",
    "flooding_detection-relative": "e3a3bceb97ddc9b7729e31418c55253eb961bbc3ae07d895aa93e99a2bf5327e",
    "frontier_sweep-absolute": "661afd4f500da9ebe1a80c7620cd24adc4eacaf1f3f41b24ef94c435d76b4367",
    "frontier_sweep-monitor_off-absolute": "661afd4f500da9ebe1a80c7620cd24adc4eacaf1f3f41b24ef94c435d76b4367",
    "frontier_sweep-monitor_off-relative": "6cd0034c08a8125784afe814ea27a0392a702e65115da921615ac98e9c2d5215",
    "frontier_sweep-relative": "6cd0034c08a8125784afe814ea27a0392a702e65115da921615ac98e9c2d5215",
    "k16_flood-eager-nohalt-monitor_off-absolute": "bab884f21a52c0843d10cfe4b77e20e9087888891d2711171668e6ec5ff77df4",
    "k16_flood-eager-nohalt-monitor_off-relative": "a4063a3328e4978fa6553a325b6a953a87fe13b740cae41dbc45a6c8cf519c8b",
    "k16_sync-monitor_off-absolute": "343a72ab25f366bbc40798679f36dc45a9bd4d68e2f40466c9aa24213722e5a3",
    "k16_sync-monitor_off-relative": "2a415ca7136115c0560841a56730399957355c7ad4211c96ce1f131ca050fa7d",
    "nominal_sync-absolute": "2a850c336a429ded206fac1b17bfe9216d4d0001d7e1b4ff31124dd6667083db",
    "nominal_sync-relative": "d4d0909b107c52512858989648435bfc1c5192949298c787aa73e2ab0dc0bd32",
    "relative_equivalence-absolute": "5a619fa3404d7341d79c872dbc34199ccfddcb8ececd87c4cbe0abadb6c9deb0",
    "relative_equivalence-relative": "4d5b5a5030c2169fff93518273af2905ddab50b6ffeec30610eda85eea4dc701",
    "stealthy_attack-absolute": "18daa44488adaf17e34f580ad43751cc5b17544fca65c5791ed688bbb2507c0b",
    "stealthy_attack-alpha-absolute": "69c834545a95e15a980ee8429b356f4018d46d0aa667e2fffae10f8a57fdb98c",
    "stealthy_attack-alpha-relative": "f4a9b86e561af07001f101c6bea89620b83263f641471056f3a0e41cff97e735",
    "stealthy_attack-monitor_off-absolute": "18daa44488adaf17e34f580ad43751cc5b17544fca65c5791ed688bbb2507c0b",
    "stealthy_attack-monitor_off-relative": "565181b39edac69ac10062096b297dbf8a1178ba860a5e59f0d8993ca7c794d6",
    "stealthy_attack-relative": "565181b39edac69ac10062096b297dbf8a1178ba860a5e59f0d8993ca7c794d6",
    "stealthy_attack-seed1-absolute": "152b8efbd34e06d38f4a62fc3d6f84227f107d2920fecfafd7d013bd4a4eb761",
    "stealthy_attack-seed1-relative": "d7334370d2ea5b288cc9e5f5a803a08f3ebc55c3fad99285f4f213801af2154b",
    "stealthy_attack-seed4-absolute": "af0411cd65db9d88f5ba7d78bbd544d52d995647438ba090d4e7f955d8870349",
    "stealthy_attack-seed4-relative": "2e22169e7959b458034c15a3619642480f994aabc133b070acfcd9bfc22db7ae",
}

# The monitor's findings on the same runs: most are empty, but the warn-mode
# cases that break a guarantee condition pin the exact messages and counts.
VIOLATION_DIGESTS = {
    "flooding_detection-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "flooding_detection-eager-nohalt-absolute": "66d35dbbd44527db316b476fa31c71dd3b66875d8d87d6c420f39ab0a90fe092",
    "flooding_detection-eager-nohalt-relative": "1211bd1d2b6f1db90fbf33e85cc5f6c023095cb5fb314dc01ff79feb44653414",
    "flooding_detection-relative": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "frontier_sweep-absolute": "f3c27717d87057bbdcc6b52c5f618146ed272e5fa1ef09a017023d0239e29c72",
    "frontier_sweep-monitor_off-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "frontier_sweep-monitor_off-relative": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "frontier_sweep-relative": "bbaef02288af41376ef585c0b2d4207025ef452189b2e602c803d46aa92f2359",
    "k16_flood-eager-nohalt-monitor_off-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "k16_flood-eager-nohalt-monitor_off-relative": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "k16_sync-monitor_off-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "k16_sync-monitor_off-relative": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "nominal_sync-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "nominal_sync-relative": "5e1bfb0327ffc7dfbe5a005bbbf9fe696cf6087f8d9510d3534de793e9eda5f3",
    "relative_equivalence-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "relative_equivalence-relative": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "stealthy_attack-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "stealthy_attack-alpha-absolute": "f277640f01ed40464e8a1a88b6ba0e28eb8acd99b028e921f13214e711852fea",
    "stealthy_attack-alpha-relative": "a159a68e445d8d879a79007c6c7daa36e98f7a62435c0b2ff1f144aa38875e2b",
    "stealthy_attack-monitor_off-absolute": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "stealthy_attack-monitor_off-relative": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "stealthy_attack-relative": "078c4414e8299d5b4df50c2a690b329319826cffa6356472a36fc0ad6106f58a",
    "stealthy_attack-seed1-absolute": "4bfdc20fc94284ff9a02225234e16b7e8abc02a7eed5f6043fed77c4fcb8b9f3",
    "stealthy_attack-seed1-relative": "add5d1d9d945eddc23aeffaf3c3ab5a97088ca76dbe056c03c6f3b4bca858ab7",
    "stealthy_attack-seed4-absolute": "0becf69f2e3c4c3f825268efe53a2c8535361a4732d3ea6190b1b98dc9a7e6fe",
    "stealthy_attack-seed4-relative": "d4e607fdd7bb67e1b1d071360a3ae3cda13378580aa9d8734cbe3d1e0e4eba1f",
}


@functools.lru_cache(maxsize=None)
def case_digests(case: str) -> tuple[str, str]:
    """SHA-256 of the case's trace CSV, and of the ``repr`` of its monitor
    violations with the suppressed count."""
    source, overrides = CASES[case]
    base = load_scenario(SCENARIOS / f"{source}.json") if isinstance(source, str) else source
    config = dataclasses.replace(base, **{"monitor": "warn", **overrides})
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{case}.csv"
        metrics = run_scenario(config, trace_path=path).metrics
        trace = hashlib.sha256(path.read_bytes()).hexdigest()
    violations = repr((metrics.violations, metrics.suppressed_violations()))
    return trace, hashlib.sha256(violations.encode()).hexdigest()


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES) == set(VIOLATION_DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_frozen(case):
    assert case_digests(case)[0] == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_violation_digest_is_frozen(case):
    assert case_digests(case)[1] == VIOLATION_DIGESTS[case]
