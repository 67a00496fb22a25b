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
violation messages and suppressed count, which the trace does not show, and,
apart from the bytes, its outcome, its event count and a digest of the
(kind, node) sequence of its trace rows: a change that may move the floats
by rounding must leave these as they are.
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
    "flooding_detection-eager-nohalt-absolute": "07958aea5e8dc802903713f3ac7c84a1c5418f23a05dc70576b2508318f06d12",
    "flooding_detection-eager-nohalt-relative": "a38a34c132f6709bf157b57f1d880b634d054ce3a2a1ea6b738380998de437c9",
    "flooding_detection-relative": "e3a3bceb97ddc9b7729e31418c55253eb961bbc3ae07d895aa93e99a2bf5327e",
    "frontier_sweep-absolute": "661afd4f500da9ebe1a80c7620cd24adc4eacaf1f3f41b24ef94c435d76b4367",
    "frontier_sweep-monitor_off-absolute": "661afd4f500da9ebe1a80c7620cd24adc4eacaf1f3f41b24ef94c435d76b4367",
    "frontier_sweep-monitor_off-relative": "6cd0034c08a8125784afe814ea27a0392a702e65115da921615ac98e9c2d5215",
    "frontier_sweep-relative": "6cd0034c08a8125784afe814ea27a0392a702e65115da921615ac98e9c2d5215",
    "k16_flood-eager-nohalt-monitor_off-absolute": "bab884f21a52c0843d10cfe4b77e20e9087888891d2711171668e6ec5ff77df4",
    "k16_flood-eager-nohalt-monitor_off-relative": "5bf3defea31c43393f27bfb15298f333e5a0f0e22b611eebec28f368e79dfd62",
    "k16_sync-monitor_off-absolute": "14aae3504de1a753c8b7825fe7e327d615a16d4687b60ae4fcb4709ebcc47fef",
    "k16_sync-monitor_off-relative": "1dea49c49f7a63a01ed2a6adeb463a850856af87daddca9d2459f7f7a5600eab",
    "nominal_sync-absolute": "e348864cf12898449c7858eae603cf8e3ca9fbca62a5720ed05e55cf6291cf5f",
    "nominal_sync-relative": "5ff6fde2903e5e319c612af06465dd4650802c68dcf5b83b3118ba6c6cc3763e",
    "relative_equivalence-absolute": "5a619fa3404d7341d79c872dbc34199ccfddcb8ececd87c4cbe0abadb6c9deb0",
    "relative_equivalence-relative": "0c6fccd7e8c637f0897e2880186a832717bbc24fe3a091aaef5487d4ae444679",
    "stealthy_attack-absolute": "4122da03b32f8204146be5ae37294944ee321738c8c5ffe9d772f6c63e6a7e08",
    "stealthy_attack-alpha-absolute": "69c834545a95e15a980ee8429b356f4018d46d0aa667e2fffae10f8a57fdb98c",
    "stealthy_attack-alpha-relative": "f4a9b86e561af07001f101c6bea89620b83263f641471056f3a0e41cff97e735",
    "stealthy_attack-monitor_off-absolute": "4122da03b32f8204146be5ae37294944ee321738c8c5ffe9d772f6c63e6a7e08",
    "stealthy_attack-monitor_off-relative": "c7d01beed2c86309532d9722e75bd358a2ce3427eca40f57b88e0624abebfb18",
    "stealthy_attack-relative": "c7d01beed2c86309532d9722e75bd358a2ce3427eca40f57b88e0624abebfb18",
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
    "flooding_detection-eager-nohalt-relative": "1b8ed3ca9fbbc6b32559a70da19ce7e38542dc4f7351ae98296a91130c9fb77c",
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
    "nominal_sync-relative": "57f66f317066d030e552c1d19e4f5094657fd4f66f9771cf3bfafba39a69486a",
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


# Each case's event order apart from its floats: the SHA-256 of its trace
# rows' (kind, node) pairs, its outcome and its event count.
EVENT_ORDERS = {
    "flooding_detection-absolute": ("3f7cd1c973659c8dde623ad83ddb6221aa4ac4f71f04dcdb9fb089d49f6797da", "detected", 14),
    "flooding_detection-eager-nohalt-absolute": ("9a4959a9d244e580be69c83c7de2d047f95a2d7f187065d83395e07abd1c4d19", "horizon", 609),
    "flooding_detection-eager-nohalt-relative": ("16a33f3638c9f3d735a3b14aa71e53dd6ec96a24e89a74adda68db231aea511b", "horizon", 1036),
    "flooding_detection-relative": ("91786241cc20cbca998f07f308a859ff73446a07b2300a4964828041a378fd70", "detected", 21),
    "frontier_sweep-absolute": ("9649bdc864ea8d209ca698fa16e8cfc3fc398a13664bacef57344d8fcd98b575", "detected", 10),
    "frontier_sweep-monitor_off-absolute": ("9649bdc864ea8d209ca698fa16e8cfc3fc398a13664bacef57344d8fcd98b575", "detected", 10),
    "frontier_sweep-monitor_off-relative": ("55859fa4c76434fd674d2b886a9ae4dbcfa5fad81c54b3f12008554d84735e24", "detected", 16),
    "frontier_sweep-relative": ("55859fa4c76434fd674d2b886a9ae4dbcfa5fad81c54b3f12008554d84735e24", "detected", 16),
    "k16_flood-eager-nohalt-monitor_off-absolute": ("8b669f767c60ee5d4d52b04b35a2754434407ba3423820c8599ade750fbf86d4", "horizon", 634),
    "k16_flood-eager-nohalt-monitor_off-relative": ("e9b9443ace4a83534c85f8903c5adaa45b6f83ba1d54e218dd80374ec03ea89d", "horizon", 1234),
    "k16_sync-monitor_off-absolute": ("6cb85f0349d9ae5733f58642a40741a0865afa15d54f5080901f3857f70c8070", "converged", 479),
    "k16_sync-monitor_off-relative": ("8085f44a427dc7e9eced3412e292ffae44782fefa732d59b3e3836503d3c13de", "converged", 703),
    "nominal_sync-absolute": ("b853f6302f238effc805b5b3945e4936ff168e6dd1687436dfaa75bcd5583bea", "converged", 328),
    "nominal_sync-relative": ("9c0cec560cab8be39b0006bee409d761845acce5ea35c98a55544332939f5b7f", "converged", 488),
    "relative_equivalence-absolute": ("3a36615ef31d7e15d4b93cfa270d037023761bd85196033ce146a07015423965", "converged", 189),
    "relative_equivalence-relative": ("03de74bccb9783cb9d30eef8d6dda5f6bb9d8ab502583e347d4b1ae0ff9893b1", "converged", 279),
    "stealthy_attack-absolute": ("6786ab7cf58b5edb3ebb1818a5d3ad4bffc5bab71ba02ae495221546d88b32d3", "converged", 84),
    "stealthy_attack-alpha-absolute": ("05a9cf502487e8873afe2a5fbdf1c47b31f77dd1f100ebaf9b380e8fb07d3ff9", "detected", 16),
    "stealthy_attack-alpha-relative": ("ce2da5e70f2b3053c58fc61cae6bac451d3526eb3f0f04fda4aeac2ab5f4e6b0", "detected", 25),
    "stealthy_attack-monitor_off-absolute": ("6786ab7cf58b5edb3ebb1818a5d3ad4bffc5bab71ba02ae495221546d88b32d3", "converged", 84),
    "stealthy_attack-monitor_off-relative": ("8dc8553ec743a29e4b67d39965646b5ca20c37afed293a5b742ecee01ea3753e", "converged", 153),
    "stealthy_attack-relative": ("8dc8553ec743a29e4b67d39965646b5ca20c37afed293a5b742ecee01ea3753e", "converged", 153),
    "stealthy_attack-seed1-absolute": ("8aaa210bc3b75eee80d2ee97f8378814e95bcc81f1e37a55d15a25f416fb4004", "detected", 16),
    "stealthy_attack-seed1-relative": ("ca2da4debbec12ae8c13a37d205cf38536986ddb5dc5f42e759820f683bd0e3f", "detected", 26),
    "stealthy_attack-seed4-absolute": ("49c774689fe86a04cb5530bb2d3622c0d156465346b3e9f7e458f29685ae6bc2", "fault", 4),
    "stealthy_attack-seed4-relative": ("09365842d6aaccffc31c777d52a3ea234e0d16f1292af821da9d8ede1dcf259d", "fault", 7),
}

@functools.lru_cache(maxsize=None)
def case_digests(case: str) -> tuple[str, str, tuple[str, str, int]]:
    """SHA-256 of the case's trace CSV, of the ``repr`` of its monitor
    violations with the suppressed count, and the case's event order:
    the SHA-256 of its rows' (kind, node) pairs, its outcome and its event
    count."""
    source, overrides = CASES[case]
    base = load_scenario(SCENARIOS / f"{source}.json") if isinstance(source, str) else source
    config = dataclasses.replace(base, **{"monitor": "warn", **overrides})
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{case}.csv"
        result = run_scenario(config, trace_path=path)
        trace = hashlib.sha256(path.read_bytes()).hexdigest()
    metrics = result.metrics
    violations = repr((metrics.violations, metrics.suppressed_violations()))
    kinds = "".join(f"{row.event_kind},{row.node}\n" for row in metrics.rows)
    order = (hashlib.sha256(kinds.encode()).hexdigest(), result.outcome, result.world.event_count)
    return trace, hashlib.sha256(violations.encode()).hexdigest(), order


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES) == set(VIOLATION_DIGESTS) == set(EVENT_ORDERS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_frozen(case):
    assert case_digests(case)[0] == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_violation_digest_is_frozen(case):
    assert case_digests(case)[1] == VIOLATION_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_order_outcome_and_count_are_frozen(case):
    assert case_digests(case)[2] == EVENT_ORDERS[case]
