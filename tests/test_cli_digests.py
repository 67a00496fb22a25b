"""Frozen SHA-256 digests of the command line's output on the shipped scenarios.

``run --force --summary -`` under both protocol variants and
``validate-config`` report final arcs, spreads, detections, violation
counts and certifier facts as text; the trace digests do not cover those
lines. Each digest hashes the exit code and the bytes written to stdout. A
digest may only change together with a CHANGES.md entry naming the intended
change in output.
"""

import hashlib
from pathlib import Path

import pytest

from pcosync.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SHIPPED = (
    "flooding_detection",
    "frontier_sweep",
    "nominal_sync",
    "relative_equivalence",
    "stealthy_attack",
)

# case id -> command line arguments after the scenario path
CASES = {
    **{
        f"run-{name}-{alg}": (name, ["run", "--force", "--summary", "-", "--algorithm", alg])
        for name in SHIPPED
        for alg in ("absolute", "relative")
    },
    **{f"validate-config-{name}": (name, ["validate-config"]) for name in SHIPPED},
}

DIGESTS = {
    "run-flooding_detection-absolute": "237e0b2b42710ae20820b1f445ef049982b20e021b2f59ebf7cff18162bebbd3",
    "run-flooding_detection-relative": "4a5b3556ed9a90bf31d6f1c88b315acac4f0efed1243123f96b60ca7bb13223b",
    "run-frontier_sweep-absolute": "8cfac8ecf27480fb4f61f11358bf298cb62774a87baab2dfe132dace987ca21f",
    "run-frontier_sweep-relative": "1978fb9f9a4ef345cc89dc2c80f040ec8a00cad5fadb0b295965af85a6d010a1",
    "run-nominal_sync-absolute": "a1f957e464240e9b090ea3697076d7d46d1af0631a3ca69dc31b3fc4cf904c9c",
    "run-nominal_sync-relative": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "run-relative_equivalence-absolute": "756798287f6fd237801c67af5787075698d4fe75d392679ae225767c9a65b2be",
    "run-relative_equivalence-relative": "d696684c0d10db6ad1ecfab38ea16edcfe53a87e64081ef69b4a314b0cff8ed5",
    "run-stealthy_attack-absolute": "b8318a6839df7db382e5b17961a0ce38ea3d15f4e3b80110db9e0c7df2851ef6",
    "run-stealthy_attack-relative": "9d46014a1486a6581847d85336bf12d470005d23d30dced6760d27f4ccc43ad0",
    "validate-config-flooding_detection": "1eaa434eead365999bbbf0e459275086700c95b9cab6069cee58b573f9f3ac4d",
    "validate-config-frontier_sweep": "51305262212068d94fe4672b3fd4de8d12f737da8a39970226115bba0b85a83e",
    "validate-config-nominal_sync": "a751f556d81cfcf045a6056be53dd5440ca1b7fae5d73affa969d397f5389a8e",
    "validate-config-relative_equivalence": "30e335a4a901ac33d6766b0851e9e8ad9ea95eafc1e933703e276c59277c8960",
    "validate-config-stealthy_attack": "214ce1622b382a47f93991c0942e6311c8635c9c03f967059616c0463df343e3",
}


def cli_digest(case: str, capsys) -> str:
    name, args = CASES[case]
    code = main([args[0], str(SCENARIOS / f"{name}.json"), *args[1:]])
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_frozen(case, capsys):
    assert cli_digest(case, capsys) == DIGESTS[case]
