"""The package's seeded stream, against numpy's, and its draws, pinned.

Every seeded value the package draws comes from ``pcosync.rng``, in three
places: the random graphs of ``random_digraph``, the initial values a
``RandomInterval`` draws in ``ScenarioConfig.build``, and a sweep trial's
``unit_draws``. The stream must be numpy's default generator bit for bit,
and the package must run without numpy. The SHA-256 digests pin each place
directly, over the inputs the tests use and over seeds of one to four
32-bit words: traces and frontier CSVs pin the last two only where a
shipped scenario reaches them, and nothing else pins the graphs. A digest
may only change together with a CHANGES.md entry naming the intended change
in the drawn values.
"""

import dataclasses
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcosync import RandomInterval, ScenarioConfig, complete_digraph, random_digraph, rng
from pcosync.sweep import unit_draws

REPO = Path(__file__).resolve().parent.parent

# Entropy as the package passes it: a seed of any size, a [seed, stream]
# list, and longer lists, whose words past the pool's four mix in last.
ENTROPY = st.one_of(
    st.integers(0, 2**130),
    st.tuples(st.integers(0, 2**130), st.integers(0, 1)).map(list),
    st.lists(st.integers(0, 2**70), max_size=6),
)
SPAWN_KEY = st.one_of(st.just(()), st.tuples(st.integers(0, 2**64), st.integers(0, 2**64)))


@settings(max_examples=300, deadline=None)
@given(entropy=ENTROPY, spawn_key=SPAWN_KEY, n=st.integers(0, 70))
def test_the_stream_is_numpys_bit_for_bit(entropy, spawn_key, n):
    ours = rng.random(entropy, n, spawn_key)
    theirs = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key)).random(n)
    assert struct.pack(f"<{n}d", *ours) == theirs.astype("<f8").tobytes()


BAD_WORD = st.one_of(st.integers(max_value=-1), st.floats())


@given(entropy=st.one_of(BAD_WORD, st.lists(st.one_of(BAD_WORD, st.integers(0, 2**40)),
                                            min_size=1).filter(
    lambda words: any(not isinstance(w, int) or w < 0 for w in words))))
def test_bad_entropy_raises_numpys_error_type(entropy):
    with pytest.raises((TypeError, ValueError)) as theirs:
        np.random.SeedSequence(entropy)
    with pytest.raises(theirs.type):
        rng.random(entropy, 1)


def test_no_entropy_is_refused():
    # numpy would read the operating system's entropy.
    with pytest.raises(TypeError):
        rng.random(None, 1)


# Each shipped scenario run and traced, the robustness certifier on the demo
# graph, then a 2-point frontier sweep, serially and with two workers; its
# stdout lists the exit codes, the summaries and the certifier's answer, and
# whether numpy was imported.
COMMANDS = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from pathlib import Path
from pcosync.cli import main
repo = Path(sys.argv[2])
for scenario in sorted((repo / "scenarios").glob("*.json")):
    print("exit", main(["run", str(scenario), "--trace", scenario.stem + ".csv"]), flush=True)
print("exit", main(["check-robustness", str(repo / "scenarios" / "graphs" / "demo8.txt")]), flush=True)
for par in ("1", "2"):
    print("exit", main(["sweep", str(repo / "scenarios" / "frontier_sweep.json"),
                        "--grid", "0.05,0.45", "--trials", "20", "--parallelism", par,
                        "--output", "frontier_p" + par + ".csv"]), flush=True)
print("numpy imported:", sys.modules.get("numpy") is not None)
"""


def run_commands(mode: str, cwd: Path) -> tuple[str, dict[str, bytes]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COMMANDS, mode, str(REPO)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}


def test_the_cli_runs_and_sweeps_without_numpy_byte_for_byte(tmp_path):
    (tmp_path / "block").mkdir()
    (tmp_path / "allow").mkdir()
    blocked = run_commands("block", tmp_path / "block")
    allowed = run_commands("allow", tmp_path / "allow")
    assert blocked[0].endswith("numpy imported: False\n")
    assert "max_robustness: 3\nexit 0\n" in blocked[0]
    # With numpy importable, nothing imports it either.
    assert allowed == blocked
    assert sorted(blocked[1]) == sorted(
        [p.stem + ".csv" for p in (REPO / "scenarios").glob("*.json")]
        + ["frontier_p1.csv", "frontier_p2.csv"]
    )
    assert blocked[1]["frontier_p1.csv"] == blocked[1]["frontier_p2.csv"]


def digest_floats(values) -> str:
    values = list(values)
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def digest_graphs(graphs) -> str:
    return hashlib.sha256(repr([g.in_neighbors for g in graphs]).encode()).hexdigest()


PS = (0.3, 0.5, 0.8)

# The (n, p, seed) sets of test_graph.py and test_acceptance.py.
GRAPH_SETS = {
    "certifier-n4": [(4, PS[s % 3], s) for s in range(150)],
    "certifier-n5": [(5, PS[s % 3], 1000 + s) for s in range(100)],
    "downward-closed": [(3 + s % 5, PS[s % 3], 2000 + s) for s in range(100)],
    "deterministic": [(6, 0.5, 42), (6, 0.0, 7), (6, 1.0, 7)],
    "roundtrip": [(2 + s % 8, 0.4, s) for s in range(20)],
    "acceptance-downward": [(4 + s % 4, PS[s % 3], s) for s in range(100)],
    "acceptance-naive": [(n, PS[s % 3], 10_000 + 7 * s + n) for s in range(100) for n in (4, 5)],
}

GRAPH_DIGESTS = {
    "certifier-n4":
        "3f799d297848b1aedc73c36c55bedcfa6a8a28e06d69c3f869f17b8e09b7cbaa",
    "certifier-n5":
        "44a18ced3fba378c723ff009d73ea6d9c5abac5cc9c754083a0d885555c4becc",
    "downward-closed":
        "00979cdacbef017c7294b7a9d6ca10a0e18dfc5d3ca8bd0dade7c6bac103d5d8",
    "deterministic":
        "c7a0f2cd3a82cac582952c7907108e47d27cea14ef6e87af1cc497e90a5e95ed",
    "roundtrip":
        "ba166e413aaa253f58223109d8e7b989e32b321a8af8120ee68abfe80048ac6c",
    "acceptance-downward":
        "fbfdeeaf4c0c5bf92a0cb09a87245738054beefb5a57c00937f4dac8c86a23bb",
    "acceptance-naive":
        "700411e0b16ec44e6d0c7961bb53cc36e400cd4e7e3f1139cce7150b03efe8c7",
}


@pytest.mark.parametrize("name", sorted(GRAPH_SETS))
def test_random_digraphs_are_pinned(name):
    graphs = [random_digraph(n, p, seed) for n, p, seed in GRAPH_SETS[name]]
    assert digest_graphs(graphs) == GRAPH_DIGESTS[name]


DRAWN = ScenarioConfig(
    graph=complete_digraph(8),
    phases=RandomInterval(0.0, 0.3),
    frequencies=RandomInterval(1.0, 1.05),
    normalize_phases=False,
    normalize_frequencies=False,
    monitor="off",
)

# (config seed, phases' own seed, frequencies' own seed): one to four words
# of config seed, and per-spec seeds of one and three words.
BUILD_CASES = {
    "seed-0": (0, None, None),
    "seed-17": (17, None, None),
    "seed-2**40": (2**40, None, None),
    "seed-10**30": (10**30, None, None),
    "own-seeds": (17, 12345, 2**70 + 5),
}

BUILD_DIGESTS = {
    "seed-0":
        "6dac0958c484a7732269cdca6bd71fa1f4ea80c95e2f4beb3b5f6ee8bb41666c",
    "seed-17":
        "56b7c28423ec473073941634d3d8c05ceb742570434fc550611d192cce8ff8d6",
    "seed-2**40":
        "2618cc0552c16ceedb5de1e5cd8a6e62cfb7f836d4be1685e410d7c74f390b03",
    "seed-10**30":
        "437050db72fe616d585534e998568b251f2ee8ab867da70636d953edb5159cbc",
    "own-seeds":
        "d246376a055e0d26958421591ecd5d3e48f66ca84cdf7386a722d69773cde984",
}


@pytest.mark.parametrize("name", sorted(BUILD_CASES))
def test_built_initial_values_are_pinned(name):
    seed, phase_seed, freq_seed = BUILD_CASES[name]
    config = dataclasses.replace(
        DRAWN,
        seed=seed,
        phases=dataclasses.replace(DRAWN.phases, seed=phase_seed),
        frequencies=dataclasses.replace(DRAWN.frequencies, seed=freq_seed),
    )
    world = config.build()[1]
    phases = [o.phase for o in world.oscillators]
    freqs = [o.omega for o in world.oscillators]
    assert digest_floats(phases + freqs) == BUILD_DIGESTS[name]


# (seed, grid index, trial index, n): spawn keys of one and two words each.
UNIT_DRAW_DIGESTS = {
    (0, 0, 0, 8):
        "be1b2ec3820512ed8176bc8d976c7878ab32ce8ad8af0b7ed192e7f83c3fcce6",
    (7, 3, 11, 5):
        "6ad60d4d96048201ac3f9b59aba6de5ee0248687f0546d8e9d0f3cbe5fc5279d",
    (2**40, 2**33, 2**63, 3):
        "5e0c4df3d0acab7d84af1ad686a003106ce25780663f8d4a37c97949d14789a8",
    (10**30, 1, 2, 70):
        "1a882b13714722fa4044b9f2d7b35f8c8842398d80b4d05c4fe9cd2f49a110b6",
}


@pytest.mark.parametrize("case", sorted(UNIT_DRAW_DIGESTS), ids=str)
def test_unit_draws_are_pinned(case):
    u0, u1 = unit_draws(*case)
    assert len(u0) == len(u1) == case[3]
    assert digest_floats(u0 + u1) == UNIT_DRAW_DIGESTS[case]
