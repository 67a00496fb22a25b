"""Frozen results of monitor-off runs on complete digraphs of 16 and 64 nodes.

The trace digests pin ``observe`` when a trace is collected or the monitor
is on, at up to 9 nodes (16 for two runs). In every mode the frequency
extrema follow the updated node; the normal phases are kept in place, reread
in full only when the clock moves and otherwise only at the actor's slot;
and once the frequencies have converged, the arc is computed only when the
witness pair (the tail and head nodes of the last arc found wider than
``tol_phase``) cannot rule it out. Runs with the monitor off and no trace
skip only the virtual node. These values pin them at the sizes of the
benchmark's ``large_n`` workload: initial phases within 0.3 of a turn and
frequencies within 5%, so every run converges. The final frequencies are
pinned by the SHA-256 digest of their ``repr``. The number of arcs each run
computes is pinned too, so a return to sorting the phases at every event
fails here although no timing is taken. A value may only change together
with a CHANGES.md entry naming the intended change in floating-point
output or in that count.
"""

import hashlib
import random
from unittest import mock

import pytest

import pcosync.metrics
from pcosync import ScenarioConfig, complete_digraph, run_scenario


def _config(n, algorithm):
    rng = random.Random(n)
    phases = [rng.uniform(0.0, 0.3) for _ in range(n)]
    frequencies = [rng.uniform(1.0, 1.05) for _ in range(n)]
    return ScenarioConfig(
        graph=complete_digraph(n), algorithm=algorithm, f=1, zeta=0.1,
        phases=phases, frequencies=frequencies, horizon=200.0, monitor="off",
        name=f"K{n}:{algorithm}",
    )


# (n, algorithm): outcome, events, repr(delta), repr(delta_windowed),
# SHA-256 of repr(final normal frequencies)
PINNED = {
    (16, "absolute"): (
        "converged", 575, "6.454753200824115e-07", "0.0",
        "4f93ddda0b1b2df11ed8d46c79b4c0595bffbdff4e08a1e259c1af0fcff29167",
    ),
    (16, "relative"): (
        "converged", 847, "8.683637690021229e-07", "3.3077984795681914e-12",
        "da20d28cc239aafbdb4a0ee4f9e27f0bdebb446fea4ef63299965234b43920c9",
    ),
    (64, "absolute"): (
        "converged", 1663, "5.520909702738663e-07", "0.0",
        "1b4ba34b9b3edb9aa56cf4ee12969c4e47fee1f638411165e832f748d27bef30",
    ),
    (64, "relative"): (
        "converged", 2431, "8.041792878277221e-07", "9.688028157484041e-12",
        "62dc102d032ec12cff3dd065b7d6b0ca428d6ca817c05de1194eb4e7d513a0ba",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: f"K{key[0]}-{key[1]}")
def test_monitor_off_run_matches_its_frozen_result(key):
    result = run_scenario(_config(*key))
    metrics = result.metrics
    omegas = repr(result.world.normal_omegas())
    got = (
        result.outcome,
        result.world.event_count,
        repr(metrics.delta),
        repr(metrics.delta_windowed),
        hashlib.sha256(omegas.encode()).hexdigest(),
    )
    assert got == PINNED[key]


# (n, algorithm): containing_arc calls made by observe during the run. Each
# run sorts once when its frequencies first converge, names the witness pair
# and is ruled out by it until the phases converge too; then it sorts at
# each of the window_len = 2n events of its streak.
ARC_CALLS = {
    (16, "absolute"): 33,
    (16, "relative"): 33,
    (64, "absolute"): 129,
    (64, "relative"): 129,
}


@pytest.mark.parametrize("key", sorted(ARC_CALLS), ids=lambda key: f"K{key[0]}-{key[1]}")
def test_monitor_off_run_computes_its_frozen_number_of_arcs(key):
    arc = pcosync.metrics.containing_arc
    calls = []

    def counting(phases):
        calls.append(len(phases))
        return arc(phases)

    with mock.patch.object(pcosync.metrics, "containing_arc", counting):
        result = run_scenario(_config(*key))
    assert result.outcome == "converged"
    assert len(calls) == ARC_CALLS[key]
