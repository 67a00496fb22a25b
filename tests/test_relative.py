"""Relative-frequency protocol: stamp pairing, ratio estimates, updates."""

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from pcosync import (
    DirectedGraph,
    InvariantViolation,
    OscillatorState,
    ProtocolFault,
    RelativeProtocol,
    ScenarioConfig,
    WorldState,
    complete_digraph,
    load_scenario,
    run_scenario,
)

from oracles import pairing, update_sequence

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def k5_world():
    graph = complete_digraph(5)
    oscillators = [OscillatorState(phase=0.0, omega=1.0) for _ in range(5)]
    world = WorldState(
        graph=graph,
        oscillators=oscillators,
    )
    world.add_pair_slots()
    return world


def complete_pairs(world, proto, pairs):
    """Node 0 hears, from each sender j of ``pairs``, a start pulse at phase
    ``pairs[j][0]`` and an end pulse at ``pairs[j][1]`` through the
    single-receiver hooks; its counter and landmarks then start afresh."""
    osc = world.oscillators[0]
    for j, (start, end) in pairs.items():
        osc.phase = start
        proto.on_start_pulse(world, 0, sender=j)
        osc.phase = end
        proto.on_end_pulse(world, 0, sender=j)
    osc.pulse_count = 0
    osc.jump_up = osc.jump_down = 0.0


def update_from_pairs(*pairs):
    """Node 0 of K5 (f = 0, omega 1) updates from the stamped (start, end)
    pairs of senders 1, 2, ...: the ratios its update logs, by sender, and
    its new frequency."""
    world = k5_world()
    proto = RelativeProtocol(f=0, zeta=0.1)
    proto.ratio_log = []
    osc = world.oscillators[0]
    complete_pairs(world, proto, dict(enumerate(pairs, 1)))
    osc.pulse_count = 4
    osc.fired = True
    osc.phase = 0.5
    assert proto.handle_update(world, 0) is False
    return {j: ratio for _, _, j, ratio, _, _ in proto.ratio_log}, osc.omega


def test_ratio_from_plain_pair():
    # Offset 0.1 heard over a span of 0.05 receiver phase: sender runs twice
    # as fast as the receiver.
    ratios, _ = update_from_pairs((0.40, 0.45), (0.40, 0.50), (0.40, 0.60))
    assert ratios == pytest.approx({1: 2.0, 2: 1.0, 3: 0.5})


def test_ratio_with_receiver_wrap():
    # A receiver running ahead of the sender fires between the two
    # receptions; the span is the elapsed phase modulo one cycle.
    ratios, _ = update_from_pairs((0.95, 0.05), (0.998, 0.0998))
    assert ratios[1] == pytest.approx(1.0)
    assert ratios[2] == pytest.approx(0.1 / 0.1018, rel=1e-9)


def test_ratio_coincident_stamps_give_no_estimate():
    # Sender 1's stamps coincide: only sender 2's ratio 2.0 is averaged, and
    # self and sender 2 weigh one half each.
    ratios, omega = update_from_pairs((0.3, 0.3), (0.40, 0.45))
    assert ratios == pytest.approx({2: 2.0})
    assert omega == pytest.approx(1.5)


def test_params_validate_offset_range():
    with pytest.raises(ValueError):
        RelativeProtocol(f=1, zeta=0.0)
    with pytest.raises(ValueError, match=r"start-pulse offset must lie in \(0, 0.5\), got 0.5"):
        RelativeProtocol(f=1, zeta=0.5)
    with pytest.raises(ValueError):
        RelativeProtocol(f=-1)


def test_stamp_pairing_state_machine():
    world = k5_world()
    proto = RelativeProtocol(f=1)
    proto.ratio_log = []
    osc = world.oscillators[0]

    # A lone end pulse has nothing to pair with but still counts.
    osc.phase = 0.55
    proto.on_end_pulse(world, 0, sender=1, sender_omega=1.2)
    assert pairing(world, 0, proto=proto) == ({}, {})
    assert osc.pulse_count == 1

    # Start then end completes a pair carrying the sender's frequency.
    osc.phase = 0.60
    proto.on_start_pulse(world, 0, sender=2)
    assert pairing(world, 0, proto=proto) == ({2: 0.60}, {})
    osc.phase = 0.68
    proto.on_end_pulse(world, 0, sender=2, sender_omega=1.5)
    assert pairing(world, 0, proto=proto) == ({}, {2: (0.1 / ((0.68 - 0.60) % 1.0), 1.5)})

    # A second start from the same sender overwrites a stale one.
    osc.phase = 0.70
    proto.on_start_pulse(world, 0, sender=3)
    osc.phase = 0.80
    proto.on_start_pulse(world, 0, sender=3)
    osc.phase = 0.90
    proto.on_end_pulse(world, 0, sender=3, sender_omega=1.0)
    assert pairing(world, 0, proto=proto)[1][3] == (0.1 / ((0.90 - 0.80) % 1.0), 1.0)

    # The latest completed pair wins.
    osc.phase = 0.10
    proto.on_start_pulse(world, 0, sender=2)
    osc.phase = 0.30
    proto.on_end_pulse(world, 0, sender=2, sender_omega=0.5)
    assert pairing(world, 0, proto=proto)[1][2] == (0.1 / ((0.30 - 0.10) % 1.0), 0.5)

    osc.reset_round()
    assert pairing(world, 0, proto=proto) == ({}, {})


def test_hooks_pair_in_the_senders_in_neighbor_slot():
    # Node 0 listens to 3 and then 1, so sender 1 holds its slot 1; sender 2
    # is no in-neighbor: it has no slot, and the hooks refuse its pulses.
    graph = DirectedGraph.from_lists([(3, 1), (0,), (0,), (0,)])
    world = WorldState(graph, [OscillatorState(0.0, 1.0) for _ in range(4)])
    world.add_pair_slots()
    proto = RelativeProtocol(f=0)
    proto.ratio_log = []
    osc = world.oscillators[0]
    osc.phase = 0.1
    proto.on_start_pulse(world, 0, sender=3)
    osc.phase = 0.2
    proto.on_start_pulse(world, 0, sender=1)
    with pytest.raises(ValueError):
        proto.on_start_pulse(world, 0, sender=2)
    assert osc.stamps == [0.1, 0.2]
    osc.phase = 0.25
    with pytest.raises(ValueError):
        proto.on_end_pulse(world, 0, sender=2, sender_omega=1.5)
    assert osc.pulse_count == 0
    assert (osc.stamps, osc.ratios, proto.pair_senders) == ([0.1, 0.2], [None, None], {})
    proto.on_end_pulse(world, 0, sender=1, sender_omega=2.0)
    assert osc.pulse_count == 1
    assert (osc.stamps, osc.ratios, proto.pair_senders) == (
        [0.1, None], [None, 0.1 / ((0.25 - 0.2) % 1.0)], {(0, 1): 2.0})
    assert world.pulses_delivered == 3


def test_start_emission_snaps_phase_and_stamps_listeners():
    world = k5_world()
    proto = RelativeProtocol(f=1, zeta=0.1)
    world.oscillators[1].phase = 0.899999
    for i in (0, 2, 3, 4):
        world.oscillators[i].phase = 0.3 + 0.1 * i
    proto.handle_start(world, 1)
    assert world.oscillators[1].phase == 0.9
    assert world.oscillators[1].start_emitted
    for i in (0, 2, 3, 4):
        assert pairing(world, i) == ({1: world.oscillators[i].phase}, {})


def test_fire_delivers_end_pulses_with_sender_frequency():
    world = k5_world()
    proto = RelativeProtocol(f=1)
    proto.ratio_log = []
    world.oscillators[1].omega = 1.25
    for i in (0, 2, 3, 4):
        world.oscillators[i].phase = 0.4
        proto.on_start_pulse(world, i, sender=1)
        world.oscillators[i].phase = 0.48
    proto.handle_fire(world, 1)
    assert world.oscillators[1].phase == 0.0
    assert world.oscillators[1].fired
    for i in (0, 2, 3, 4):
        assert pairing(world, i, proto=proto) == ({}, {1: (0.1 / ((0.48 - 0.4) % 1.0), 1.25)})
        assert world.oscillators[i].pulse_count == 1


def test_update_trims_ratio_extremes():
    """Ratios {0.8, 1.0, 1.25, 2.0} trimmed by one from each side keep
    {1.0, 1.25}; equal weights give omega * (1 + 0.25/3)."""
    world = k5_world()
    proto = RelativeProtocol(f=1, zeta=0.1)
    proto.ratio_log = []
    osc = world.oscillators[0]
    osc.omega = 1.2
    complete_pairs(world, proto, {
        1: (0.4, 0.525),  # ratio 0.8
        2: (0.4, 0.5),  # ratio 1.0
        3: (0.4, 0.48),  # ratio 1.25
        4: (0.4, 0.45),  # ratio 2.0
    })
    osc.pulse_count = 4
    osc.fired = True
    osc.phase = 0.5
    world.clock = 1.5
    assert proto.handle_update(world, 0) is False
    assert osc.omega == pytest.approx(1.2 * (1.0 + 0.25 / 3.0))
    assert osc.phase == 0.5  # no jump ingredients were captured
    assert len(proto.ratio_log) == 4
    t, i, j, ratio, before, sender = proto.ratio_log[1]
    assert (t, i, j) == (1.5, 0, 2)
    assert ratio == pytest.approx(1.0)
    assert before == 1.2 and sender is None


def test_update_with_too_few_ratios_keeps_frequency():
    # Fewer than 2f+1 usable ratios: the trim removes everything and the
    # frequency holds for the round, but the phase correction still runs.
    world = k5_world()
    proto = RelativeProtocol(f=1, zeta=0.1)
    osc = world.oscillators[0]
    osc.omega = 1.37
    complete_pairs(world, proto, {1: (0.4, 0.5), 2: (0.4, 0.46)})
    osc.pulse_count = 4  # all pulses heard, but two pairs never completed
    osc.jump_down = -0.2
    osc.fired = True
    osc.phase = 0.5
    proto.handle_update(world, 0)
    assert osc.omega == 1.37
    assert osc.phase == pytest.approx(0.4)

    complete_pairs(world, proto, {1: (0.4, 0.5)})
    osc.pulse_count = 4
    osc.fired = True
    osc.phase = 0.5
    proto.handle_update(world, 0)
    assert osc.omega == 1.37


def test_update_counter_checks_match_the_absolute_rule():
    world = k5_world()
    proto = RelativeProtocol(f=1)
    osc = world.oscillators[0]
    osc.pulse_count = 5  # in-degree is 4
    osc.fired = True
    osc.phase = 0.5
    assert proto.handle_update(world, 0) is True
    assert osc.detected

    osc.detected = False
    osc.pulse_count = 2  # below d - f = 3
    osc.fired = True
    osc.phase = 0.5
    with pytest.raises(ProtocolFault):
        proto.handle_update(world, 0)


def test_attack_free_run_matches_absolute_protocol():
    config = ScenarioConfig(
        graph=complete_digraph(5),
        algorithm="absolute",
        f=1,
        zeta=0.1,
        phases=[0.0, 0.04, 0.08, 0.12, 0.16],
        frequencies=[1.0, 1.01, 1.02, 1.035, 1.05],
        horizon=40.0,
        monitor="strict",
    )
    absolute = run_scenario(config, collect_trace=True)
    relative = run_scenario(
        dataclasses.replace(config, algorithm="relative"),
        collect_trace=True,
        collect_ratios=True,
    )
    assert absolute.outcome == "converged"
    assert relative.outcome == "converged"

    # Once the runs tighten, distinct nodes update within ~1e-10 of each other
    # and the global interleaving of those near-coincident updates is not
    # meaningful, so compare each node's own frequency trajectory instead.
    seq_abs = update_sequence(absolute.metrics.rows)
    seq_rel = update_sequence(relative.metrics.rows)
    assert min(len(seq_abs), len(seq_rel)) > 20
    for i in range(5):
        own_abs = [om[i] for node, om in seq_abs if node == i]
        own_rel = [om[i] for node, om in seq_rel if node == i]
        assert min(len(own_abs), len(own_rel)) > 4
        for a, b in zip(own_abs, own_rel):
            assert a == pytest.approx(b, abs=1e-9)

    # Every accepted ratio is the exact sender/receiver frequency quotient.
    assert relative.ratio_log
    for t, i, j, ratio, before, sender in relative.ratio_log:
        assert sender is not None
        assert ratio * before == pytest.approx(sender, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=InvariantViolation)
def test_nominal_sync_relative_trips_the_strict_windowed_floor():
    # Ratio roundoff lets converged frequencies drift down to about
    # 1 - 6.7e-12, beyond the strict monitor's 1e-12 windowed-floor
    # tolerance, so this run aborts at event 262 (see README, "Command line").
    config = load_scenario(SCENARIOS / "nominal_sync.json")
    assert config.monitor == "strict"
    run_scenario(dataclasses.replace(config, algorithm="relative"))


def _k16_draw():
    """The benchmark-sized K16 relative draw of ``test_monitor_off_pins``."""
    rng = random.Random(16)
    phases = [rng.uniform(0.0, 0.3) for _ in range(16)]
    frequencies = [rng.uniform(1.0, 1.05) for _ in range(16)]
    return ScenarioConfig(
        graph=complete_digraph(16), algorithm="relative", f=1, zeta=0.1,
        phases=phases, frequencies=frequencies, horizon=200.0, monitor="off",
    )


# Run: (records in the ratio log, SHA-256 of its repr). No other digest
# covers the ratios, their order or the sender frequencies they carry; a
# value may only change together with a CHANGES.md entry naming the
# intended change in floating-point output.
RATIO_LOG_PINS = {
    "relative_equivalence": (
        360, "9dca63815e8ff5e11fd50bae962620f8ca2d4a97b4d090f437f03bcaac687737",
    ),
    "K16": (4080, "a621018a258879c9828c5c96c159b5e0f88a489f87a3cedbbdcbf150decb1042"),
}


@pytest.mark.parametrize("name", sorted(RATIO_LOG_PINS))
def test_ratio_log_matches_its_frozen_digest(name):
    if name == "K16":
        config = _k16_draw()
    else:
        config = load_scenario(SCENARIOS / f"{name}.json")
    result = run_scenario(config, collect_ratios=True)
    assert result.outcome == "converged"
    log = repr(result.ratio_log)
    got = (len(result.ratio_log), hashlib.sha256(log.encode()).hexdigest())
    assert got == RATIO_LOG_PINS[name]
