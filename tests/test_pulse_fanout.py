"""The shared pulse fan-out loop against the per-receiver hooks it replaced.

``oracles.HookAbsoluteProtocol`` and ``oracles.HookRelativeProtocol`` keep
the earlier delivery path verbatim: one hook call and one ``count_pulse``
call per receiver, one ``pulse_pair_ratio`` call per ratio, and pulse pairs
kept in dicts by sender id (``oracles.DictPairingOscillator``), where the
package keeps one slot per in-neighbor and computes each ratio when its pair
completes. Driven by the same pulse sequence, both paths must leave every
other oscillator field, each node's pairing projected onto sender ids
(``oracles.pairing``), every returned flag, every updated frequency and the
ratio log identical, bit for bit, and ``WorldState.pulses_delivered`` must
equal the number of hook calls the old path made.
"""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pcosync import (
    AbsoluteProtocol,
    DirectedGraph,
    OscillatorState,
    ProtocolFault,
    RelativeProtocol,
    WorldState,
    load_scenario,
    scenario_from_dict,
)
from pcosync.runner import run_built

from oracles import DictPairingOscillator, HookAbsoluteProtocol, HookRelativeProtocol, pairing

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

ZETA = 0.1
# The half-circle gate of both landmarks, its float neighbors, the wrap
# point and the start-pulse threshold; any phase besides.
PHASES = st.one_of(
    st.sampled_from(
        [0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0 - ZETA,
         math.nextafter(1.0, 0.0)]
    ),
    st.floats(0.0, 1.0, exclude_max=True),
)
# "round": every normal node sends its start pulse (relative only), every
# phase moves on by ZETA, and every normal node fires; "updates": every
# normal node runs its update. Drawn twice as often as the single steps.
OPS = ("fire", "start", "update", "forged_end", "forged_start", "hook_end", "hook_start")
OPS += ("round", "updates") * 2


@st.composite
def _worlds(draw):
    """Two worlds on a random digraph of 2-6 nodes, up to two faulty, alike
    but for how their oscillators keep pulse pairs: slots, then dicts."""
    n = draw(st.integers(2, 6))
    others = [[j for j in range(n) if j != i] for i in range(n)]
    if draw(st.booleans()):
        rows = others
    else:
        rows = [draw(st.lists(st.sampled_from(row), unique=True)) for row in others]
    faulty = draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
    initial = [
        (draw(PHASES), draw(st.floats(0.5, 2.0))) for _ in range(n)
    ]

    def world(oscillator):
        return WorldState(
            graph=DirectedGraph.from_lists(rows),
            oscillators=[oscillator(phase=p, omega=w) for p, w in initial],
            faulty=frozenset(faulty),
        )

    return world(OscillatorState), world(DictPairingOscillator)


def _steps(n):
    """(operation, node, value, phases or None) tuples; values stand for a
    forged claim or a hook's sender frequency."""
    return st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(0, n - 1),
            st.one_of(st.none(), st.floats(0.25, 4.0)),
            st.one_of(st.none(), st.none(), st.lists(PHASES, min_size=n, max_size=n)),
        ),
        max_size=30,
    )


def _apply(proto, world, op, node, value, t, sender):
    """One step at clock ``t``; a protocol fault is a result, compared like
    a flag. ``sender``, one of ``node``'s in-neighbors, sends a relative
    hook's pulse."""
    world.clock = t
    try:
        if op == "fire":
            return proto.handle_fire(world, node)
        if op == "start":
            return proto.handle_start(world, node)
        if op == "update":
            return proto.handle_update(world, node)
        if op in ("forged_end", "forged_start"):
            claim = 1.0 if value is None else value
            return proto.deliver_adversary(world, node, claim, op == "forged_start")
        if isinstance(proto, AbsoluteProtocol):
            # The absolute protocol has one hook, for counted pulses.
            return proto.on_pulse(world, node, 1.0 if value is None else value)
        if op == "hook_start":
            return proto.on_start_pulse(world, node, sender)
        return proto.on_end_pulse(world, node, sender, sender_omega=value)
    except ProtocolFault as exc:
        return ("fault", str(exc))


SLOTS = ("stamps", "ratios")
FIELDS = [f.name for f in dataclasses.fields(OscillatorState) if f.name not in SLOTS]


def _state(world, zeta=ZETA):
    """Every oscillator field but the pairing slots, and the node's pairing."""
    return [repr([getattr(osc, name) for name in FIELDS] + [pairing(world, i, zeta)])
            for i, osc in enumerate(world.oscillators)]


@settings(deadline=None, max_examples=200)
@given(
    variant=st.sampled_from(["absolute", "relative"]),
    f=st.integers(0, 3),
    eager=st.booleans(),
    worlds=_worlds(),
    data=st.data(),
)
def test_fan_out_matches_the_per_receiver_hooks(variant, f, eager, worlds, data):
    new_world, old_world = worlds
    params = dict(f=f, eager_detection=eager)
    if variant == "absolute":
        new, old = AbsoluteProtocol(**params), HookAbsoluteProtocol(**params)
    else:
        new = RelativeProtocol(**params, zeta=ZETA)
        old = HookRelativeProtocol(**params, zeta=ZETA)
        for world in worlds:
            world.ratio_log, world.pair_senders = [], {}
        new_world.add_pair_slots()
    n = new_world.graph.node_count
    # handle_start only raises in the absolute variant; test_msr covers that.
    kinds = ("fire",) if variant == "absolute" else ("start", "fire")
    for k, (op, node, value, phases) in enumerate(data.draw(_steps(n))):
        if phases is not None:
            for world in (new_world, old_world):
                for osc, phase in zip(world.oscillators, phases):
                    osc.phase = phase
        if op == "round":
            steps = [(kind, i) for kind in kinds for i in new_world.normal_ids]
            steps.insert(len(steps) // len(kinds), ("advance", None))
        elif op == "updates":
            steps = [("update", i) for i in new_world.normal_ids]
        else:
            steps = [("fire" if op == "start" else op, node)] if variant == "absolute" else [(op, node)]
        for op, node in steps:
            if op == "advance":
                for world in (new_world, old_world):
                    for osc in world.oscillators:
                        osc.phase = (osc.phase + ZETA) % 1.0
                continue
            sender = None
            if variant == "relative" and op.startswith("hook"):
                # The hooks refuse a sender that is no in-neighbor.
                nbrs = new_world.graph.in_neighbors[node]
                if not nbrs:
                    continue
                sender = data.draw(st.sampled_from(nbrs), label="sender")
            got = _apply(new, new_world, op, node, value, 0.25 * k, sender)
            want = _apply(old, old_world, op, node, value, 0.25 * k, sender)
            assert repr(got) == repr(want), (k, op, node)
            assert _state(new_world) == _state(old_world), (k, op, node)
            assert new_world.pulses_delivered == old.hook_calls
            assert old_world.pulses_delivered == 0  # the old path never reaches the loop
    if variant == "relative":
        assert repr(new_world.ratio_log) == repr(old_world.ratio_log)


def _run(config, hooks):
    """Run ``config`` with the monitor off through the package's protocol or
    its hook-path oracle, logging ratios; returns (world, protocol,
    outcome, fault message). The oracle takes the step rule's frequency
    limit that the prepared scenario set on the package's protocol."""
    prepared, world = dataclasses.replace(config, monitor="off").build()
    relative = config.algorithm == "relative"
    if hooks:
        cls = HookRelativeProtocol if relative else HookAbsoluteProtocol
        kwargs = {"zeta": config.zeta} if relative else {}
        oracle = cls(config.f, config.weights, config.eager_detection, **kwargs)
        oracle.omega_limit = prepared.protocol.omega_limit
        prepared.protocol = oracle
        world.oscillators = [DictPairingOscillator(osc.phase, osc.omega) for osc in world.oscillators]
    if relative:
        world.ratio_log, world.pair_senders = [], {}
    outcome, _, fault = run_built(prepared, world)
    return world, prepared.protocol, outcome, fault


def test_pulse_counter_equals_the_hook_calls_of_whole_runs():
    """Honest fires, start pulses, forged end pulses and forged start
    pulses, over the shipped scenarios in both protocol variants."""
    checked = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        for algorithm in ("absolute", "relative"):
            config = load_scenario(path)
            config.algorithm = algorithm
            config.horizon = min(config.horizon, 60.0)
            if algorithm == "relative":
                for spec in config.attackers:
                    if spec.kind == "stealthy":
                        spec.options["start_offsets"] = [0.2]
            new_world, new, new_outcome, new_fault = _run(config, hooks=False)
            old_world, old, old_outcome, old_fault = _run(config, hooks=True)
            assert not new_fault and not old_fault, (new_fault, old_fault)
            assert new_outcome == old_outcome
            assert _state(new_world, config.zeta) == _state(old_world, config.zeta)
            if algorithm == "relative":
                assert repr(new_world.ratio_log) == repr(old_world.ratio_log)
            assert new_world.event_count == old_world.event_count
            assert new_world.pulses_delivered == old.hook_calls > 0
            checked += 1
    assert checked >= 10


# Updates past the step rule's frequency limit. Absolute: with f = 0 no
# claim is trimmed, so the attacker's 1e7 lifts every receiver's mean past
# the limit. Relative: node 3 starts 59 turns behind, so its ratios lift its
# own frequency past it (``update_past_the_step_rule`` in
# tests/test_scenario_fuzz.py).
TOO_FAST_UPDATES = {
    "absolute": ({"phases": [0.9, 0.9, 0.9, 0.0], "frequencies": [1.0] * 4, "horizon": 3,
                  "attackers": [{"node": 3, "type": "custom", "pulses": [[0.3, 1e7]]}]},
                 "node 0"),
    "relative": ({"phases": [0.0, 0.0, 0.0, -59.00000000012], "frequencies": [1.0, 1.0, 1.0, 60.0],
                  "horizon": 1.1666666666666667},
                 "node 3"),
}


@pytest.mark.parametrize("algorithm", sorted(TOO_FAST_UPDATES))
def test_an_update_past_the_step_rule_faults_alike_on_both_paths(algorithm):
    fields, node = TOO_FAST_UPDATES[algorithm]
    config = scenario_from_dict({
        "graph": {"named": "complete", "n": 4}, "algorithm": algorithm, "f": 0,
        "normalize_phases": False, "normalize_frequencies": False, "halt_on_detection": False,
        **fields,
    })
    new_world, new, new_outcome, new_fault = _run(config, hooks=False)
    old_world, old, old_outcome, old_fault = _run(config, hooks=True)
    assert new_outcome == old_outcome == "fault"
    assert new_fault == old_fault
    assert new_fault.startswith(f"{node} updated its frequency to ")
    assert new_fault.endswith(f"past {new.omega_limit!r}, the fastest the event loop can step")
    assert old.omega_limit == new.omega_limit < math.inf
    assert new_world.event_count == old_world.event_count
    assert _state(new_world, config.zeta) == _state(old_world, config.zeta)
