"""The shared pulse fan-out loop against the per-receiver hooks it replaced.

``oracles.HookAbsoluteProtocol`` and ``oracles.HookRelativeProtocol`` keep
the earlier delivery path verbatim: one hook call and one ``count_pulse``
call per receiver, and one ``pulse_pair_ratio`` call per ratio. Driven by
the same pulse sequence, both paths must leave every oscillator field,
every returned flag, every updated frequency and the ratio log identical,
bit for bit, and ``WorldState.pulses_delivered`` must equal the number of
hook calls the old path made.
"""

import dataclasses
import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pcosync import (
    AbsoluteProtocol,
    DirectedGraph,
    MsrParams,
    OscillatorState,
    ProtocolFault,
    RelativeProtocol,
    WorldState,
    load_scenario,
)
from pcosync.runner import run_built

from oracles import HookAbsoluteProtocol, HookRelativeProtocol

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
    """Two identical worlds on a random digraph of 2-6 nodes, up to two faulty."""
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

    def world():
        return WorldState(
            graph=DirectedGraph.from_lists(rows),
            oscillators=[OscillatorState(phase=p, omega=w) for p, w in initial],
            normal=frozenset(range(n)) - faulty,
            faulty=frozenset(faulty),
        )

    return world(), world()


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


def _apply(proto, world, op, node, value, t):
    """One step; a protocol fault is a result, compared like a flag."""
    try:
        if op == "fire":
            return proto.handle_fire(world, node, t)
        if op == "start":
            return proto.handle_start(world, node, t)
        if op == "update":
            return proto.handle_update(world, node, t)
        if op in ("forged_end", "forged_start"):
            claim = 1.0 if value is None else value
            return proto.deliver_adversary(world, node, t, claim, op == "forged_start")
        sender = (node + 1) % world.graph.node_count
        if isinstance(proto, AbsoluteProtocol):
            # The absolute protocol has one hook, for counted pulses.
            return proto.on_pulse(world, node, 1.0 if value is None else value, t)
        if op == "hook_start":
            return proto.on_start_pulse(world, node, sender, t)
        return proto.on_end_pulse(world, node, sender, t, sender_omega=value)
    except ProtocolFault as exc:
        return ("fault", str(exc))


def _state(world):
    return [repr(osc) for osc in world.oscillators]


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
    params = MsrParams(f=f, eager_detection=eager)
    if variant == "absolute":
        new, old = AbsoluteProtocol(params), HookAbsoluteProtocol(params)
    else:
        new = RelativeProtocol(params, zeta=ZETA, ratio_log=[])
        old = HookRelativeProtocol(params, zeta=ZETA, ratio_log=[])
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
            got = _apply(new, new_world, op, node, value, 0.25 * k)
            want = _apply(old, old_world, op, node, value, 0.25 * k)
            assert repr(got) == repr(want), (k, op, node)
            assert _state(new_world) == _state(old_world), (k, op, node)
            assert new_world.pulses_delivered == old.hook_calls
            assert old_world.pulses_delivered == 0  # the old path never reaches the loop
    if variant == "relative":
        assert repr(new.ratio_log) == repr(old.ratio_log)


def _run(config, hooks):
    """Run ``config`` with the monitor off through the package's protocol or
    its hook-path oracle; returns (world, protocol, outcome)."""
    prepared, world = dataclasses.replace(config, monitor="off").build()
    if hooks:
        cls = HookRelativeProtocol if config.algorithm == "relative" else HookAbsoluteProtocol
        kwargs = {"zeta": config.zeta} if config.algorithm == "relative" else {}
        prepared.protocol = cls(prepared.protocol.params, **kwargs)
    outcome, _, fault = run_built(prepared, world)
    assert not fault, fault
    return world, prepared.protocol, outcome


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
            new_world, _, new_outcome = _run(config, hooks=False)
            old_world, old, old_outcome = _run(config, hooks=True)
            assert new_outcome == old_outcome
            assert _state(new_world) == _state(old_world)
            assert new_world.event_count == old_world.event_count
            assert new_world.pulses_delivered == old.hook_calls > 0
            checked += 1
    assert checked >= 10
