"""Resilient synchronization protocol measuring relative frequencies.

Instead of broadcasting frequency values, every sender emits a start pulse
a fixed phase offset before firing and an end pulse at the fire itself.
A receiver stamps its own phase at both receptions; the offset divided by
the stamped span estimates the sender-to-receiver frequency ratio without
any unit agreement between clocks. Only end pulses drive the shared W-MSR
round of ``msr.py`` (counter, landmarks, detection, phase jump), so the
pulse plane is identical to the absolute-frequency protocol: end pulses,
honest or forged, reach every receiver through its one fan-out loop,
``deliver_pulse``, and start pulses through this module's one stamp loop,
``stamp_starts``. ``on_end_pulse`` and ``on_start_pulse`` are those loops
for one receiver, in the sender's slot; a sender outside the receiver's
in-neighbors has none and raises ValueError. ``start_target``, 1 - zeta,
is the one start-pulse threshold. A receiver keeps its stamps and ratios
in slots, one per in-neighbor (see ``OscillatorState``): a start pulse
writes the stamp in its sender's slot, and the end pulse that completes
the pair empties the stamp and computes the ratio there. At the update the
node reads the ratios in in-neighbor order and scales its frequency by
their trimmed weighted mean.

Attack-free, each ratio is the sender's frequency over the receiver's, so a
run takes the absolute protocol's frequencies, within rounding, when two
conditions hold: every pulse a node counts completes a start/end pair by
its update, and no counted pulse reaches a receiver within rounding of
phase 0.5, where a landmark's jump rule switches and a pulse can trade
places with the update.
"""

from __future__ import annotations

from .engine import WorldState
from .msr import EqualWeights, MsrRound, WeightPolicy, msr_trim, neighbor_weight


def offset_problem(zeta: float) -> str | None:
    """Why ``zeta`` cannot be the start-pulse offset, or None when it can."""
    return None if 0.0 < zeta < 0.5 else f"start-pulse offset must lie in (0, 0.5), got {zeta}"


class RelativeProtocol(MsrRound):
    def __init__(self, f: int, weight_policy: WeightPolicy = EqualWeights(),
                 eager_detection: bool = False, zeta: float = 0.1):
        """``f``, ``weight_policy`` and ``eager_detection`` set the W-MSR
        round (see ``MsrRound``); ``zeta`` is the phase offset of the start
        pulse before the fire, refused outside (0, 0.5). The protocol holds
        no run state: a run that logs ratios keeps its log on its world
        (``WorldState.ratio_log``)."""
        if problem := offset_problem(zeta):
            raise ValueError(problem)
        super().__init__(f, weight_policy, eager_detection)
        self.zeta = zeta
        self.start_target = 1.0 - zeta

    # -- pulse plane --------------------------------------------------------

    def handle_start(self, world: WorldState, i: int) -> bool:
        """Node i reaches the start-pulse threshold: stamp every listener."""
        osc = world.oscillators[i]
        osc.phase = self.start_target
        osc.start_emitted = True
        self.stamp_starts(world, world.receiver_slots[i])
        return False

    def handle_fire(self, world: WorldState, i: int) -> bool:
        omega = self.reset_on_fire(world, i).omega
        return self.deliver_pulse(world, world.receiver_slots[i], omega)

    def stamp_starts(self, world: WorldState, edges) -> None:
        """Every receiver in ``edges``, (receiver, slot) pairs as
        ``deliver_pulse`` takes them, stamps its phase at a start pulse."""
        world.pulses_delivered += len(edges)
        oscillators = world.oscillators
        for j, k in edges:
            osc = oscillators[j]
            # A pending stamp from a round the sender never closed is overwritten.
            osc.stamps[k] = osc.phase

    def on_start_pulse(self, world: WorldState, i: int, sender: int) -> None:
        self.stamp_starts(world, ((i, world.graph.in_neighbors[i].index(sender)),))

    def on_end_pulse(self, world: WorldState, i: int, sender: int,
                     sender_omega: float | None = None) -> bool:
        slot = world.graph.in_neighbors[i].index(sender)
        return self.deliver_pulse(world, ((i, slot),), sender_omega)

    def deliver_adversary(self, world: WorldState, attacker: int, value: float,
                          is_start: bool) -> bool:
        edges = world.receiver_slots[attacker]
        if is_start:
            self.stamp_starts(world, edges)
            return False
        # A forged end pulse carries no sender frequency.
        return self.deliver_pulse(world, edges, None)

    # -- update plane -------------------------------------------------------

    def handle_update(self, world: WorldState, i: int) -> bool:
        trim = self.open_update(world, i)
        if trim is None:
            return True
        osc = world.oscillators[i]
        omega = osc.omega
        # The slots, in in-neighbor order, hold each completed pair's ratio;
        # an empty slot and coincident stamps (0.0) give no estimate.
        ratios = [r for r in osc.ratios if r]
        ratio_log = world.ratio_log
        if ratio_log is not None:
            senders = world.pair_senders
            for k, (j, r) in enumerate(zip(world.graph.in_neighbors[i], osc.ratios)):
                if r:
                    ratio_log.append((world.clock, i, j, r, omega, senders[i, k]))
        # Missing pairs (senders whose start or end pulse fell outside this
        # round) shrink the candidate set; with 2*trim or fewer candidates
        # the trim removes everything and the frequency holds for a round.
        kept = msr_trim(ratios, trim) if len(ratios) >= 2 * trim else []
        w = neighbor_weight(self.weight_policy, len(kept))
        # omega * (a_self + sum a_j * ratio_j) in deviation form, exact when
        # every kept ratio is 1.
        return self.close_update(world, i, omega + omega * sum([w * (r - 1.0) for r in kept]))
