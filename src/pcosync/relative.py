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
for a single receiver. At the update the node scales its frequency by a
trimmed weighted mean of the ratios.

Attack-free, each ratio is the sender's frequency over the receiver's, so a
run takes the absolute protocol's frequencies, within rounding, when two
conditions hold: every pulse a node counts completes a start/end pair by
its update, and no counted pulse reaches a receiver within rounding of
phase 0.5, where a landmark's jump rule switches and a pulse can trade
places with the update.
"""

from __future__ import annotations

from .engine import WorldState
from .msr import MsrParams, MsrRound, make_weights, msr_trim


class RelativeProtocol(MsrRound):
    uses_start_pulses = True

    def __init__(self, params: MsrParams, zeta: float = 0.1, ratio_log: list | None = None):
        """``zeta`` is the phase offset of the start pulse before the fire.
        ``ratio_log``, when given, collects one record per accepted ratio:
        (time, node, sender, ratio, receiver omega before update, sender
        omega at end-pulse emission or None for forged pulses). Diagnostic
        only; the protocol itself never reads it."""
        if not 0.0 < zeta < 0.5:
            raise ValueError(f"start-pulse offset must lie in (0, 0.5), got {zeta}")
        super().__init__(params)
        self.zeta = zeta
        self.ratio_log = ratio_log

    # -- pulse plane --------------------------------------------------------

    def handle_start(self, world: WorldState, i: int, t: float) -> None:
        """Node i reaches the start-pulse threshold: stamp every listener."""
        osc = world.oscillators[i]
        osc.phase = 1.0 - self.zeta
        osc.start_emitted = True
        self.stamp_starts(world, world.normal_receivers[i], i)

    def handle_fire(self, world: WorldState, i: int, t: float) -> bool:
        omega = self.reset_on_fire(world, i).omega
        return self.deliver_pulse(world, world.normal_receivers[i], i, omega)

    def stamp_starts(self, world: WorldState, receivers, sender: int) -> None:
        """Every node in ``receivers`` stamps its phase at a start pulse
        from ``sender``."""
        world.pulses_delivered += len(receivers)
        oscillators = world.oscillators
        for j in receivers:
            osc = oscillators[j]
            # A pending stamp from a round the sender never closed is overwritten.
            osc.pending_start[sender] = osc.phase

    def on_start_pulse(self, world: WorldState, i: int, sender: int, t: float) -> None:
        self.stamp_starts(world, (i,), sender)

    def on_end_pulse(
        self,
        world: WorldState,
        i: int,
        sender: int,
        t: float,
        sender_omega: float | None = None,
    ) -> bool:
        return self.deliver_pulse(world, (i,), sender, sender_omega)

    def deliver_adversary(
        self, world: WorldState, attacker: int, t: float, value: float, is_start: bool
    ) -> bool:
        receivers = world.normal_receivers[attacker]
        if is_start:
            self.stamp_starts(world, receivers, attacker)
            return False
        # A forged end pulse carries no sender frequency.
        return self.deliver_pulse(world, receivers, attacker, None)

    # -- update plane -------------------------------------------------------

    def handle_update(self, world: WorldState, i: int, t: float) -> bool:
        trim = self.open_update(world, i)
        if trim is None:
            return True
        osc = world.oscillators[i]
        zeta = self.zeta
        pairs = osc.pulse_pairs
        ratio_log = self.ratio_log
        ratios: list[float] = []
        for j in world.graph.in_neighbors[i]:
            pair = pairs.get(j)
            if pair is None:
                continue
            # The receiver may fire between the receptions; coincident
            # stamps give no estimate.
            span = (pair[1] - pair[0]) % 1.0
            if span == 0.0:
                continue
            ratio = zeta / span
            ratios.append(ratio)
            if ratio_log is not None:
                ratio_log.append((t, i, j, ratio, osc.omega, pair[2]))
        # Missing pairs (senders whose start or end pulse fell outside this
        # round) shrink the candidate set; with 2*trim or fewer candidates
        # the trim removes everything and the frequency holds for a round.
        kept = msr_trim(ratios, trim) if len(ratios) >= 2 * trim else []
        weights = make_weights(self.params.weight_policy, len(kept))
        omega = osc.omega
        # omega * (a_self + sum a_j * ratio_j) in deviation form, exact when
        # every kept ratio is 1.
        osc.omega = omega + omega * sum(w * (r - 1.0) for w, r in zip(weights[1:], kept))
        osc.reset_round()
        return False
