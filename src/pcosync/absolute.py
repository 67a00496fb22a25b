"""Resilient synchronization protocol broadcasting absolute frequencies.

Every fire carries the sender's frequency value, and a receiver's
estimates of its neighbors' frequencies are simply the values it heard
during its round. Counting, landmarks, detection and the phase jump are the
shared W-MSR round of ``msr.py``: fires and forged pulses reach every
receiver through its one fan-out loop, ``deliver_pulse``, and ``on_pulse``
is that loop for a single receiver. At the update the node replaces its
frequency with a trimmed weighted mean of the buffered values.
"""

from __future__ import annotations

from .engine import WorldState
from .msr import MsrRound, msr_trim, neighbor_weight


class AbsoluteProtocol(MsrRound):
    # -- pulse plane --------------------------------------------------------

    def handle_fire(self, world: WorldState, i: int) -> bool:
        """Node i reaches phase 1: reset, arm the update, broadcast omega."""
        value = self.reset_on_fire(world, i).omega
        return self.deliver_pulse(world, world.receiver_slots[i], value)

    def on_pulse(self, world: WorldState, i: int, value: float) -> bool:
        """Receiver i alone hears a pulse claiming frequency ``value``.

        Returns True when eager detection latched on this pulse.
        """
        return self.deliver_pulse(world, ((i, None),), value)

    def deliver_adversary(self, world: WorldState, attacker: int, value: float,
                          is_start: bool) -> bool:
        if is_start:
            return False  # start pulses carry no meaning for this protocol
        return self.deliver_pulse(world, world.receiver_slots[attacker], value)

    # -- update plane -------------------------------------------------------

    def handle_update(self, world: WorldState, i: int) -> bool:
        """Node i reaches phase 0.5 armed: detect, jump, average, reset.

        Returns True when the counter check latched detection now.
        """
        trim = self.open_update(world, i)
        if trim is None:
            return True
        osc = world.oscillators[i]
        kept = msr_trim(osc.freq_buffer, trim)
        w = neighbor_weight(self.weight_policy, len(kept))
        omega = osc.omega
        # Deviation form of the convex combination: exact when all inputs
        # equal the current value, and sign-safe at the hull edges.
        return self.close_update(world, i, omega + sum([w * (v - omega) for v in kept]))
