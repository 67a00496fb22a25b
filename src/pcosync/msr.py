"""The W-MSR round both protocol variants run.

W-MSR is the weighted mean-subsequence-reduced rule of LeBlanc et al.,
"Resilient asymptotic consensus in robust networks" (IEEE JSAC 2013), whose
(2f+1)-robustness condition ``graph.py`` certifies. A node counts the pulses
of its round, adds up its phase corrections at the landmarks f + 1 and d -
f, and at its update jumps its phase by half their sum, trims the f - (d -
c) largest and smallest frequency estimates, and takes a weighted mean of
the rest. The variants differ only in the estimates: claimed values
(``absolute.py``) or pulse-pair ratios (``relative.py``).

``MsrRound.deliver_pulse`` is the one loop that hands a counted pulse to
its receivers: every fire and every forged counted pulse of both variants
goes through it, and so do the single-receiver hooks (``on_pulse``,
``on_end_pulse``) that call it with a one-tuple. It walks (receiver, slot)
pairs, the slot being the sender's position in the receiver's in-neighbor
list, where the relative variant pairs the end pulse with its start stamp
and keeps the pair's ratio. The counter, landmark and eager-detection rule
lives there alone. Every kept neighbor value weighs the same under both
weight policies (``neighbor_weight``), so both updates sum one weight times
each kept value's deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import WorldState
from .errors import ProtocolFault


@dataclass(frozen=True)
class EqualWeights:
    """Every participant (self plus each kept neighbor value) weighs the same."""


@dataclass(frozen=True)
class ConfiguredAlpha:
    """Each kept neighbor value weighs exactly ``alpha``; self takes the rest.

    ``alpha`` doubles as the guaranteed lower bound on every weight, so the
    construction fails when alpha * (j_count + 1) exceeds 1.
    """

    alpha: float


WeightPolicy = EqualWeights | ConfiguredAlpha


def neighbor_weight(policy: WeightPolicy, j_count: int) -> float:
    """The one weight every kept neighbor value takes when ``j_count`` are
    kept. Self takes the same weight under equal weights and the rest,
    ``1 - j_count * alpha``, under a configured ``alpha``."""
    if j_count < 0:
        raise ValueError(f"j_count must be nonnegative, got {j_count}")
    if isinstance(policy, EqualWeights):
        return 1.0 / (j_count + 1)
    alpha = policy.alpha
    if not alpha > 0.0:
        raise ValueError(f"weight floor must be positive, got {alpha}")
    if alpha * (j_count + 1) > 1.0 + 1e-12:
        raise ValueError(
            f"alpha={alpha} cannot give {j_count + 1} weights each >= alpha summing to 1"
        )
    return alpha


def effective_alpha(policy: WeightPolicy, d_max: int) -> float:
    """Smallest weight the policy can produce given maximum in-degree d_max.

    This is the contraction constant the analytic bounds are stated in.
    """
    if isinstance(policy, EqualWeights):
        return 1.0 / (d_max + 1)
    return policy.alpha


def msr_trim(values: Sequence[float], trim_count: int) -> list[float]:
    """Sort and drop the ``trim_count`` largest and smallest values.

    Args:
        values: multiset of reals.
        trim_count: number to remove from each end, at least 0.

    Returns:
        The surviving values in ascending order (may be empty when
        ``len(values) == 2 * trim_count``).

    Raises:
        ProtocolFault: fewer than ``2 * trim_count`` values to trim.
    """
    if trim_count < 0:
        raise ValueError(f"trim count must be nonnegative, got {trim_count}")
    if len(values) < 2 * trim_count:
        raise ProtocolFault(
            f"cannot trim {trim_count} from each end of {len(values)} values"
        )
    ordered = sorted(values)
    if trim_count == 0:
        return ordered
    return ordered[trim_count : len(ordered) - trim_count]


def fault_bound_problem(f: int) -> str | None:
    """Why ``f`` cannot be the fault bound, or None when it can."""
    return f"fault bound must be nonnegative, got {f}" if f < 0 else None


class MsrRound:
    """Round bookkeeping shared by both variants: the fire reset, the pulse
    fan-out and the update check, set by three parameters. ``f`` bounds the
    number of misbehaving in-neighbors any node may have; ``weight_policy``
    weighs the kept values; ``eager_detection`` latches a counter overflow
    the moment it happens instead of waiting for the update instant.
    Subclasses supply the event handlers, which read the event's time from
    ``world.clock``, the frequency estimate, and hooks that hand one
    receiver a pulse in its sender's slot and refuse a sender outside its
    in-neighbors. ``start_target`` is the one start-pulse threshold, None
    for a variant that sends none. ``omega_limit`` is the fastest frequency
    an update may set (``PreparedScenario`` sets the step rule's)."""

    start_target: float | None = None
    omega_limit = float("inf")

    def __init__(self, f: int, weight_policy: WeightPolicy = EqualWeights(),
                 eager_detection: bool = False):
        if problem := fault_bound_problem(f):
            raise ValueError(problem)
        self.f = f
        self.weight_policy = weight_policy
        self.eager_detection = eager_detection

    def reset_on_fire(self, world: WorldState, i: int):
        """Node i reaches phase 1: wrap to 0, arm the update, return its state."""
        osc = world.oscillators[i]
        osc.phase = 0.0
        osc.fired = True
        osc.start_emitted = False
        return osc

    def deliver_pulse(self, world: WorldState, edges, value) -> bool:
        """Every receiver in ``edges`` hears one counted pulse.

        ``edges`` holds a (receiver, slot) pair per receiver, the slot being
        the sender's position in the receiver's in-neighbor list, as
        ``WorldState.receiver_slots`` lists them for one sender. This is the
        one fan-out loop of both variants. Each receiver first records the
        pulse: the absolute variant buffers the claimed frequency ``value``;
        the relative one pairs its phase with the sender's pending start
        stamp, emptying the stamp and keeping the pair's frequency ratio in
        the slot, and, while the world logs ratios, keeps ``value`` as the
        sender's frequency (None for a forged pulse) under (receiver, slot)
        in ``world.pair_senders``. It then counts the pulse at its current
        phase, adds to ``jump`` each landmark's correction on the pulse that
        reaches it (count f + 1 in the upper half: 1 - phase; count d - f in
        the lower half: -phase), and with eager detection latches a count
        past its in-degree d.

        Returns True when eager detection latched on any receiver.
        """
        world.pulses_delivered += len(edges)
        oscillators = world.oscillators
        in_degrees = world.in_degrees
        f = self.f
        up_at = f + 1
        eager = self.eager_detection
        pairs = self.start_target is not None
        if pairs:
            zeta = self.zeta
            senders = world.pair_senders
        newly = False
        for j, k in edges:
            osc = oscillators[j]
            phi = osc.phase
            if pairs:
                stamps = osc.stamps
                start = stamps[k]
                # Latest completed pair wins; a lone end pulse pairs with nothing.
                if start is not None:
                    stamps[k] = None
                    # The receiver may fire between the receptions.
                    span = (phi - start) % 1.0
                    osc.ratios[k] = zeta / span if span else 0.0
                    if senders is not None:
                        senders[j, k] = value
            else:
                osc.freq_buffer.append(value)
            c = osc.pulse_count + 1
            osc.pulse_count = c
            d = in_degrees[j]
            if c == up_at and phi >= 0.5:
                osc.jump += 1.0 - phi
            if c == d - f and phi < 0.5:
                osc.jump -= phi
            if eager and c > d and not osc.detected:
                osc.detected = True
                newly = True
        return newly

    def open_update(self, world: WorldState, i: int) -> int | None:
        """Node i reaches phase 0.5 armed: check the counter and jump.

        Returns how many estimates to trim from each end, or None when the
        counter overflowed; then detection is latched and the round reset.

        Raises:
            ProtocolFault: node i heard fewer than d - f pulses.
        """
        osc = world.oscillators[i]
        osc.phase = 0.5
        c = osc.pulse_count
        d = world.in_degrees[i]
        if c > d:
            osc.detected = True
            osc.reset_round()
            return None
        trim = self.f - (d - c)
        if trim < 0:
            raise ProtocolFault(
                f"node {i} heard only {c} of {d} in-neighbor pulses in a round; "
                f"the scenario violates the one-pulse-per-round precondition"
            )
        osc.phase = 0.5 + 0.5 * osc.jump
        return trim

    def close_update(self, world: WorldState, i: int, omega: float) -> bool:
        """Node i takes frequency ``omega`` and ends its round, latching no
        detection; past ``omega_limit`` it raises ProtocolFault instead."""
        if not omega <= self.omega_limit:
            raise ProtocolFault(f"node {i} updated its frequency to {omega!r}, past "
                                f"{self.omega_limit!r}, the fastest the event loop can step")
        osc = world.oscillators[i]
        osc.omega = omega
        osc.reset_round()
        return False
