"""Scripted misbehaving nodes.

A misbehaving node never runs the protocol; it is a pulse source driven by
a fixed schedule, with a frequency claim attached to each counted pulse.
Schedules are materialized deterministically up to the run horizon, so a
script contributes finitely many events and the engine's liveness budget
stays meaningful. A schedule holds at most ``MAX_SCRIPTED_PULSES`` pulses
and keeps the last horizon it was materialized for, so the scenario gate,
the stealth check and the event loop share one materialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .engine import WorldState

ClaimFn = Callable[[float], float]

# Pulses one schedule may hold, start pulses counted apart; a larger one is
# refused before it is built.
MAX_SCRIPTED_PULSES = 100_000


def one_plus_abs_sin(t: float) -> float:
    return 1.0 + abs(math.sin(t))


def sawtooth(t: float) -> float:
    return 1.0 + t - math.floor(t)


def constant(value: float) -> ClaimFn:
    def claim(t: float) -> float:
        return value

    return claim


_NAMED_CLAIMS: dict[str, ClaimFn] = {
    "one_plus_abs_sin": one_plus_abs_sin,
    "sawtooth": sawtooth,
}


def _finite_claim(value: float) -> float:
    """A claimed frequency as a float; NaN and infinities are refused, since
    a receiver's trimmed average cannot rank them."""
    claimed = float(value)
    if not math.isfinite(claimed):
        raise ValueError(f"frequency claim must be finite, got {claimed}")
    return claimed


def parse_claim(spec: str | float) -> ClaimFn:
    """Resolve a claim description: a named waveform, "constant:X", or a
    number; a constant claim must be finite."""
    if isinstance(spec, (int, float)):
        return constant(_finite_claim(spec))
    if spec in _NAMED_CLAIMS:
        return _NAMED_CLAIMS[spec]
    if spec.startswith("constant:"):
        return constant(_finite_claim(spec.split(":", 1)[1]))
    raise ValueError(
        f"unknown frequency claim {spec!r}; expected one of "
        f"{sorted(_NAMED_CLAIMS)}, 'constant:X', or a number"
    )


@dataclass(frozen=True)
class AttackScript:
    """One misbehaving node's emission plan.

    ``emission_times`` maps a horizon to the sorted counted-pulse times
    within it; ``start_emission_times`` does the same for forged start
    pulses (only read by the relative-frequency protocol). ``freq_claim``
    is evaluated at each counted emission time.
    """

    node: int
    freq_claim: ClaimFn
    emission_times: Callable[[float], tuple[float, ...]]
    start_emission_times: Callable[[float], tuple[float, ...]]


def _no_times(horizon: float) -> tuple[float, ...]:
    return ()


def _periodic(offsets: Sequence[float], period: float) -> Callable[[float], tuple[float, ...]]:
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and positive, got {period}")
    offs = tuple(sorted(float(o) for o in offsets))
    for o in offs:
        if not 0.0 <= o < period:
            raise ValueError(f"offset {o} outside [0, period={period})")

    @lru_cache(maxsize=1)
    def schedule(horizon: float) -> tuple[float, ...]:
        if len(offs) * (horizon / period) > MAX_SCRIPTED_PULSES:
            raise ValueError(
                f"{len(offs)} offset(s) every {period} schedule more than "
                f"{MAX_SCRIPTED_PULSES} pulses by the horizon {horizon}"
            )
        times: list[float] = []
        rounds = int(math.floor(horizon / period)) + 1
        for n in range(rounds + 1):
            for o in offs:
                t = n * period + o
                if t <= horizon:
                    times.append(t)
        return tuple(times)

    return schedule


def _explicit(times: Iterable[float]) -> Callable[[float], tuple[float, ...]]:
    fixed = tuple(sorted(float(t) for t in times))
    if any(t < 0.0 for t in fixed):
        raise ValueError("pulse times must be nonnegative")

    @lru_cache(maxsize=1)
    def schedule(horizon: float) -> tuple[float, ...]:
        return tuple(t for t in fixed if t <= horizon)

    return schedule


def silent_script(node: int) -> AttackScript:
    """Never emits; receivers simply hear one pulse less per round."""
    return AttackScript(node, constant(1.0), _no_times, _no_times)


def stealthy_script(
    node: int,
    period_offsets: Sequence[float],
    claim: ClaimFn | str | float,
    period: float = 1.0,
    start_offsets: Sequence[float] = (),
) -> AttackScript:
    """One pulse per nominal round at each offset, with a frequency claim.

    Offsets must be chosen so no receiver counts more pulses per round than
    its in-degree; scenario loading checks this with ``is_stealthy``.
    """
    claim_fn = claim if callable(claim) else parse_claim(claim)
    starts = _periodic(start_offsets, period) if start_offsets else _no_times
    return AttackScript(node, claim_fn, _periodic(period_offsets, period), starts)


def flooding_script(
    node: int,
    burst_count: int,
    burst_interval: float = 0.02,
    start_time: float = 1.0,
    claim: ClaimFn | str | float = 1.0,
) -> AttackScript:
    """A one-shot rapid burst; sized past a receiver's in-degree it trips
    the counter check at that receiver's next update."""
    if not 1 <= burst_count <= MAX_SCRIPTED_PULSES:
        raise ValueError(
            f"burst needs 1 to {MAX_SCRIPTED_PULSES} pulses, got {burst_count}"
        )
    if burst_interval <= 0.0:
        raise ValueError(f"burst interval must be positive, got {burst_interval}")
    claim_fn = claim if callable(claim) else parse_claim(claim)
    times = [start_time + k * burst_interval for k in range(burst_count)]
    return AttackScript(node, claim_fn, _explicit(times), _no_times)


def custom_script(
    node: int,
    pulses: Sequence[tuple[float, float]],
    start_pulses: Sequence[float] = (),
) -> AttackScript:
    """Fully explicit schedule: (time, claimed frequency) pairs plus
    optional forged start-pulse times. Every claim must be finite."""
    by_time = {float(t): _finite_claim(v) for t, v in pulses}
    if len(by_time) != len(pulses):
        raise ValueError("duplicate pulse times in custom script")

    def claim(t: float) -> float:
        return by_time[t]

    starts = _explicit(start_pulses) if start_pulses else _no_times
    return AttackScript(node, claim, _explicit(by_time), starts)


def is_stealthy(
    script: AttackScript,
    world: WorldState,
    horizon: float,
) -> bool:
    """Whether the script can never push a receiver's round count past its
    in-degree, assuming every other in-neighbor behaves.

    A receiver's round never lasts longer than one nominal period at the
    normalized frequency floor, and a well-behaved in-neighbor contributes
    exactly one counted pulse per round. The script therefore passes iff it
    emits at most one counted pulse in every sliding window of one nominal
    period (1.0). The test is per-script and composes: any set of
    passing scripts keeps every round count at or below the in-degree.
    """
    if not world.normal_receivers[script.node]:
        return True
    times = script.emission_times(horizon)
    for prev, cur in zip(times, times[1:]):
        if cur - prev < 1.0 - 1e-12:
            return False
    return True
