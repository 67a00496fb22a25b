"""Scripted misbehaving nodes.

A misbehaving node never runs the protocol; it is a pulse source driven by
a fixed schedule, with a frequency claim attached to each counted pulse. A
schedule gives its pulses up to a horizon as sorted streams together with
each stream's exact count, so a script contributes finitely many events,
the engine's liveness budget stays meaningful, and pulses are computed only
when a run reaches them. Nothing is materialized up front: a periodic
schedule computes each pulse time when a run first reaches it, and an
explicit one reads a prefix of its sorted times. The engine's ``PulseTape``
merges the streams and evaluates each counted pulse's claim once per
prepared scenario and process; every run of that scenario reads the tape.
The stealth check walks the same merged streams and stops at the first gap
shorter than a period. A periodic schedule is refused by arithmetic alone
when it would hold more than ``MAX_SCRIPTED_PULSES`` pulses by the horizon;
every pulse time is finite, since sorting and bisection are undefined over
NaN.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import merge
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .engine import WorldState

ClaimFn = Callable[[float], float]

# Pulses one schedule may hold, start pulses counted apart; a larger one is
# refused before any is computed.
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


Stream = tuple[int, Iterator[float]]


class Schedule:
    """Pulse times of one kind from one script.

    ``streams(horizon)`` gives every pulse up to the horizon as a list of
    (count, times) pairs: each ``times`` iterator is nondecreasing and
    yields exactly ``count`` values. ``check(horizon)`` refuses, with a
    ValueError, a schedule too large to run to that horizon; ``streams``
    checks first. Readers merge the streams lazily (``heapq.merge``).
    """

    def check(self, horizon: float) -> None:
        pass

    def streams(self, horizon: float) -> list[Stream]:
        raise NotImplementedError


class _Periodic(Schedule):
    """One pulse at ``n * period + o`` for every offset o and n = 0, 1, ...:
    one stream per offset, nondecreasing in n because float rounding is
    monotone."""

    def __init__(self, offsets: Sequence[float], period: float):
        if not 0.0 < period < math.inf:
            raise ValueError(f"period must be finite and positive, got {period}")
        self.period = period = float(period)
        self.offsets = tuple(sorted(float(o) for o in offsets))
        for o in self.offsets:
            if not 0.0 <= o < period:
                raise ValueError(f"offset {o} outside [0, period={period})")

    def check(self, horizon: float) -> None:
        if len(self.offsets) * (horizon / self.period) > MAX_SCRIPTED_PULSES:
            raise ValueError(
                f"{len(self.offsets)} offset(s) every {self.period} schedule more than "
                f"{MAX_SCRIPTED_PULSES} pulses by the horizon {horizon}"
            )

    def streams(self, horizon: float) -> list[Stream]:
        self.check(horizon)
        period = self.period
        rounds = int(math.floor(horizon / period)) + 1
        out = []
        for o in self.offsets:
            # Rounds 0..rounds whose pulse lies within the horizon: a prefix,
            # found from the quotient and settled on the exact float sums.
            m = min(rounds, max(-1, math.floor((horizon - o) / period)))
            while m < rounds and (m + 1) * period + o <= horizon:
                m += 1
            while m >= 0 and m * period + o > horizon:
                m -= 1
            out.append((m + 1, map(o.__add__, map(period.__mul__, range(m + 1)))))
        return out


class _Explicit(Schedule):
    """Fixed pulse times: one stream, a prefix of the sorted times."""

    def __init__(self, times: Iterable[float]):
        fixed = [float(t) for t in times]
        for t in fixed:
            if not 0.0 <= t < math.inf:
                raise ValueError(f"pulse times must be finite and nonnegative, got {t}")
        self.times = tuple(sorted(fixed))

    def streams(self, horizon: float) -> list[Stream]:
        count = bisect_right(self.times, horizon)
        return [(count, islice(self.times, count))]


_NO_TIMES = _Explicit(())


@dataclass(frozen=True)
class AttackScript:
    """One misbehaving node's emission plan.

    ``emission_times`` is the schedule of counted pulses and
    ``start_emission_times`` that of forged start pulses (only read by the
    relative-frequency protocol); each gives its pulses up to a horizon as
    sorted streams with exact counts. ``freq_claim`` is evaluated at each
    counted emission time, once per prepared scenario and process, and
    every run reads that value, so it must be a function of the scripted
    time alone; the named, constant and custom claims are.
    """

    node: int
    freq_claim: ClaimFn
    emission_times: Schedule
    start_emission_times: Schedule


def silent_script(node: int) -> AttackScript:
    """Never emits; receivers simply hear one pulse less per round."""
    return AttackScript(node, constant(1.0), _NO_TIMES, _NO_TIMES)


def stealthy_script(
    node: int,
    period_offsets: Sequence[float] = (0.0,),
    claim: ClaimFn | str | float = "one_plus_abs_sin",
    period: float = 1.0,
    start_offsets: Sequence[float] = (),
) -> AttackScript:
    """One pulse per nominal round at each offset, with a frequency claim.

    Offsets must be chosen so no receiver counts more pulses per round than
    its in-degree; scenario loading checks this with ``is_stealthy``.
    """
    claim_fn = claim if callable(claim) else parse_claim(claim)
    starts = _Periodic(start_offsets, period) if start_offsets else _NO_TIMES
    return AttackScript(node, claim_fn, _Periodic(period_offsets, period), starts)


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
    return AttackScript(node, claim_fn, _Explicit(times), _NO_TIMES)


def custom_script(
    node: int,
    pulses: Sequence[tuple[float, float]] = (),
    start_pulses: Sequence[float] = (),
) -> AttackScript:
    """Fully explicit schedule: (time, claimed frequency) pairs plus
    optional forged start-pulse times. Every claim must be finite."""
    by_time = {float(t): _finite_claim(v) for t, v in pulses}
    if len(by_time) != len(pulses):
        raise ValueError("duplicate pulse times in custom script")

    def claim(t: float) -> float:
        return by_time[t]

    starts = _Explicit(start_pulses) if start_pulses else _NO_TIMES
    return AttackScript(node, claim, _Explicit(by_time), starts)


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
    if not world.receiver_slots[script.node]:
        return True
    prev = -math.inf
    for cur in merge(*(times for _, times in script.emission_times.streams(horizon))):
        if cur - prev < 1.0 - 1e-12:
            return False
        prev = cur
    return True
