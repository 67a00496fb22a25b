"""Synchronization diagnostics: spreads, windows, the virtual reference
oscillator, analytic admissibility bounds, and per-event safety checks.

Quantities indexed by k live on the event sequence, not on wall time; the
window convention pads with event-0 values, which a window seeded at event
0 reproduces exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .engine import PHASE_SLACK, Event, EventKind, WorldState
from .errors import InvariantViolation
from .phase import clockwise_dist, containing_arc

MONITOR_MODES = ("off", "warn", "strict")


def decay_envelope(
    spread0: float, alpha: float, window_len: int, normal_count: int, k: int
) -> float:
    """Analytic upper bound on the windowed frequency spread at event k.

    One contraction by (1 - alpha**(window_len * normal_count) / 2) is
    guaranteed per ``window_len * normal_count`` events.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"weight floor must be in (0, 1], got {alpha}")
    period = window_len * normal_count
    base = 1.0 - alpha**period / 2.0
    return base ** (k // period) * spread0


def check_initial_bound(
    variant: str,
    *,
    arc0: float,
    spread0: float,
    node_count: int,
    normal_count: int,
    alpha: float,
    window_len: int | None = None,
    zeta: float = 0.1,
) -> tuple[bool, float, float]:
    """Evaluate one of the analytic initial-condition bounds.

    Variants: "strict" (window fixed at the universal 2N), "relaxed"
    (any window length over which every node provably updates), and
    "relative" (the relaxed form with the threshold shrunk by the
    start-pulse offset). Returns (satisfied, lhs, rhs). The coefficient is
    astronomically conservative by design; these are sufficient conditions,
    not operating envelopes.
    """
    if variant not in ("strict", "relaxed", "relative"):
        raise ValueError(f"unknown bound variant {variant!r}")
    n, r = node_count, normal_count
    if variant == "strict":
        exponent = 2 * n * r
        numerator = 4.0 * n * r
    else:
        kbar = 2 * n if window_len is None else window_len
        exponent = kbar * r
        numerator = 2.0 * kbar * r
    denom = alpha**exponent
    coeff = float("inf") if denom == 0.0 else numerator / denom
    lhs = arc0 if spread0 == 0.0 else arc0 + coeff * spread0
    rhs = 0.5 - zeta if variant == "relative" else 0.5
    return (lhs < rhs, lhs, rhs)


class SpreadWindow:
    """Sliding extrema over the (lo, hi) pairs of the last ``window_len``
    events.

    ``push(k, lo, hi)`` records the pair that holds from event k until the
    next push, so a caller may push at every event or only where the pair
    changes. Each extremum is kept in a monotonic deque of [first event,
    value, end] entries, ``end`` being the event of the following push
    (infinity for the latest), so a push costs O(1) amortized. A value is
    dropped only when a later one beats it strictly, so among equal values
    the window reports the earliest, as ``min``/``max`` over the window's
    per-event values would. ``at(k)`` drops the entries whose pair stopped
    holding before the window of event k opened; reads must come at
    nondecreasing k, no earlier than the latest push.
    """

    def __init__(self, window_len: int):
        if window_len < 1:
            raise ValueError(f"window length must be positive, got {window_len}")
        self.window_len = window_len
        self._lows: deque[list] = deque()
        self._highs: deque[list] = deque()

    def push(self, k: int, lo: float, hi: float) -> None:
        """Record the pair that holds from event k on."""
        lows = self._lows
        if lows:
            lows[-1][2] = k
        while lows and lows[-1][1] > lo:
            lows.pop()
        lows.append([k, lo, math.inf])
        highs = self._highs
        if highs:
            highs[-1][2] = k
        while highs and highs[-1][1] < hi:
            highs.pop()
        highs.append([k, hi, math.inf])

    def at(self, k: int) -> tuple[float, float, float]:
        """(windowed min, windowed max, their difference) after event k."""
        start = k - self.window_len + 1
        lows = self._lows
        while lows[0][2] <= start:
            lows.popleft()
        highs = self._highs
        while highs[0][2] <= start:
            highs.popleft()
        m = lows[0][1]
        big = highs[0][1]
        return m, big, big - m


@dataclass
class VirtualNode:
    """Free-running reference oscillator: never jumps, never fires, and
    tracks the windowed frequency floor of the normal population."""

    phase: float = 0.0
    omega: float = 1.0

    def advance(self, dt: float) -> None:
        self.phase = (self.phase + self.omega * dt) % 1.0


@dataclass
class TraceRecord:
    k: int
    t: float
    event_kind: str
    node: int
    phases: tuple[float, ...]
    omegas: tuple[float, ...]
    delta: float
    delta_windowed: float
    v: float
    detected_mask: int


def trace_header(node_count: int) -> str:
    cols = ["k", "t", "event_kind", "node"]
    cols += [f"phi_{i}" for i in range(node_count)]
    cols += [f"omega_{i}" for i in range(node_count)]
    cols += ["Delta", "delta_windowed", "V", "detected_mask"]
    return ",".join(cols)


def format_trace_row(row: TraceRecord) -> str:
    parts = [str(row.k), repr(row.t), row.event_kind, str(row.node)]
    parts += [repr(p) for p in row.phases]
    parts += [repr(w) for w in row.omegas]
    parts += [repr(row.delta), repr(row.delta_windowed), repr(row.v), str(row.detected_mask)]
    return ",".join(parts)


def write_trace(path: str | Path, node_count: int, rows: list[TraceRecord]) -> None:
    lines = [trace_header(node_count)]
    lines += [format_trace_row(r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


class RunMetrics:
    """Per-event observer: maintains spreads, windows, convergence state,
    detections, and the safety checks.

    ``observe`` is the only call the event loop makes into it, once after
    every event. ``delta`` and ``delta_windowed`` are the containing arc
    and the windowed frequency spread of the normal nodes after the latest
    observed event. Both are computed on read, from the phases stored by
    that ``observe`` and from the frequency window, so they stay the values
    after the last observed event even when a protocol fault ends the run
    inside a handler that has already moved the world. ``mode`` controls
    what a failed check does: "off" skips it, "warn" records it in
    ``violations``, "strict" raises InvariantViolation. Safety checks
    express guarantees that only hold on conforming runs (stealthy scripts,
    admissible initial conditions), which is why the default everywhere
    outside the test suite is "warn".

    One ``SpreadWindow`` holds the frequency extrema in every mode. With
    the monitor on or a trace collected, ``observe`` rescans the normal
    frequencies and pushes their extrema on every event. It also advances
    the virtual node by the time since the last observed event, sets its
    rate to the windowed floor, and pushes its radii into a second window
    for the radius spread V. With the monitor off and no trace, nothing
    reads V, so ``observe`` keeps its own list of the normal frequencies
    and moves the extrema only after update events, the only ones that
    write a frequency, and only from the updated node: the new value either
    passes an extremum, leaves both where they were, or (a tie, or the node
    that held an extremum moving inward) sends that extremum to a
    ``min``/``max`` rescan, so the extrema are always the floats a full
    scan would give. It pushes them only at the events that move them.

    On that path ``observe`` also keeps its list of the normal phases in
    place: it rereads every phase only when the clock has moved since the
    last observed event, and otherwise writes the actor's slot alone, or
    nothing after an adversary pulse. That rests on the event loop's
    unchanged-clock contract (see ``engine``). The list is still the
    snapshot of the last observed event, so ``delta`` after a protocol fault
    is that event's arc. Once the frequencies have converged, the phase test
    first reads a witness pair, the tail and head nodes of the last arc
    found wider than ``tol_phase``; while their circular distance rules the
    arc out, the streak resets without a sort (``_phases_within_tol`` gives
    the bound). In every mode the arc is computed only when something reads
    it, and detections are scanned only after an event whose handler
    reported one.
    """

    _MAX_RECORDED_VIOLATIONS = 200

    def __init__(
        self,
        world: WorldState,
        *,
        alpha: float,
        window_len: int | None = None,
        mode: str = "warn",
        tol_phase: float = 1e-6,
        tol_freq: float = 1e-6,
        collect_trace: bool = True,
    ):
        if mode not in MONITOR_MODES:
            raise ValueError(f"monitor mode must be one of {MONITOR_MODES}, got {mode!r}")
        n = world.graph.node_count
        self.mode = mode
        self.alpha = alpha
        self.window_len = 2 * n if window_len is None else window_len
        self.tol_phase = tol_phase
        self.tol_freq = tol_freq
        self.normal_count = len(world.normal_ids)

        omegas0 = self._omegas = world.normal_omegas()
        self._slots = {i: slot for slot, i in enumerate(world.normal_ids)}
        self.hull = (min(omegas0), max(omegas0))
        self.spread0 = self.hull[1] - self.hull[0]

        self.virtual = VirtualNode(phase=0.0, omega=self.hull[0])
        self._tracks_radii = mode != "off" or collect_trace

        self.violations: list[str] = []
        self._suppressed = 0
        self.detection_events: list[tuple[int, float, int]] = []
        self._detected_mask = 0  # a freshly built world has no detections
        self.converged = False
        self._streak = 0
        self.virtual_in_range = True
        self.rows: list[TraceRecord] | None = [] if collect_trace else None

        self._lo, self._hi = self.hull
        self._k = 0
        phases = self._phases = world.normal_phases()
        # A run mutates the world's oscillators but never replaces them.
        self._normal_oscillators = [world.oscillators[i] for i in world.normal_ids]
        self._clock = world.clock
        self._delta: float | None = None
        # Slots of the tail and head of the last arc found wider than
        # tol_phase; see ``_phases_within_tol``.
        self._witness = (0, 0)
        self._witness_bound = tol_phase + PHASE_SLACK + 1e-12
        self.freq_window = SpreadWindow(self.window_len)
        self.freq_window.push(0, *self.hull)
        if self._tracks_radii:
            self._prev_floor, self._prev_ceiling = self.hull
            self.radius_window = SpreadWindow(self.window_len)
            _, v0 = self._push_radii(0, phases)
        if self.rows is not None:
            self._append_row(world, 0, "init", -1, v0)

    @property
    def delta(self) -> float:
        """Containing arc of the normal phases after the latest event."""
        delta = self._delta
        if delta is None:
            delta = self._delta = containing_arc(self._phases).length
        return delta

    @property
    def delta_windowed(self) -> float:
        """Windowed frequency spread of the normal nodes after the latest event."""
        return self.freq_window.at(self._k)[2]

    def observe(self, world: WorldState, event: Event, newly_detected: bool = True) -> None:
        """Record the world after ``event``. ``newly_detected`` is what the
        event's handler returned; a caller that cannot tell passes True.

        With the monitor off and no trace, the caller must keep the event
        loop's contract (see ``engine``): at the clock of the previous
        observed event, the handler moved no normal phase but its actor's,
        and an adversary pulse moved none. Across a clock change any phase
        may have moved.
        """
        k = self._k = world.event_count
        self._delta = None
        clock = world.clock
        if self._tracks_radii:
            oscillators = self._normal_oscillators
            phases = self._phases = [osc.phase for osc in oscillators]
            omegas = [osc.omega for osc in oscillators]
            lo = self._lo = min(omegas)
            hi = self._hi = max(omegas)
            self.freq_window.push(k, lo, hi)
            floor, ceiling, spread_w = self.freq_window.at(k)
            # The handlers never move the clock or the virtual node, so this
            # is the step the event loop advanced the phases by.
            dt = clock - self._clock
            self._clock = clock
            if dt > 0.0:
                self.virtual.advance(dt)
            self.virtual.omega = floor
            radius_max, v = self._push_radii(k, phases)
        else:
            # A clock change may have moved every phase; at the same clock
            # only the actor's phase can have moved, and an adversary
            # pulse's actor is faulty.
            node = event.node
            kind = event.kind
            if clock != self._clock:
                self._clock = clock
                self._phases = [osc.phase for osc in self._normal_oscillators]
            elif kind is not EventKind.ADVERSARY_PULSE:
                self._phases[self._slots[node]] = world.oscillators[node].phase
            if kind is EventKind.UPDATE:
                # An update writes only its actor's frequency. Equal nonzero
                # floats are one float, so a held frequency moves nothing. A
                # value past an extremum becomes it; an extremum that the old
                # and the new value both lie strictly inside stays; anything
                # else (a tie, the holder moving inward, a NaN) rescans. So
                # the extrema are the floats ``min`` and ``max`` of the whole
                # list would return.
                omegas = self._omegas
                slot = self._slots[node]
                old = omegas[slot]
                new = world.oscillators[node].omega
                if new != old or new == 0.0:
                    omegas[slot] = new
                    lo, hi = self._lo, self._hi
                    if new < lo:
                        self._lo = new
                    elif not (new > lo and old > lo):
                        self._lo = min(omegas)
                    if new > hi:
                        self._hi = new
                    elif not (new < hi and old < hi):
                        self._hi = max(omegas)
                    self.freq_window.push(k, self._lo, self._hi)

        if self.mode != "off":
            delta = self.delta
            self._check(f"frequency left the initial hull at event {k}",
                        lo >= self.hull[0] - 1e-9 and hi <= self.hull[1] + 1e-9)
            self._check(f"containing arc reached {delta:.6f} >= 0.5 at event {k}",
                        delta < 0.5)
            self._check(f"windowed frequency floor decreased at event {k}",
                        floor >= self._prev_floor - 1e-12)
            self._check(f"windowed frequency ceiling increased at event {k}",
                        ceiling <= self._prev_ceiling + 1e-12)
            envelope = decay_envelope(
                self.spread0, self.alpha, self.window_len, self.normal_count, k
            )
            self._check(
                f"windowed spread {spread_w:.3e} broke its decay envelope at event {k}",
                spread_w <= envelope + 1e-9,
            )
            # The tail and radius-spread properties read the virtual node as
            # the rear of the shortest containing arc, which is only defined
            # while that arc spans less than a half circle.  The reference
            # runs at the windowed floor, so a wide or slow start lets the
            # pack pull more than half a turn ahead; past that point the arc
            # flips orientation and the two checks stop being meaningful for
            # the rest of the run.
            arc_with_virtual = containing_arc(phases + [self.virtual.phase]).length
            if self.virtual_in_range and arc_with_virtual >= 0.5:
                self.virtual_in_range = False
            if self.virtual_in_range:
                self._check(
                    f"virtual node left the tail of the containing arc at event {k}",
                    abs(arc_with_virtual - radius_max) <= 1e-9,
                )
                self._check(
                    f"containing arc exceeded the virtual-radius spread at event {k}",
                    delta <= v + 1e-9,
                )
            self._prev_floor = floor
            self._prev_ceiling = ceiling

        if newly_detected:
            mask = self._detected_mask
            oscillators = world.oscillators
            for i in world.normal_ids:
                if oscillators[i].detected and not mask >> i & 1:
                    mask |= 1 << i
                    self.detection_events.append((k, event.time, i))
            self._detected_mask = mask

        if self._hi - self._lo <= self.tol_freq and self._phases_within_tol():
            self._streak += 1
            if self._streak >= self.window_len:
                self.converged = True
        else:
            self._streak = 0

        if self.rows is not None:
            self._append_row(world, k, event.kind.value, event.node, v)

    # -- internals -----------------------------------------------------------

    def _phases_within_tol(self) -> bool:
        """Whether the containing arc after the latest event is at most
        ``tol_phase``, ruled out first, where it can be, by the witness pair.

        The witness pair is the tail and the head node of the last arc found
        wider than ``tol_phase``. Their shorter circular distance D bounds
        the arc from below. Take the sorted phases x_1 <= ... <= x_m, all in
        [0, 1 + s] with s = PHASE_SLACK (``advance_all`` raises past that),
        and a witness pair a <= b among them with c = b - a, so that
        D = min(c, 1 - c). The arc is 1 - G, G the widest gap. A gap inside
        [a, b] is at most c, so there 1 - G >= 1 - c >= D. The wrap gap
        1 - (x_m - x_1) is at most 1 - c, so there 1 - G >= c >= D. The gaps
        below a and above b sum to (x_m - x_1) - c <= 1 + s - c, so there
        1 - G >= c - s >= D - s. Hence the arc is at least D - s. In floats
        every result lies in [-s, 1 + s], so each subtraction or addition is
        off by at most 2**-52: ``containing_arc`` (three operations deep)
        reads at most 3 * 2**-52 < 7e-16 below the exact arc, and D (two
        deep) at most 2 * 2**-52 < 5e-16 above its exact value. A computed D
        above tol_phase + s + 1e-12 therefore leaves the computed arc above
        tol_phase by more than 1e-12 - 1.2e-15: the streak would reset, and
        no sort is needed to say so. A NaN compares false and falls through
        to the sort.
        """
        delta = self._delta
        if delta is None:
            phases = self._phases
            a, b = self._witness
            d = abs(phases[a] - phases[b])
            if min(d, 1.0 - d) > self._witness_bound:
                return False
            arc = containing_arc(phases)
            delta = self._delta = arc.length
            if delta > self.tol_phase:
                self._witness = (phases.index(arc.tail), phases.index(arc.head))
        return delta <= self.tol_phase

    def _check(self, message: str, ok: bool) -> None:
        if ok:
            return
        if self.mode == "strict":
            raise InvariantViolation(message)
        if len(self.violations) < self._MAX_RECORDED_VIOLATIONS:
            self.violations.append(message)
        else:
            self._suppressed += 1

    def _push_radii(self, k: int, phases: list[float]) -> tuple[float, float]:
        """Push the normal nodes' clockwise distances from the virtual node
        at event k; return (largest distance, windowed radius spread V)."""
        radii = [clockwise_dist(p, self.virtual.phase) for p in phases]
        radius_max = max(radii)
        window = self.radius_window
        window.push(k, min(radii), radius_max)
        return radius_max, window.at(k)[2]

    def _append_row(self, world: WorldState, k: int, kind: str, node: int, v: float) -> None:
        self.rows.append(TraceRecord(
            k=k,
            t=world.clock,
            event_kind=kind,
            node=node,
            phases=tuple(o.phase for o in world.oscillators),
            omegas=tuple(o.omega for o in world.oscillators),
            delta=self.delta,
            delta_windowed=self.delta_windowed,
            v=v,
            detected_mask=self._detected_mask,
        ))

    def suppressed_violations(self) -> int:
        return self._suppressed
