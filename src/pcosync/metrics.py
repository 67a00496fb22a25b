"""Synchronization diagnostics: spreads, windows, the virtual reference
oscillator, analytic admissibility bounds, and per-event safety checks.

Quantities indexed by k live on the event sequence, not on wall time; the
window convention pads with event-0 values, which a ring buffer seeded at
event 0 reproduces exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .engine import Event, EventKind, WorldState
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
    """Sliding extrema over the last ``window_len`` per-event (lo, hi) pairs.

    Each extremum is kept in a monotonic deque of (event index, value)
    pairs, so a push costs O(1) amortized. A value is dropped only when a
    later one beats it strictly, so among equal values the window reports
    the earliest, as ``min``/``max`` over the window would.
    """

    def __init__(self, window_len: int):
        if window_len < 1:
            raise ValueError(f"window length must be positive, got {window_len}")
        self.window_len = window_len
        self._count = 0
        self._lows: deque[tuple[int, float]] = deque()
        self._highs: deque[tuple[int, float]] = deque()

    def push(self, lo: float, hi: float) -> tuple[float, float, float]:
        """Append one event's extrema; return (windowed min, windowed max,
        their difference)."""
        k = self._count
        self._count = k + 1
        expired = k - self.window_len
        lows = self._lows
        while lows and lows[-1][1] > lo:
            lows.pop()
        lows.append((k, lo))
        if lows[0][0] == expired:
            lows.popleft()
        highs = self._highs
        while highs and highs[-1][1] < hi:
            highs.pop()
        highs.append((k, hi))
        if highs[0][0] == expired:
            highs.popleft()
        m = lows[0][1]
        big = highs[0][1]
        return m, big, big - m


class ExtremaHistory:
    """The per-event (lo, hi) pairs of a run, kept only where they change,
    with the spread a ``SpreadWindow`` of the same length reports computed
    on read.

    ``move(k, lo, hi)`` records the pair that holds from event k on; event
    0 holds the pair given at construction. ``spread(k)`` replays, into a
    fresh ``SpreadWindow``, the pair in effect at the first of the last
    ``window_len`` events up to k and every later move. Every value that
    replay leaves out has left the window, and a pair repeated over several
    events reports as the earliest of its copies, so the result is the
    sliding window's, bit for bit. Moves before that first event are
    dropped once they outnumber twice the window.
    """

    def __init__(self, window_len: int, lo: float, hi: float):
        if window_len < 1:
            raise ValueError(f"window length must be positive, got {window_len}")
        self.window_len = window_len
        self._moves = [(0, lo, hi)]

    def _first(self, k: int) -> int:
        """Index of the move in effect at the first event of k's window."""
        start = k - self.window_len + 1
        return max(0, bisect_right(self._moves, start, key=itemgetter(0)) - 1)

    def move(self, k: int, lo: float, hi: float) -> None:
        moves = self._moves
        moves.append((k, lo, hi))
        if len(moves) > 2 * self.window_len:
            del moves[: self._first(k)]

    def spread(self, k: int) -> float:
        """The windowed spread after event k, the latest recorded."""
        window = SpreadWindow(self.window_len)
        for _, lo, hi in self._moves[self._first(k) :]:
            spread = window.push(lo, hi)[2]
        return spread


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

    ``delta`` and ``delta_windowed`` hold the containing arc and the
    windowed frequency spread of the normal nodes after the latest event.
    ``mode`` controls what a failed check does: "off" skips it, "warn"
    records it in ``violations``, "strict" raises InvariantViolation.
    Safety checks express guarantees that only hold on conforming runs
    (stealthy scripts, admissible initial conditions), which is why the
    default everywhere outside the test suite is "warn".

    With the monitor on or a trace collected, ``observe`` computes every
    quantity from the world on every event: the frequency extrema and their
    sliding window, the arc, the virtual-node radius spread V, and a scan
    of every normal node for new detections. With the monitor off and no
    trace, nothing reads V, the window or the arc of most events, so
    ``observe`` computes only what the run reports. It keeps its own list
    of the normal frequencies and moves the extrema only after update
    events, the only ones that write a frequency, and only from the
    updated node: the new value either passes an
    extremum, leaves both where they were, or (a tie, or the node that held
    an extremum moving inward) sends that extremum to a ``min``/``max``
    rescan, so the extrema are always the floats a full scan would give.
    It records the extrema in an ``ExtremaHistory`` only at the update
    events that move them, and leaves the virtual node alone, since only
    the monitor and the trace read it. It scans for detections only after
    an event whose handler reported one, and it computes the arc only when
    the frequencies have converged. ``delta`` and ``delta_windowed`` are
    computed on read, from the phases stored by the latest ``observe`` and
    from the extrema recorded up to it, so they stay the values after the
    last observed event even when a protocol fault ends the run inside a
    handler that has already moved the world.
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
        self._delta: float | None = None
        if self._tracks_radii:
            self.freq_window = SpreadWindow(self.window_len)
            self.radius_window = SpreadWindow(self.window_len)
            self._prev_floor, self._prev_ceiling, self._spread_w = self.freq_window.push(*self.hull)
            _, v0 = self._push_radii(phases)
        else:
            self._extrema = ExtremaHistory(self.window_len, *self.hull)
        if self.rows is not None:
            self._append_row(world, 0, "init", -1, v0)

    # -- engine hooks --------------------------------------------------------

    def advance(self, dt: float) -> None:
        if self._tracks_radii:
            self.virtual.advance(dt)

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
        if self._tracks_radii:
            return self._spread_w
        return self._extrema.spread(self._k)

    def observe(self, world: WorldState, event: Event, newly_detected: bool = True) -> None:
        """Record the world after ``event``. ``newly_detected`` is what the
        event's handler returned; a caller that cannot tell passes True."""
        k = self._k = world.event_count
        phases = self._phases = world.normal_phases()
        tracked = self._tracks_radii
        if tracked:
            omegas = world.normal_omegas()
            self._lo = min(omegas)
            self._hi = max(omegas)
        elif event.kind is EventKind.UPDATE:
            # An update writes only its actor's frequency. Equal nonzero
            # floats are one float, so a held frequency moves nothing. A value
            # past an extremum becomes it; an extremum that the old and the
            # new value both lie strictly inside stays; anything else (a tie,
            # the holder moving inward, a NaN) rescans. So the extrema are
            # the floats ``min`` and ``max`` of the whole list would return.
            omegas = self._omegas
            slot = self._slots[event.node]
            old = omegas[slot]
            new = world.oscillators[event.node].omega
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
                self._extrema.move(k, self._lo, self._hi)
        lo, hi = self._lo, self._hi
        if tracked:
            floor, ceiling, spread_w = self.freq_window.push(lo, hi)
            self.virtual.omega = floor
            self._spread_w = spread_w
            radius_max, v = self._push_radii(phases)
            delta = self._delta = containing_arc(phases).length
        else:
            self._delta = None

        if self.mode != "off":
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

        if tracked or newly_detected:
            mask = self._detected_mask
            oscillators = world.oscillators
            for i in world.normal_ids:
                if oscillators[i].detected and not mask >> i & 1:
                    mask |= 1 << i
                    self.detection_events.append((k, event.time, i))
            self._detected_mask = mask

        if hi - lo <= self.tol_freq and self.delta <= self.tol_phase:
            self._streak += 1
            if self._streak >= self.window_len:
                self.converged = True
        else:
            self._streak = 0

        if self.rows is not None:
            self._append_row(world, k, event.kind.value, event.node, v)

    # -- internals -----------------------------------------------------------

    def _check(self, message: str, ok: bool) -> None:
        if ok:
            return
        if self.mode == "strict":
            raise InvariantViolation(message)
        if len(self.violations) < self._MAX_RECORDED_VIOLATIONS:
            self.violations.append(message)
        else:
            self._suppressed += 1

    def _push_radii(self, phases: list[float]) -> tuple[float, float]:
        """Push the normal nodes' clockwise distances from the virtual node;
        return (largest distance, windowed radius spread V)."""
        radii = [clockwise_dist(p, self.virtual.phase) for p in phases]
        radius_max = max(radii)
        _, _, v = self.radius_window.push(min(radii), radius_max)
        return radius_max, v

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
