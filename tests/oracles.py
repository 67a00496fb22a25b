"""Independent reference implementations the library is checked against.

The oracles are written straight from the definitions, in the
most literal style available, and deliberately share no logic with the
package: circle distances via modular arithmetic instead of branches, arcs
by trying every tail instead of scanning gaps, robustness by materializing
every subset pair as a frozenset instead of bitmask enumeration. The later
sections instead keep the package's own earlier, plainer code, which its
faster replacements must match bit for bit.
"""

import itertools
import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from heapq import merge
from operator import itemgetter

from pcosync import AbsoluteProtocol, OscillatorState, RelativeProtocol, msr_trim
from pcosync.msr import EqualWeights, neighbor_weight


def circle_dist(a, b):
    """Clockwise distance from b forward to a, as a single modulo."""
    return (a - b) % 1.0


def brute_force_arc(phases):
    """Shortest containing arc by rotation: try every point as the tail.

    The span for a candidate tail is the largest clockwise distance from
    it to any point; the winning tail has the smallest span, ties broken
    toward the smaller tail value. Returns (length, tail, head).
    """
    best = None
    for tail in phases:
        span = 0.0
        head = tail
        for p in phases:
            d = circle_dist(p, tail)
            if d > span:
                span = d
                head = p
        if best is None or (span, tail) < (best[0], best[1]):
            best = (span, tail, head)
    return best


def naive_is_r_robust(graph, r):
    """Literal subset-pair robustness definition.

    Enumerates every ordered pair of disjoint nonempty node subsets and
    demands that at least one node in one of the two subsets has r or more
    in-neighbors outside its own subset.
    """
    n = graph.node_count
    subsets = []
    for size in range(1, n + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(range(n), size))
    for s1, s2 in itertools.product(subsets, repeat=2):
        if s1 & s2:
            continue
        satisfied = False
        for own in (s1, s2):
            for i in own:
                outside = sum(1 for j in graph.in_neighbors[i] if j not in own)
                if outside >= r:
                    satisfied = True
                    break
            if satisfied:
                break
        if not satisfied:
            return False
    return True


def all_digraphs(n):
    """Every simple digraph on n nodes, one per subset of ordered pairs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    from pcosync import DirectedGraph

    for bits in range(1 << len(pairs)):
        rows = [[] for _ in range(n)]
        for idx, (i, j) in enumerate(pairs):
            if bits >> idx & 1:
                rows[i].append(j)
        yield DirectedGraph.from_lists(rows)


def update_sequence(rows):
    """(node, omegas) at every update event of a recorded trace."""
    return [(r.node, r.omegas) for r in rows if r.event_kind == "update"]


def streams(schedule, horizon):
    """A package ``Schedule``'s pulse times up to the horizon: its sorted
    streams merged into one tuple."""
    return tuple(merge(*(times for _, times in schedule.streams(horizon))))


# -- previous hot-path implementations -------------------------------------
#
# The three functions below are the straightforward versions of the event
# selection, the containing arc and the sliding window that the package
# replaced with faster ones. They are kept as references, changed only
# where the contract changed (the selection's time of a tie window): the
# package versions must return exactly the same values, bit for bit, and
# raise exactly where these raise.


def scan_next_event(world, protocol, pending_adversary=()):
    """``engine.next_event`` as a candidate list plus two ``min`` calls.

    Every event of a tie window happens at the window's earliest time. A
    scripted pulse that wins is the earliest candidate or ties with a node's,
    so the earlier of its time and the nodes' earliest is that minimum too."""
    from pcosync import InvariantViolation
    from pcosync.engine import ADVERSARY_PULSE, FIRE, PHASE_SLACK, START_PULSE, TIME_EPS, UPDATE

    _KINDS = (ADVERSARY_PULSE, FIRE, START_PULSE, UPDATE)
    candidates = []  # time, priority, node, start_rank
    start_target = protocol.start_target
    uses_start = start_target is not None
    for i in world.normal_ids:
        osc = world.oscillators[i]
        candidates.append(
            (world.clock + max(0.0, 1.0 - osc.phase) / osc.omega, 1, i, 0)
        )
        if osc.fired and not osc.detected:
            if osc.phase > 0.5 + PHASE_SLACK:
                raise InvariantViolation(
                    f"node {i} armed for update but past half phase ({osc.phase}) "
                    f"after event {world.event_count}"
                )
            candidates.append(
                (world.clock + max(0.0, 0.5 - osc.phase) / osc.omega, 3, i, 0)
            )
        if uses_start and not osc.start_emitted and osc.phase <= start_target + PHASE_SLACK:
            candidates.append(
                (world.clock + max(0.0, start_target - osc.phase) / osc.omega, 2, i, 0)
            )
    if pending_adversary:
        t, node, is_start = pending_adversary[0]
        candidates.append((t, 0, node, 1 if is_start else 0))
    if not candidates:
        return None
    tmin = min(c[0] for c in candidates)
    best = min(
        (c for c in candidates if c[0] <= tmin + TIME_EPS),
        key=lambda c: (c[1], c[2], c[3]),
    )
    return (tmin, _KINDS[best[1]], best[2], bool(best[3]))


def gap_loop_arc(phases):
    """``phase.containing_arc`` as a loop that builds an ``Arc`` per gap."""
    from pcosync import Arc

    if len(phases) == 0:
        raise ValueError("containing_arc needs at least one phase")
    pts = sorted(phases)
    n = len(pts)
    best_gap = -1.0
    best = Arc(0.0, pts[0], pts[0])
    for i in range(n):
        if i + 1 < n:
            gap = pts[i + 1] - pts[i]
            tail = pts[i + 1]
        else:
            gap = 1.0 - pts[-1] + pts[0]
            tail = pts[0]
        if gap > best_gap or (gap == best_gap and tail < best.tail):
            best_gap = gap
            best = Arc(1.0 - gap, tail, pts[i])
    return best


def max_gap_arc(phases):
    """``phase.containing_arc`` as one ``max`` over every gap, before the
    shortcuts that return the wrap gap or the gap crossing 0.5 unscanned."""
    from pcosync import Arc

    if len(phases) == 0:
        raise ValueError("containing_arc needs at least one phase")
    pts = sorted(phases)
    # Gap i runs clockwise from pts[i] to pts[i + 1]; the arc covering
    # everything else has tail = pts[i + 1] and head = pts[i]. The wrap gap
    # from the last point back to the first has the smallest tail, pts[0],
    # so it wins every tie; among the other gaps the first has the smallest.
    gaps = list(map(operator.sub, pts[1:], pts))
    wrap = 1.0 - pts[-1] + pts[0]
    widest = max(gaps, default=wrap)
    if wrap >= widest:
        return Arc(1.0 - wrap, pts[0], pts[-1])
    i = gaps.index(widest)
    return Arc(1.0 - widest, pts[i + 1], pts[i])


class RescanSpreadWindow:
    """``metrics.SpreadWindow`` that rescans the whole window on every push."""

    def __init__(self, window_len):
        from collections import deque

        if window_len < 1:
            raise ValueError(f"window length must be positive, got {window_len}")
        self.window_len = window_len
        self._lo = deque(maxlen=window_len)
        self._hi = deque(maxlen=window_len)

    def push(self, lo, hi):
        self._lo.append(lo)
        self._hi.append(hi)
        m = min(self._lo)
        big = max(self._hi)
        return m, big, big - m


# -- previous frequency windows ----------------------------------------------
#
# ``metrics.SpreadWindow`` as it was in two forms before one window served
# every monitor mode: a window that counted its own events and took one
# (lo, hi) pair per event, and a history that recorded only the events
# where the pair moved and replayed them into a fresh window on read. Both
# are kept verbatim apart from the window's name; the package window must
# match each of them, bit for bit.

class EventSpreadWindow:
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
    with the spread an ``EventSpreadWindow`` of the same length reports computed
    on read.

    ``move(k, lo, hi)`` records the pair that holds from event k on; event
    0 holds the pair given at construction. ``spread(k)`` replays, into a
    fresh ``EventSpreadWindow``, the pair in effect at the first of the last
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
        window = EventSpreadWindow(self.window_len)
        for _, lo, hi in self._moves[self._first(k) :]:
            spread = window.push(lo, hi)[2]
        return spread



# -- previous pulse fan-out --------------------------------------------------
#
# The two protocols as they delivered pulses before the shared fan-out loop
# (``MsrRound.deliver_pulse``): every receiver cost one hook call plus one
# ``count_pulse`` call, and the relative update called ``pulse_pair_ratio``
# once per in-neighbor. The methods and that function are kept verbatim;
# ``hook_calls`` counts the hook calls, one per receiver per pulse, start
# pulses included. They keep a receiver's pulse pairing in the two dicts of
# ``DictPairingOscillator``, keyed by sender id, where the package keeps one
# slot per in-neighbor; ``pairing`` projects either form onto sender ids.
# ``make_weights`` is the package's former weight vector, which the relative
# update below reads.


def make_weights(policy, j_count):
    """Weight vector (self weight first, then one per kept neighbor value).

    All weights are positive, at least the policy's floor, and sum to 1
    within floating-point roundoff.
    """
    w = neighbor_weight(policy, j_count)
    self_weight = w if isinstance(policy, EqualWeights) else 1.0 - j_count * w
    return (self_weight,) + (w,) * j_count


@dataclass(slots=True)
class DictPairingOscillator(OscillatorState):
    """``OscillatorState`` with the pairing dicts of the hook path:
    ``pending_start`` maps sender id to the receiver's phase at an unmatched
    start pulse, ``pulse_pairs`` to the latest completed (start stamp, end
    stamp, sender frequency or None if forged) triple."""

    pending_start: dict = field(default_factory=dict)
    pulse_pairs: dict = field(default_factory=dict)

    def reset_round(self):
        OscillatorState.reset_round(self)
        self.pending_start.clear()
        self.pulse_pairs.clear()


def pairing(world, i, zeta=None, proto=None):
    """Node i's pulse pairing keyed by sender id, in in-neighbor order: its
    pending start stamps, and its completed pairs as (frequency ratio, or
    None for coincident stamps; sender frequency, or None if forged or not
    kept). Reads the pairing slots of an ``OscillatorState`` (none in a
    world without them), with the sender frequencies that ``proto``, the
    ``RelativeProtocol`` that paired them, keeps while it logs ratios, or
    the dicts of a ``DictPairingOscillator``, whose pairs become ratios
    through ``pulse_pair_ratio`` at ``zeta``. Only in-neighbors have slots,
    and only their pairs are ever read."""
    osc = world.oscillators[i]
    nbrs = world.graph.in_neighbors[i]
    if isinstance(osc, DictPairingOscillator):
        pending = {s: osc.pending_start[s] for s in nbrs if s in osc.pending_start}
        pairs = osc.pulse_pairs
        done = {s: (pulse_pair_ratio(pairs[s][0], pairs[s][1], zeta), pairs[s][2])
                for s in nbrs if s in pairs}
        return pending, done
    if osc.stamps is None:
        return {}, {}
    pending = {s: stamp for s, stamp in zip(nbrs, osc.stamps) if stamp is not None}
    kept = proto is not None and proto.ratio_log is not None
    done = {s: (ratio or None, proto.pair_senders[i, k] if kept else None)
            for k, (s, ratio) in enumerate(zip(nbrs, osc.ratios)) if ratio is not None}
    return pending, done


def pulse_pair_ratio(start_stamp, end_stamp, zeta):
    """Frequency ratio estimate from one sender's stamped pulse pair.

    The receiver may legitimately fire (and so wrap its phase) between the
    two receptions whenever it runs ahead of the sender, so the span is the
    elapsed receiver phase modulo one cycle. Exactly coincident stamps give
    no estimate.
    """
    span = (end_stamp - start_stamp) % 1.0
    if span == 0.0:
        return None
    return zeta / span


def _count_pulse(self, world, i):
    """Receiver i counts one pulse at its current phase and captures
    each landmark's jump ingredient on the pulse that reaches it.

    Returns True when eager detection latched on this pulse.
    """
    osc = world.oscillators[i]
    osc.pulse_count += 1
    c = osc.pulse_count
    d = len(world.graph.in_neighbors[i])
    f = self.f
    phi = osc.phase
    if c == f + 1:
        osc.jump_up = 1.0 - phi if phi >= 0.5 else 0.0
    if c == d - f:
        osc.jump_down = -phi if phi < 0.5 else 0.0
    if self.eager_detection and c > d and not osc.detected:
        osc.detected = True
        return True
    return False


def _open_update(self, world, i):
    """Node i reaches phase 0.5 armed: check the counter and jump."""
    from pcosync import ProtocolFault

    osc = world.oscillators[i]
    osc.phase = 0.5
    c = osc.pulse_count
    d = len(world.graph.in_neighbors[i])
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
    osc.phase = 0.5 + 0.5 * (osc.jump_up + osc.jump_down)
    return trim


class HookAbsoluteProtocol(AbsoluteProtocol):
    """``AbsoluteProtocol`` delivering each pulse through ``on_pulse``."""

    hook_calls = 0
    count_pulse = _count_pulse
    open_update = _open_update

    def handle_fire(self, world, i):
        value = self.reset_on_fire(world, i).omega
        newly = False
        for j, _ in world.receiver_slots[i]:
            newly |= self.on_pulse(world, j, value)
        return newly

    def on_pulse(self, world, i, value):
        self.hook_calls += 1
        world.oscillators[i].freq_buffer.append(value)
        return self.count_pulse(world, i)

    def deliver_adversary(self, world, attacker, value, is_start):
        if is_start:
            return False  # start pulses carry no meaning for this protocol
        newly = False
        for j, _ in world.receiver_slots[attacker]:
            newly |= self.on_pulse(world, j, value)
        return newly


class HookRelativeProtocol(RelativeProtocol):
    """``RelativeProtocol`` delivering each pulse through ``on_start_pulse``
    and ``on_end_pulse``, with one ``pulse_pair_ratio`` call per ratio."""

    hook_calls = 0
    count_pulse = _count_pulse
    open_update = _open_update

    def handle_start(self, world, i):
        osc = world.oscillators[i]
        osc.phase = 1.0 - self.zeta
        osc.start_emitted = True
        for j, _ in world.receiver_slots[i]:
            self.on_start_pulse(world, j, i)
        return False

    def handle_fire(self, world, i):
        omega = self.reset_on_fire(world, i).omega
        newly = False
        for j, _ in world.receiver_slots[i]:
            newly |= self.on_end_pulse(world, j, i, sender_omega=omega)
        return newly

    def on_start_pulse(self, world, i, sender):
        self.hook_calls += 1
        osc = world.oscillators[i]
        # A pending stamp from a round the sender never closed is overwritten.
        osc.pending_start[sender] = osc.phase

    def on_end_pulse(self, world, i, sender, sender_omega=None):
        self.hook_calls += 1
        osc = world.oscillators[i]
        start = osc.pending_start.pop(sender, None)
        if start is not None:
            # Latest completed pair wins; a lone end pulse pairs with nothing.
            osc.pulse_pairs[sender] = (start, osc.phase, sender_omega)
        return self.count_pulse(world, i)

    def deliver_adversary(self, world, attacker, value, is_start):
        newly = False
        for j, _ in world.receiver_slots[attacker]:
            if is_start:
                self.on_start_pulse(world, j, attacker)
            else:
                newly |= self.on_end_pulse(world, j, attacker, sender_omega=None)
        return newly

    def handle_update(self, world, i):
        trim = self.open_update(world, i)
        if trim is None:
            return True
        osc = world.oscillators[i]
        zeta = self.zeta
        ratios = []
        for j in world.graph.in_neighbors[i]:
            pair = osc.pulse_pairs.get(j)
            if pair is None:
                continue
            ratio = pulse_pair_ratio(pair[0], pair[1], zeta)
            if ratio is None:
                continue
            ratios.append(ratio)
            if self.ratio_log is not None:
                self.ratio_log.append((world.clock, i, j, ratio, osc.omega, pair[2]))
        kept = msr_trim(ratios, trim) if len(ratios) >= 2 * trim else []
        weights = make_weights(self.weight_policy, len(kept))
        omega = osc.omega
        # The package's close: the step rule's frequency limit, then the reset.
        return self.close_update(
            world, i, omega + omega * sum(w * (r - 1.0) for w, r in zip(weights[1:], kept)))


# -- previous scripted-pulse path --------------------------------------------
#
# Attack schedules as they were before the sorted streams: each one
# materialized every pulse up to the horizon, and the event loop merged the
# scripts by building the whole (time, node, is_start) list and sorting it.
# ``_periodic`` and ``_explicit`` are kept verbatim; ``materialized_pulses``
# is the loop's former list building, fed by them.


def _periodic(offsets, period):
    import math
    from functools import lru_cache

    from pcosync.adversary import MAX_SCRIPTED_PULSES

    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and positive, got {period}")
    offs = tuple(sorted(float(o) for o in offsets))
    for o in offs:
        if not 0.0 <= o < period:
            raise ValueError(f"offset {o} outside [0, period={period})")

    @lru_cache(maxsize=1)
    def schedule(horizon):
        if len(offs) * (horizon / period) > MAX_SCRIPTED_PULSES:
            raise ValueError(
                f"{len(offs)} offset(s) every {period} schedule more than "
                f"{MAX_SCRIPTED_PULSES} pulses by the horizon {horizon}"
            )
        times = []
        rounds = int(math.floor(horizon / period)) + 1
        for n in range(rounds + 1):
            for o in offs:
                t = n * period + o
                if t <= horizon:
                    times.append(t)
        return tuple(times)

    return schedule


def _explicit(times):
    from functools import lru_cache

    fixed = tuple(sorted(float(t) for t in times))
    if any(t < 0.0 for t in fixed):
        raise ValueError("pulse times must be nonnegative")

    @lru_cache(maxsize=1)
    def schedule(horizon):
        return tuple(t for t in fixed if t <= horizon)

    return schedule


def materialized_schedule(schedule):
    """The former schedule of a package ``Schedule``, from its parameters."""
    if hasattr(schedule, "period"):
        return _periodic(schedule.offsets, schedule.period)
    return _explicit(schedule.times)


def materialized_pulses(scripts, horizon):
    """``engine.scripted_pulses`` as the event loop's former sorted list:
    the pulse count and an iterator over the list."""
    pending = []
    for script in scripts:
        for t in materialized_schedule(script.emission_times)(horizon):
            pending.append((t, script.node, 0))
        for t in materialized_schedule(script.start_emission_times)(horizon):
            pending.append((t, script.node, 1))
    pending.sort()
    return len(pending), iter(pending)


# -- sweep trial as a scenario run --------------------------------------------
#
# A sweep trial as one whole scenario run: a fresh generator per evaluation,
# numpy's ``uniform`` draws taken raw, and the full build and run of
# ``run_scenario`` with both normalize flags on, so the scenario's own rules
# normalize the draws, over the normal nodes only.


def scenario_run_trial(base, grid_index, trial_index, arc0, spread0, seed):
    import dataclasses

    import numpy as np

    from pcosync import run_scenario

    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(grid_index, trial_index))
    )
    n = base.graph.node_count
    config = dataclasses.replace(
        base,
        phases=rng.uniform(0.0, arc0, size=n).tolist(),
        frequencies=rng.uniform(1.0, 1.0 + spread0, size=n).tolist(),
        normalize_phases=True,
        normalize_frequencies=True,
        monitor="off",
    )
    return run_scenario(config, validate=False, collect_trace=False).outcome


# -- previous attacker build -------------------------------------------------
#
# ``AttackerSpec.build`` as it was before one table declared each attacker
# kind's factory and options: an ``if``/``elif`` chain over the kinds, with
# three defaults supplied here rather than by the factories. Kept verbatim
# apart from taking the spec as an argument; the package build must give
# the same pulse times and claims.


def former_attacker_build(self):
    from pcosync import adversary

    opts = dict(self.options)
    if self.kind == "silent":
        script = adversary.silent_script(self.node)
    elif self.kind == "stealthy":
        script = adversary.stealthy_script(
            self.node,
            period_offsets=opts.pop("offsets", (0.0,)),
            claim=opts.pop("claim", "one_plus_abs_sin"),
            **_take(opts, "period", "start_offsets"),
        )
    elif self.kind == "flooding":
        script = adversary.flooding_script(
            self.node, opts.pop("burst_count"),
            **_take(opts, "burst_interval", "start_time", "claim"),
        )
    elif self.kind == "custom":
        script = adversary.custom_script(
            self.node,
            pulses=[(float(t), float(v)) for t, v in opts.pop("pulses", ())],
            **_take(opts, "start_pulses"),
        )
    else:
        raise ValueError(f"unknown attacker kind {self.kind!r}")
    if opts:
        raise ValueError(f"unknown {self.kind} attacker option {min(opts)!r}")
    return script


def _take(opts, *names):
    """Remove and return the named options that ``opts`` holds."""
    return {name: opts.pop(name) for name in names if name in opts}


# -- previous trace row formatter --------------------------------------------
#
# ``metrics.format_trace_row`` as it was before a row could reuse the
# previous row's cells: every float formatted with ``repr``. Kept verbatim;
# the trace writer's bytes must equal its rows joined under the header.


def former_format_trace_row(row):
    parts = [str(row.k), repr(row.t), row.event_kind, str(row.node)]
    parts += [repr(p) for p in row.phases]
    parts += [repr(w) for w in row.omegas]
    parts += [repr(row.delta), repr(row.delta_windowed), repr(row.v), str(row.detected_mask)]
    return ",".join(parts)
