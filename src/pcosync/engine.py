"""Oscillator state containers and the deterministic event loop.

Between events every oscillator's phase grows linearly at its own rate;
everything discontinuous (pulse emission, counter updates, phase jumps,
frequency updates, detection) happens inside an event handler. An event is
a plain ``(time, kind, node, is_start)`` tuple, ``is_start`` True only for a
forged start pulse. Events are totally ordered by time, then by kind
(adversary pulse, fire, start pulse, update trigger), then by node id. One
tie window is one instant: each event within ``TIME_EPS`` of the earliest
candidate time happens at that time (a scripted pulse at the earlier of its
own time and that one, its claim still read at its own). So the clock never
passes a node's candidate time, and a node that acts up to ``TIME_EPS``
early is set onto its threshold by its handler: after each event the acting
node's phase sits exactly on its threshold value, so threshold comparisons
never accumulate drift.

A kind is one of the module's strings ``ADVERSARY_PULSE``, ``FIRE``,
``START_PULSE`` and ``UPDATE``, the trace's ``event_kind`` values; the loop
and ``RunMetrics.observe`` compare it with those names by identity.

Every selection reads one table of candidate times per run: each normal
node's fire, start-pulse and update time at the current clock. Synchronized
nodes fire at one instant, so most events leave the clock where it was, and
at an unchanged clock only the acting node's selection inputs (``phase``,
``omega``, ``fired``, ``detected``, ``start_emitted``) can have changed.
``next_event`` therefore recomputes every normal node when the clock has
moved, and otherwise only the node of the previous event, with two
exceptions: a handler that reports a new detection may have latched it on a
receiver, so the next selection recomputes every node; an adversary pulse's
actor is faulty, so no node is recomputed. The earliest slot, with ties
within ``TIME_EPS`` going to the first slot in tie-break order, is the event:
the one a scan of every node would return, bit for bit. For the same reason
``simulate`` advances the phases only when an event moves the clock forward:
at an unchanged clock the advance would leave every phase as it is.

A burst at one clock is one tie window walked slot by slot, so at an
unchanged clock the selection also resumes where the previous one ended.
The table keeps that selection's earliest time and the slot it chose, the
cursor. If the actor's refreshed slots are not below that earliest time
and some slot from the cursor on still holds it exactly, the earliest time
and its tie window (``TIME_EPS`` wide) stand, and the winner is the first
slot within the window among the actor's slots before the cursor and the
slots from the cursor on. The full scan runs instead when the clock moved
(a detection clears the table too), when an actor slot fell below the
earliest time, or when no slot from the cursor on holds it any more;
``_CandidateTimes`` proves that both ways pick the same slot.

The unchanged-clock contract has a second reader: in every monitor mode,
``RunMetrics.observe`` keeps its own list of the normal phases and rereads
every phase only when the clock has moved; at an unchanged clock it rereads
the actor's phase alone, and after an adversary pulse none. So every
handler must keep to it: it moves no normal phase but its actor's (a
detection latches a flag, never a phase), an adversary pulse moves no
normal phase, and no handler moves the clock. ``observe`` also moves its
frequency extrema only after an update, which writes its actor's frequency
and no other; no other handler writes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import merge
from itertools import compress, count, repeat
from typing import Iterator

from .errors import InvariantViolation
from .graph import DirectedGraph

TIME_EPS = 1e-12
PHASE_SLACK = 1e-9  # tolerated floating-point overshoot past a threshold


# The slot layout of ``_CandidateTimes`` and the adversary-first rule of
# ``next_event`` give the tie-break order: adversary pulse, fire, start
# pulse, update.
ADVERSARY_PULSE, FIRE, START_PULSE, UPDATE = "adversary_pulse", "fire", "start_pulse", "update"


@dataclass(slots=True)
class OscillatorState:
    """Per-node protocol state.

    ``fired`` marks that the node has fired since its last update, which
    arms the mid-cycle update trigger. ``jump_up``/``jump_down`` hold the
    two phase-correction ingredients captured when the pulse counter
    crosses its lower and upper landmarks; each is written at most once
    per round. The pairing slots are only used by the relative-frequency
    protocol, and stay None in a world that runs the absolute one (see
    ``WorldState.add_pair_slots``). Slot k belongs to the node's k-th
    in-neighbor: ``stamps`` holds the node's phase at that sender's
    unmatched start pulse, and ``ratios`` the frequency ratio of the latest
    completed start/end pair (0.0 when the stamps coincided, which gives no
    estimate). None marks an empty slot; every slot is emptied at the end
    of each round.
    """

    phase: float
    omega: float
    fired: bool = False
    pulse_count: int = 0
    freq_buffer: list[float] = field(default_factory=list)
    jump_up: float = 0.0
    jump_down: float = 0.0
    stamps: list[float | None] | None = None
    ratios: list[float | None] | None = None
    start_emitted: bool = False
    detected: bool = False

    def open_pair_slots(self, d: int) -> None:
        """Empty pairing slots for ``d`` in-neighbors."""
        self.stamps = [None] * d
        self.ratios = [None] * d

    def reset_round(self) -> None:
        """End-of-round cleanup shared by both protocols."""
        self.fired = False
        self.pulse_count = 0
        self.freq_buffer.clear()
        self.jump_up = 0.0
        self.jump_down = 0.0
        if self.stamps is not None:
            self.open_pair_slots(len(self.stamps))


@dataclass
class WorldState:
    """One run's state. ``faulty`` names the misbehaving nodes; every other
    node is normal, and ``normal_ids`` lists those in ascending order."""

    graph: DirectedGraph
    oscillators: list[OscillatorState]
    faulty: frozenset[int] = frozenset()
    clock: float = 0.0
    event_count: int = 0
    # Receptions the protocol handled, counted once per fan-out.
    pulses_delivered: int = 0

    def __post_init__(self) -> None:
        n = self.graph.node_count
        if len(self.oscillators) != n:
            raise ValueError("one oscillator state required per graph node")
        faulty = self.faulty
        if not faulty <= frozenset(range(n)):
            raise ValueError(f"faulty node {min(faulty - frozenset(range(n)))} outside 0..{n - 1}")
        self.normal_ids = tuple(i for i in range(n) if i not in faulty)
        self.faulty_ids = tuple(sorted(faulty))
        # Per sender, (receiver, slot) for each of its normal receivers (a
        # faulty one runs no protocol): the protocols' fan-outs walk these.
        slots = self.graph.out_slots
        if faulty:
            slots = tuple(tuple(edge for edge in row if edge[0] not in faulty) for row in slots)
        self.receiver_slots = slots
        self.in_degrees = self.graph.in_degrees

    def add_pair_slots(self) -> None:
        """Give every oscillator empty pairing slots, one per in-neighbor,
        as the relative protocol needs (see ``OscillatorState``)."""
        for osc, d in zip(self.oscillators, self.in_degrees):
            osc.open_pair_slots(d)

    def normal_phases(self) -> list[float]:
        return [self.oscillators[i].phase for i in self.normal_ids]

    def normal_omegas(self) -> list[float]:
        return [self.oscillators[i].omega for i in self.normal_ids]


def advance_all(world: WorldState, dt: float) -> None:
    """Advance every phase by its own rate for ``dt`` time units.

    Normal phases must not cross a threshold during the advance (the caller
    picks ``dt`` from the earliest pending event), so they never wrap here.
    Faulty oscillators carry no protocol state; their displayed phase
    free-runs modulo 1.

    Under the tie rule of the module docstring an advance carries a node
    less than w * 4 ulps of B past a threshold before the final rounding,
    where w is its frequency and B = 2 * (horizon + 2 * TIME_EPS). Take a
    normal node at phase p below a threshold g it has a slot for (1, 0.5
    armed, or the start target), at clock c. Its slot is s = fl(c + q) with
    q = fl(fl(g - p) / w), and it crosses g at c + (g - p) / w. The event
    happens at e <= ``min(times)`` <= s, so the step fl(e - c) is at most
    fl(s - c), however many events share the window. If the node ends past
    g, every time here lies below B, as ``simulate`` stops before an event
    past fl(horizon + TIME_EPS). So three times (q, s and the step) are off
    by half an ulp of B each, and two phase roundings (g - p, and w times
    the step) by 2**-53 of w times a time below B, less than w ulps of B
    each. The final sum adds at most 2**-53. ``PreparedScenario.world``
    refuses a fastest frequency for which this could pass
    fl(g + PHASE_SLACK), the limit checked here and in
    ``_CandidateTimes.refresh``, and an update that sets such a frequency
    ends the run as a protocol fault (``MsrRound.close_update``). A node at
    or past its threshold has a slot at the clock, so it acts before any
    advance.
    """
    if dt < 0.0:
        raise ValueError(f"cannot advance time by {dt}")
    oscillators = world.oscillators
    limit = 1.0 + PHASE_SLACK
    for i in world.normal_ids:
        osc = oscillators[i]
        moved = osc.phase + osc.omega * dt
        if moved > limit:
            raise InvariantViolation(
                f"node {i} overshot its firing threshold (phase {moved}) "
                f"after event {world.event_count}"
            )
        osc.phase = moved
    for i in world.faulty_ids:
        osc = oscillators[i]
        osc.phase = (osc.phase + osc.omega * dt) % 1.0
    world.clock += dt


class _CandidateTimes:
    """Candidate times per node at one clock, kept by ``simulate`` for a run.

    ``times`` holds one slot per (kind, node) in tie-break order: every
    node's fire time, then its start-pulse time when the protocol sends
    start pulses, then its update time; infinity marks no candidate.
    ``clock`` is the clock the slots were computed at, or None when every
    normal node must be recomputed; ``actor`` is the node the last event
    changed, recomputed on the next selection at the same clock.

    ``tmin`` and ``cursor`` carry one selection over to the next at the
    same clock: ``tmin`` is the earliest time the previous selection found,
    and ``cursor`` is the slot it chose, or 0 when an adversary pulse won.
    Write ``limit`` for ``tmin + TIME_EPS``. The full scan picks the first
    slot within ``min(times) + TIME_EPS``. Resuming from the cursor picks
    the same slot, bit for bit, because of one invariant: (a) no slot lies
    below ``tmin``, and (b) every slot before the cursor but the actor's
    lies above ``limit``. Both hold of every slot right after a selection:
    (a) because ``tmin`` was the minimum, and (b) because the cursor was the
    first slot within ``limit``, or 0, before which there is no slot. Until
    the next selection only the actor's slots change, so both still hold of
    every other slot. ``next_event`` checks the actor's refreshed slots
    against (a); it need not look when ``tmin`` is the clock, since every
    slot is the clock plus a quotient of nonnegatives, and rounding keeps
    such a sum at or above the clock. It then looks for a slot from the
    cursor on that holds exactly ``tmin``. If both succeed, ``tmin`` is the
    minimum again: ``min(times)`` would be the same float, and ``limit``
    the same sum. By (b) the first slot within ``limit`` is then the first
    of the actor's slots before the cursor that lies within it, or, if none
    does, the first slot from the cursor on that does, which the tie pass
    finds. That slot becomes the cursor, so (b) holds again, and (a) holds
    with the same ``tmin``. In every other case (the clock moved or a
    detection cleared the table, an actor slot fell below ``tmin``, or no
    slot from the cursor on holds it) ``next_event`` falls back to the full
    scan, which computes ``tmin`` afresh and starts from cursor 0.

    In ``simulate`` a normal node's event happens at ``tmin``, so after it
    ``tmin`` is the clock: there an actor slot never falls below ``tmin``,
    and the fallback comes from the clock moving or from the last slot
    holding ``tmin`` acting.
    """

    __slots__ = (
        "clock", "actor", "n", "kinds", "start_target", "update_at", "times", "tmin", "cursor",
    )

    def __init__(self, n: int, protocol):
        self.clock: float | None = None
        self.actor: int | None = None
        self.n = n
        self.start_target = protocol.start_target
        self.kinds = (FIRE, UPDATE) if self.start_target is None else (FIRE, START_PULSE, UPDATE)
        self.update_at = (len(self.kinds) - 1) * n
        self.times = [math.inf] * (len(self.kinds) * n)
        self.tmin = math.inf
        self.cursor = 0

    def refresh(self, world: WorldState, nodes) -> None:
        """Recompute the candidate times of the given normal nodes at the clock."""
        clock = self.clock
        times = self.times
        oscillators = world.oscillators
        update_at = self.update_at
        start_at = self.n
        start_target = self.start_target
        uses_start = start_target is not None
        start_limit = start_target + PHASE_SLACK if uses_start else 0.0
        half_limit = 0.5 + PHASE_SLACK
        inf = math.inf
        for i in nodes:
            osc = oscillators[i]
            phase = osc.phase
            omega = osc.omega
            times[i] = clock + (1.0 - phase if phase < 1.0 else 0.0) / omega
            if osc.fired and not osc.detected:
                if phase > half_limit:
                    raise InvariantViolation(
                        f"node {i} armed for update but past half phase ({phase}) "
                        f"after event {world.event_count}"
                    )
                times[update_at + i] = clock + (0.5 - phase if phase < 0.5 else 0.0) / omega
            else:
                times[update_at + i] = inf
            if uses_start:
                if not osc.start_emitted and phase <= start_limit:
                    times[start_at + i] = (
                        clock + (start_target - phase if phase < start_target else 0.0) / omega
                    )
                else:
                    times[start_at + i] = inf


def next_event(world: WorldState, pending_adversary, table: _CandidateTimes) -> tuple | None:
    """Peek the next event: earliest threshold crossing or scripted pulse.

    ``pending_adversary`` holds (time, node, is_start) triples sorted by
    that tuple; only the head competes. Ties within ``TIME_EPS`` resolve by
    kind priority then node id, and the event happens at the earliest time
    of its window (the earlier of its own and ``tmin`` for a scripted
    pulse). Returns the event tuple, or None when nothing is pending.
    ``table``, kept by ``simulate`` across one run, holds the protocol's
    start-pulse threshold and carries the candidate times between
    selections (see the module docstring); a new table has no clock, so its
    first selection computes every normal node.

    At an unchanged clock the selection resumes from the table's cursor,
    the slot the previous selection chose: it keeps that selection's
    earliest time if a slot from the cursor on still holds it, and looks for
    the winner only among the actor's slots before the cursor and the slots
    from the cursor on. It scans every slot instead when the clock moved,
    when an actor slot fell below that earliest time, or when no slot from
    the cursor on still holds it. ``_CandidateTimes`` proves both paths pick
    the same event.
    """
    times = table.times
    actor = table.actor
    if table.clock != world.clock:
        table.clock = world.clock
        table.refresh(world, world.normal_ids)
        tmin = None
    else:
        tmin, cursor = table.tmin, table.cursor
        if actor is not None:
            table.refresh(world, (actor,))
            # A refreshed slot is never below the clock; see _CandidateTimes.
            if tmin > table.clock and min(times[actor :: table.n]) < tmin:
                tmin = None
        if tmin is not None:
            # A sentinel ends the search when no slot from the cursor on holds tmin.
            times.append(tmin)
            k = times.index(tmin, cursor)
            times.pop()
            if k == len(times):
                tmin = None
    if tmin is None:
        tmin = table.tmin = min(times)
        cursor = 0
        k = None  # searched for once no adversary pulse wins
    limit = tmin + TIME_EPS
    if pending_adversary:
        t, node, is_start = pending_adversary[0]
        # Earlier than every node, or tied with the earliest: it wins.
        if t <= limit:
            table.cursor = 0
            return (min(t, tmin), ADVERSARY_PULSE, node, bool(is_start))
    if not tmin < math.inf:
        return None
    if k is None:
        k = times.index(tmin)
    # The first slot within TIME_EPS of the earliest time wins. Before the
    # cursor only the actor's slots can be that near; from it on, the first
    # slot holding the earliest time usually wins, unless an earlier one is near.
    if actor is not None and actor < cursor:
        for s in range(actor, cursor, table.n):
            if times[s] <= limit:
                cursor = k = s
                break
    if k > cursor and min(times[cursor:k]) <= limit:
        k = next(compress(count(cursor), map(limit.__ge__, times[cursor:k])))
    table.cursor = k
    return (tmin, table.kinds[k // table.n], k % table.n, False)


def event_budget(n: int, scripted_pulses: int, horizon: float, fastest: float = 1.0,
                 safety: float = 4.0) -> int:
    """Hard cap on processed events; exceeding it aborts the run as a
    liveness failure rather than looping forever. A node at frequency w
    runs w rounds per unit of time, so the nodes' term scales with
    ``fastest``, the fastest initial normal frequency, when it exceeds 1."""
    return int((2 * n * max(1.0, fastest) + scripted_pulses) * (horizon + 1.0) * safety) + 16


def scripted_pulses(scripts, horizon: float) -> tuple[int, Iterator[tuple[float, int, int]]]:
    """Every scripted pulse up to the horizon, and how many there are.

    The pulses come as (time, node, is_start) triples in the order of that
    tuple, merged lazily from the schedules' sorted streams: nothing is
    computed before a reader asks for it. Equal triples come in stream
    order. ``PulseTape`` is the one reader, once per prepared scenario and
    process; every run then reads the tape.
    """
    total = 0
    streams = []
    for script in scripts:
        node = script.node
        for is_start, schedule in ((0, script.emission_times), (1, script.start_emission_times)):
            for size, times in schedule.streams(horizon):
                total += size
                if size:
                    streams.append(zip(times, repeat(node), repeat(is_start)))
    return total, merge(*streams)


class PulseTape:
    """The scripted pulses of one prepared scenario, merged once and read by
    every run of it.

    ``pulses`` holds the (time, node, is_start) triples of ``scripted_pulses``
    in its order, pulled from its merge only when a run first reaches one,
    and ``claims`` beside each the frequency it claims: the script's
    ``freq_claim`` evaluated once, at the pulse's scripted time, or 0.0 for a
    start pulse, which claims none. ``total`` counts every pulse up to
    ``horizon``, reached or not, for the liveness budget. Each run reads the
    tape through its own index, so a process that runs one prepared scenario
    many times (a sweep) merges and claims each pulse once, and a single run
    still computes only the pulses it reaches.
    """

    __slots__ = ("horizon", "total", "pulses", "claims", "_source", "_claim_fns")

    def __init__(self, scripts, horizon: float):
        if not horizon >= 0.0:
            raise ValueError(f"horizon must be nonnegative, got {horizon}")
        self.horizon = horizon
        self.total, self._source = scripted_pulses(scripts, horizon)
        self.pulses: list[tuple[float, int, int]] = []
        self.claims: list[float] = []
        self._claim_fns = {script.node: script.freq_claim for script in scripts}

    def pending(self, index: int) -> tuple:
        """Pulse ``index`` alone in a tuple, or () past the last pulse; the
        first run to reach it pulls it and evaluates its claim."""
        pulses = self.pulses
        if index < len(pulses):
            return (pulses[index],)
        pulse = next(self._source, None)
        if pulse is None:
            return ()
        time, node, is_start = pulse
        self.claims.append(0.0 if is_start else self._claim_fns[node](time))
        pulses.append(pulse)
        return (pulse,)


def simulate(
    world: WorldState,
    protocol,
    tape: PulseTape,
    *,
    metrics,
    halt_on_detection: bool = True,
) -> str:
    """Run the event loop to the tape's horizon, convergence, or detection.

    ``protocol`` supplies the threshold handlers (see the absolute and
    relative modules), called with the world and the acting node once the
    clock is at the event's time. The loop touches ``metrics`` only through
    ``observe``, called after every event and told whether its handler
    reported a new detection, and ``converged``; the metrics own the
    convergence and safety bookkeeping. ``advance_all`` runs only for an
    event later than the clock; an event at the clock moves no phase, and
    no event is earlier than the clock. Scripted pulses and their claims
    come from ``tape``, the run's one pulse source, read from its first
    pulse on: the liveness budget counts every pulse within the horizon,
    and the normal nodes' events at the fastest initial normal frequency.
    Returns an outcome string: "converged", "detected", or "horizon".
    """
    horizon = tape.horizon
    claims = tape.claims
    reached = 0
    pending = tape.pending(0)

    fastest = max([world.oscillators[i].omega for i in world.normal_ids], default=1.0)
    budget = event_budget(world.graph.node_count, tape.total, horizon, fastest)
    table = _CandidateTimes(world.graph.node_count, protocol)
    outcome = "horizon"
    while True:
        ev = next_event(world, pending, table)
        if ev is None or ev[0] > horizon + TIME_EPS:
            break
        time, kind, node, is_start = ev
        dt = time - world.clock
        if dt > 0.0:
            advance_all(world, dt)
        world.clock = time

        # Only the acting node's candidate times change, unless detection
        # latched on a receiver; an adversary pulse's actor is faulty.
        if kind is FIRE:
            table.actor = node
            newly_detected = protocol.handle_fire(world, node)
        elif kind is UPDATE:
            table.actor = node
            newly_detected = protocol.handle_update(world, node)
        elif kind is ADVERSARY_PULSE:
            table.actor = None
            # The tape read the claim at the scripted time, not at the event's.
            newly_detected = protocol.deliver_adversary(world, node, claims[reached], is_start)
            reached += 1
            pending = tape.pending(reached)
        else:
            table.actor = node
            newly_detected = protocol.handle_start(world, node)
        if newly_detected:
            table.clock = None

        world.event_count += 1
        metrics.observe(world, ev, newly_detected)

        if world.event_count > budget:
            raise InvariantViolation(
                f"event {world.event_count} exceeded the liveness budget of {budget}"
            )
        if newly_detected and halt_on_detection:
            outcome = "detected"
            break
        if metrics.converged:
            outcome = "converged"
            break
    return outcome
