"""Diagnostics: envelopes, admissibility bounds, windows, safety checks."""

import dataclasses
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pcosync import (
    InvariantViolation,
    OscillatorState,
    RunMetrics,
    WorldState,
    check_initial_bound,
    complete_digraph,
    load_scenario,
    run_scenario,
)
import pcosync.metrics
from pcosync.engine import FIRE, PHASE_SLACK, UPDATE
from pcosync.metrics import (
    SpreadWindow,
    TraceRecord,
    decay_envelope,
    format_trace_row,
    trace_header,
    write_trace,
)
from pcosync.phase import containing_arc

from oracles import (
    EventSpreadWindow,
    ExtremaHistory,
    RescanSpreadWindow,
    former_format_trace_row,
)

REPO = Path(__file__).resolve().parent.parent


def test_decay_envelope_steps_once_per_period():
    # window 2, one normal node: period 2, contraction 1 - 0.5**2 / 2.
    assert decay_envelope(1.0, 0.5, 2, 1, 0) == 1.0
    assert decay_envelope(1.0, 0.5, 2, 1, 1) == 1.0
    assert decay_envelope(1.0, 0.5, 2, 1, 2) == pytest.approx(0.875)
    assert decay_envelope(1.0, 0.5, 2, 1, 4) == pytest.approx(0.875**2)
    values = [decay_envelope(0.3, 0.25, 3, 2, k) for k in range(60)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        decay_envelope(1.0, 0.0, 2, 1, 0)
    with pytest.raises(ValueError):
        decay_envelope(1.0, 1.5, 2, 1, 0)


def test_initial_bound_hand_value():
    ok, lhs, rhs = check_initial_bound(
        "relaxed",
        arc0=0.1,
        spread0=0.002,
        node_count=2,
        normal_count=1,
        alpha=0.5,
    )
    # Default window 2N = 4: coefficient 8 / 0.5**4 = 128.
    assert lhs == pytest.approx(0.1 + 128 * 0.002)
    assert rhs == 0.5
    assert ok

    ok, lhs, _ = check_initial_bound(
        "relaxed",
        arc0=0.1,
        spread0=0.002,
        node_count=3,
        normal_count=2,
        alpha=0.5,
        window_len=4,
    )
    assert lhs == pytest.approx(0.1 + (16.0 / 0.5**8) * 0.002)
    assert not ok


def test_initial_bound_zero_spread_reduces_to_the_arc():
    ok, lhs, rhs = check_initial_bound(
        "strict", arc0=0.4, spread0=0.0, node_count=8, normal_count=6, alpha=1 / 7
    )
    assert (ok, lhs, rhs) == (True, 0.4, 0.5)
    ok, lhs, _ = check_initial_bound(
        "strict", arc0=0.6, spread0=0.0, node_count=8, normal_count=6, alpha=1 / 7
    )
    assert not ok and lhs == 0.6


@given(
    n=st.integers(2, 1024),
    normal=st.integers(1, 1024),
    alpha=st.floats(1e-3, 1.0),
    arc0=st.floats(0.0, 0.5),
    spread0=st.floats(0.0, 1.0),
    window_len=st.one_of(st.none(), st.integers(1, 4096)),
)
def test_the_strict_bound_is_the_relaxed_one_at_window_2n(n, normal, alpha, arc0, spread0,
                                                          window_len):
    # The strict bound's former formula, 4nr / alpha**(2nr), equals the
    # relaxed one's at window 2n bit for bit; the strict bound ignores any
    # window it is given.
    r = min(normal, n)
    denom = alpha ** (2 * n * r)
    coeff = float("inf") if denom == 0.0 else 4.0 * n * r / denom
    lhs = arc0 if spread0 == 0.0 else arc0 + coeff * spread0
    common = dict(arc0=arc0, spread0=spread0, node_count=n, normal_count=r, alpha=alpha)
    assert check_initial_bound("strict", window_len=window_len, **common) == (lhs < 0.5, lhs, 0.5)
    assert check_initial_bound("relaxed", window_len=2 * n, **common) == (lhs < 0.5, lhs, 0.5)


def test_initial_bound_is_conservative_for_real_spreads():
    # Any visible frequency spread blows up the coefficient at this size.
    ok, lhs, _ = check_initial_bound(
        "strict", arc0=0.1, spread0=0.4, node_count=8, normal_count=6, alpha=1 / 7
    )
    assert not ok and lhs > 1e50


def test_initial_bound_relative_variant_shrinks_the_threshold():
    ok, lhs, rhs = check_initial_bound(
        "relative",
        arc0=0.45,
        spread0=0.0,
        node_count=5,
        normal_count=5,
        alpha=0.2,
        zeta=0.1,
    )
    assert rhs == pytest.approx(0.4)
    assert not ok and lhs == 0.45


def test_initial_bound_underflow_reports_infinity():
    ok, lhs, _ = check_initial_bound(
        "strict", arc0=0.1, spread0=0.1, node_count=8, normal_count=6, alpha=1e-4
    )
    assert not ok and math.isinf(lhs)


def test_initial_bound_rejects_unknown_variant():
    with pytest.raises(ValueError):
        check_initial_bound(
            "loose", arc0=0.1, spread0=0.0, node_count=2, normal_count=2, alpha=0.5
        )


def test_spread_window_tracks_sliding_extrema():
    win = SpreadWindow(2)
    win.push(0, 1.0, 2.0)
    assert win.at(0) == (1.0, 2.0, 1.0)
    win.push(1, 0.5, 1.5)
    assert win.at(1) == (0.5, 2.0, 1.5)
    win.push(2, 1.2, 1.3)
    lo, hi, diff = win.at(2)
    assert (lo, hi) == (0.5, 1.5)
    assert diff == pytest.approx(1.0)
    win.push(3, 1.2, 1.2)
    assert win.at(3) == (1.2, 1.3, pytest.approx(0.1))
    with pytest.raises(ValueError):
        SpreadWindow(0)


def test_sparse_pushes_expire_when_their_pair_stops_holding():
    # 1.0 holds for events 0-4 and 3.0 for 5-19, so at event 20 a window
    # of 11 (events 10-20) holds 3.0 and 2.0 only: 1.0 ended at event 5,
    # although the next entry left in the min deque starts at event 20.
    win = SpreadWindow(11)
    win.push(0, 1.0, 1.0)
    win.push(5, 3.0, 3.0)
    win.push(20, 2.0, 2.0)
    assert win.at(20) == (2.0, 3.0, 1.0)


# Few distinct values, signed zeros among them, so equal extrema keep
# entering and leaving the window.
_EXTREMA = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5])


@settings(max_examples=150, deadline=None)
@given(
    window_len=st.integers(-1, 9),
    pushes=st.lists(st.tuples(_EXTREMA, _EXTREMA), max_size=40),
)
def test_spread_window_matches_the_rescan(window_len, pushes):
    if window_len < 1:
        with pytest.raises(ValueError):
            RescanSpreadWindow(window_len)
        with pytest.raises(ValueError):
            SpreadWindow(window_len)
        return
    window, reference = SpreadWindow(window_len), RescanSpreadWindow(window_len)
    for k, (lo, hi) in enumerate(pushes):
        window.push(k, lo, hi)
        assert repr(window.at(k)) == repr(reference.push(lo, hi))


_EXTREMA_OR_NAN = _EXTREMA | st.just(math.nan)


@settings(max_examples=300, deadline=None)
@given(
    window_len=st.integers(1, 9),
    pushes=st.lists(st.tuples(_EXTREMA_OR_NAN, _EXTREMA_OR_NAN), max_size=40),
    repeats=st.lists(st.booleans(), max_size=40),
)
def test_spread_window_matches_its_former_forms(window_len, pushes, repeats):
    # The former every-event window reads each event's pair; the former
    # history gets only the pairs that change, plus some that repeat. The
    # window is pushed at every event in one copy and like the history in
    # the other, and both copies are read after every event, as a traced
    # run reads it after each event and a run with the monitor off after
    # the last.
    first = (0.5, 1.0)
    dense, sparse = SpreadWindow(window_len), SpreadWindow(window_len)
    former, history = EventSpreadWindow(window_len), ExtremaHistory(window_len, *first)
    dense.push(0, *first)
    sparse.push(0, *first)
    expected = former.push(*first)
    assert repr(dense.at(0)) == repr(sparse.at(0)) == repr(expected)
    assert repr(history.spread(0)) == repr(expected[2])
    previous = repr(first)
    for k, (pair, repeat) in enumerate(zip(pushes, repeats + [False] * len(pushes)), start=1):
        expected = former.push(*pair)
        dense.push(k, *pair)
        if repr(pair) != previous or repeat:
            history.move(k, *pair)
            sparse.push(k, *pair)
        previous = repr(pair)
        assert repr(dense.at(k)) == repr(expected), k
        assert repr(sparse.at(k)) == repr(expected), k
        assert repr(history.spread(k)) == repr(expected[2]), k


def test_trace_row_roundtrips_through_repr():
    assert trace_header(2) == (
        "k,t,event_kind,node,phi_0,phi_1,omega_0,omega_1,"
        "Delta,delta_windowed,V,detected_mask"
    )
    row = TraceRecord(
        k=3,
        t=0.1 + 0.2,
        event_kind="fire",
        node=1,
        phases=(0.1, 1.0 / 3.0),
        omegas=(1.0, 1.1),
        delta=0.7 / 3.0,
        delta_windowed=0.1,
        v=0.2,
        detected_mask=2,
    )
    fields = format_trace_row(row).split(",")
    assert fields[2] == "fire"
    assert float(fields[1]) == row.t  # repr floats parse back exactly
    assert float(fields[5]) == row.phases[1]
    assert float(fields[8]) == row.delta
    assert fields[-1] == "2"


def test_write_trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    row = TraceRecord(0, 0.0, "init", -1, (0.0,), (1.0,), 0.0, 0.0, 0.0, 0)
    write_trace(path, 1, [row, row])
    lines = path.read_text().splitlines()
    assert lines[0] == trace_header(1)
    assert len(lines) == 3


# A trace cell: None is the float object the previous row held at that
# position, an int picks one of three objects the example shares across
# rows and positions, and a float becomes a fresh object, so rows hold
# equal-but-distinct floats, both zeros, NaN and infinities.
_TRACE_CELL = st.none() | st.integers(0, 2) | st.sampled_from(
    [0.0, -0.0, 1.0, 0.1, math.nan, math.inf, -math.inf]
) | st.floats()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 9),
    shared=st.lists(st.floats(), min_size=3, max_size=3),
    drawn=st.lists(
        st.tuples(st.lists(_TRACE_CELL, min_size=18, max_size=18), st.floats()),
        min_size=1,
        max_size=6,
    ),
)
def test_written_trace_is_its_rows_formatted_one_by_one(n, shared, drawn):
    pool = [float(repr(x)) for x in shared]
    previous = [0.0] * (2 * n)
    rows = []
    for k, (cells, t) in enumerate(drawn):
        values = []
        for i, cell in enumerate(cells[: 2 * n]):
            if cell is None:
                values.append(previous[i])
            elif isinstance(cell, int):
                values.append(pool[cell])
            else:
                values.append(float(repr(cell)))
        previous = values
        rows.append(TraceRecord(
            k, float(repr(t)), "fire", k % n, tuple(values[:n]), tuple(values[n:]),
            pool[0], values[0], float(repr(t)), k,
        ))
    expected = "\n".join([trace_header(n)] + [former_format_trace_row(r) for r in rows]) + "\n"
    assert [format_trace_row(r) for r in rows] == [former_format_trace_row(r) for r in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace(path, n, rows)
        assert path.read_bytes() == expected.encode()


# -- RunMetrics, driven with fabricated events --------------------------------


def fresh(phases=(0.0, 0.3), omegas=(1.0, 1.2), mode="warn", window_len=None):
    world = WorldState(
        graph=complete_digraph(2),
        oscillators=[OscillatorState(p, w) for p, w in zip(phases, omegas)],
    )
    metrics = RunMetrics(world, alpha=0.5, mode=mode, window_len=window_len)
    return world, metrics


def observe(world, metrics, phases=None, omegas=None, advance=0.0):
    """Set the given phases and frequencies, advance the clock, and observe
    the event the loop would have run: an update of the one node whose
    frequency changed, else a fire of the one node whose phase moved (node 0
    if none did). As the event loop's unchanged-clock contract requires (see
    ``engine``), a step that moves more than one node advances the clock."""
    oscillators = world.oscillators
    changed = [i for i, w in enumerate(omegas or ()) if not w == oscillators[i].omega]
    moved = [i for i, p in enumerate(phases or ()) if not p == oscillators[i].phase]
    assert len(changed) <= 1, "an update writes one frequency"
    node = (changed or moved or [0])[0]
    assert advance > 0.0 or set(changed + moved) <= {node}, "several nodes moved at one clock"
    for i in moved:
        oscillators[i].phase = phases[i]
    for i in changed:
        oscillators[i].omega = omegas[i]
    world.clock += advance
    world.event_count += 1
    kind = UPDATE if changed else FIRE
    return metrics.observe(world, (world.clock, kind, node, False))


def test_initial_snapshot():
    world, metrics = fresh()
    assert metrics.delta == pytest.approx(0.3)
    assert metrics.hull == (1.0, 1.2)
    assert metrics.spread0 == pytest.approx(0.2)
    first = metrics.rows[0]
    assert (first.k, first.event_kind, first.node) == (0, "init", -1)
    assert first.delta == pytest.approx(0.3)


def test_mode_must_be_known():
    world = fresh()[0]
    with pytest.raises(ValueError):
        RunMetrics(world, alpha=0.5, mode="loud")


def test_wide_arc_is_flagged_in_warn_and_raised_in_strict():
    # Antipodal phases are the two-point worst case: the arc hits exactly 0.5.
    world, metrics = fresh()
    observe(world, metrics, phases=[0.0, 0.5])
    assert any("arc reached" in v for v in metrics.violations)

    world, metrics = fresh(mode="strict")
    with pytest.raises(InvariantViolation, match="arc"):
        observe(world, metrics, phases=[0.0, 0.5])

    world, metrics = fresh(mode="off")
    observe(world, metrics, phases=[0.0, 0.5])
    assert metrics.violations == []


def test_frequency_hull_escape_is_flagged():
    world, metrics = fresh()
    observe(world, metrics, omegas=[1.0, 1.3])
    assert any("hull" in v for v in metrics.violations)


def test_windowed_floor_drop_is_flagged():
    world, metrics = fresh(window_len=4)
    for _ in range(4):
        observe(world, metrics, omegas=[1.1, 1.2])
    assert metrics.violations == []  # floor rose from 1.0 to 1.1, which is fine
    observe(world, metrics, omegas=[1.05, 1.2])
    assert any("floor decreased" in v for v in metrics.violations)


def test_stalled_spread_breaks_the_decay_envelope():
    # alpha 0.5, window 2, two normals: period 4, after which the 0.2
    # spread must have contracted at least once.
    world, metrics = fresh(window_len=2)
    for _ in range(3):
        observe(world, metrics)
    assert metrics.violations == []
    observe(world, metrics)
    assert any("envelope" in v for v in metrics.violations)


def test_virtual_node_runs_at_the_previous_windowed_floor_modulo_one():
    world, metrics = fresh(window_len=1)
    observe(world, metrics, advance=0.9)
    assert metrics.virtual_phase == pytest.approx(0.9)  # at the initial floor, 1.0
    # The event that raises the floor to 1.1 moves the clock at the floor
    # before it: 0.9 + 0.2 wraps past 1.
    observe(world, metrics, omegas=[1.1, 1.2], advance=0.2)
    assert metrics.virtual_phase == pytest.approx(0.1)
    observe(world, metrics, advance=0.5)
    assert metrics.virtual_phase == pytest.approx(0.65)


def test_virtual_checks_stop_once_the_arc_passes_half():
    world, metrics = fresh()
    # Pack plus virtual node fits well inside a half circle: checked, clean.
    observe(world, metrics, phases=[0.3, 0.4], advance=0.3)
    assert metrics.virtual_in_range and metrics.violations == []
    # Pack pulls half a turn ahead of the reference (a whole turn at the
    # floor 1.0 brings the virtual node back to 0.3, so the covering arc
    # spans 0.52): checks latch off without firing.
    observe(world, metrics, phases=[0.78, 0.82], advance=1.0)
    assert not metrics.virtual_in_range
    assert metrics.violations == []
    # Still off even though this arrangement would fail the tail property.
    observe(world, metrics, phases=[0.9, 0.2], advance=1.0)
    assert metrics.violations == []


def test_virtual_tail_violation_is_flagged_while_in_range():
    world, metrics = fresh()
    observe(world, metrics, phases=[0.9, 0.1], advance=1.0)  # virtual sits inside the pack
    assert any("tail" in v for v in metrics.violations)


def test_detection_events_record_first_sightings():
    world, metrics = fresh()
    world.oscillators[1].detected = True
    world.clock = 2.5
    observe(world, metrics)
    observe(world, metrics)
    assert metrics.detection_events == [(1, 2.5, 1)]


def test_convergence_needs_a_full_quiet_window():
    world, metrics = fresh(window_len=3)
    observe(world, metrics, phases=[0.2, 0.2], omegas=[1.0, 1.0], advance=1.0)
    observe(world, metrics)
    assert not metrics.converged
    observe(world, metrics)
    assert metrics.converged


def untracked(phases, tol_phase):
    """Monitor-off, untraced metrics over equal frequencies, and a step that
    sets every phase at a new clock, as the event loop's contract requires
    of a step that moves several nodes; it counts the arcs ``observe``
    computes."""
    n = len(phases)
    world = WorldState(
        graph=complete_digraph(n),
        oscillators=[OscillatorState(p, 1.0) for p in phases],
    )
    metrics = RunMetrics(world, alpha=0.5, mode="off", tol_phase=tol_phase, collect_trace=False)
    arcs = []

    def counting(ps):
        arcs.append(1)
        return containing_arc(ps)

    def step(new_phases):
        for osc, p in zip(world.oscillators, new_phases):
            osc.phase = p
        world.clock += 0.25
        world.event_count += 1
        with mock.patch.object(pcosync.metrics, "containing_arc", counting):
            metrics.observe(world, (world.clock, FIRE, 0, False))
        return metrics._streak

    return metrics, step, arcs


def test_witness_pair_across_phase_zero_rules_the_arc_out_without_a_sort():
    # 0.9999996 and 3e-7 lie 7e-7 apart across phase 0, not 0.9999993.
    phases = [0.9999996, 3e-7, 0.9999998]
    metrics, step, arcs = untracked(phases, tol_phase=5e-7)
    assert step(phases) == 0 and arcs == [1]  # the sort names the witness pair
    assert metrics._witness == (0, 1)
    assert step(phases) == 0 and arcs == [1]  # the pair alone rules it out
    # Within tol_phase the pair cannot decide, so the arc is computed.
    metrics, step, arcs = untracked(phases, tol_phase=1e-6)
    assert [step(phases), step(phases)] == [1, 2] and arcs == [1, 1]


@pytest.mark.parametrize("offset", [-1e-15, 0.0, 1e-15, PHASE_SLACK, PHASE_SLACK + 1e-15])
@pytest.mark.parametrize("tail", [0.25, 0.9999995])
def test_witness_pair_near_the_tolerance_leaves_the_decision_to_the_arc(tail, offset):
    # A witness within tol_phase + PHASE_SLACK + 1e-12 rules nothing out: the
    # streak is what the arc itself says, at every event.
    tol = 1e-6
    phases = [tail, (tail + tol + offset) % 1.0]
    metrics, step, arcs = untracked([0.5, 0.5], tol_phase=tol)
    step([0.5, 0.5 + 2 * tol])  # sets the witness pair to nodes 0 and 1
    assert metrics._witness == (0, 1)
    within = containing_arc(phases).length <= tol
    assert [step(phases), step(phases)] == ([1, 2] if within else [0, 0])
    assert len(arcs) == 3


def test_witness_pair_past_the_margin_rules_the_arc_out():
    tol = 1e-6
    metrics, step, arcs = untracked([0.5, 0.5], tol_phase=tol)
    step([0.5, 0.5 + 2 * tol])
    assert step([0.1, 0.1 + tol + PHASE_SLACK + 2e-12]) == 0 and len(arcs) == 1


def test_violation_recording_is_capped():
    world, metrics = fresh()
    for _ in range(230):
        observe(world, metrics, phases=[0.0, 0.6])
    assert len(metrics.violations) == 200
    assert metrics.suppressed_violations() > 0


@pytest.mark.parametrize("fresh_args, steps, expected", [
    ({}, [dict(omegas=[1.0, 1.3])], [
        "frequency left the initial hull at event 1",
        "windowed frequency ceiling increased at event 1",
        "windowed spread 3.000e-01 broke its decay envelope at event 1",
    ]),
    ({"window_len": 4}, [dict(omegas=[1.1, 1.2])] * 4 + [dict(omegas=[1.05, 1.2])], [
        "windowed frequency floor decreased at event 5",
    ]),
    ({"window_len": 2}, [{}] * 4, [
        "windowed spread 2.000e-01 broke its decay envelope at event 4",
    ]),
    ({}, [dict(phases=[0.0, 0.5])], [
        "containing arc reached 0.500000 >= 0.5 at event 1",
    ]),
    ({}, [dict(phases=[0.9, 0.1], advance=1.0)], [
        "virtual node left the tail of the containing arc at event 1",
    ]),
    # A NaN phase fails every comparison.
    ({}, [dict(phases=[0.1, 0.2], advance=0.05), dict(phases=[0.15, math.nan], advance=0.05)], [
        "containing arc reached nan >= 0.5 at event 2",
        "virtual node left the tail of the containing arc at event 2",
    ]),
])
def test_each_monitor_message_is_pinned(fresh_args, steps, expected):
    world, metrics = fresh(**fresh_args)
    for step in steps:
        observe(world, metrics, **step)
    assert metrics.violations == expected
    assert metrics.suppressed_violations() == 0


def test_strict_mode_raises_the_first_failed_check():
    world, metrics = fresh(mode="strict", window_len=2)
    for _ in range(3):
        observe(world, metrics)
    with pytest.raises(InvariantViolation) as raised:
        observe(world, metrics)
    assert str(raised.value) == "windowed spread 2.000e-01 broke its decay envelope at event 4"
    assert metrics.violations == []


def test_clean_reference_run(tmp_path):
    config = load_scenario(REPO / "scenarios" / "nominal_sync.json")
    trace = tmp_path / "run.csv"
    result = run_scenario(config, trace_path=trace)
    assert result.outcome == "converged"
    assert result.metrics.violations == []
    assert result.metrics.hull == (1.0, 1.0)
    assert result.detections == []
    # Every node keeps updating regularly; early transient rounds can
    # stretch a gap past the steady-state 2N events, but not by much.
    last_update = {i: 0 for i in result.world.normal_ids}
    widest_gap = 0
    for row in result.metrics.rows:
        if row.event_kind == "update":
            widest_gap = max(widest_gap, row.k - last_update[row.node])
            last_update[row.node] = row.k
    assert 0 < widest_gap <= 24
    lines = trace.read_text().splitlines()
    assert lines[0] == trace_header(8)
    assert len(lines) == len(result.metrics.rows) + 1


@pytest.mark.parametrize("algorithm", ["absolute", "relative"])
@pytest.mark.parametrize("stem", sorted(p.stem for p in (REPO / "scenarios").glob("*.json")))
def test_untraced_run_reports_what_the_trace_shows(stem, algorithm):
    # With the monitor off the virtual node is only computed for the trace;
    # leaving it out must not change anything the run reports.
    config = dataclasses.replace(
        load_scenario(REPO / "scenarios" / f"{stem}.json"), algorithm=algorithm, monitor="off"
    )
    traced = run_scenario(config, validate=False, collect_trace=True)
    plain = run_scenario(config, validate=False)

    def reported(result):
        m = result.metrics
        return result.outcome, result.world.event_count, result.detections, m.delta, m.delta_windowed

    outcome, events, detections, delta, delta_windowed = reported(traced)
    assert reported(plain) == (outcome, events, detections, delta, delta_windowed)
    last = traced.metrics.rows[-1]
    assert (last.k, last.delta, last.delta_windowed) == (events, delta, delta_windowed)
    assert last.detected_mask == sum(1 << node for _, _, node in detections)
