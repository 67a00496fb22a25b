"""Timing wrappers installed around the public functions of each pcosync layer.

A ``Tracer`` replaces module and class attributes with wrappers that record
one span per call (name, start, end, parent span) in compact in-memory
arrays, or only a call count for the per-receiver pulse hooks that run too
often to span cheaply. ``uninstall`` puts every original object back;
``all_original`` checks that nothing is patched, which every untraced
repetition asserts before it runs. Self time is computed from the
spans afterwards: a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import pcosync.absolute
import pcosync.adversary
import pcosync.engine
import pcosync.graph
import pcosync.metrics
import pcosync.relative
import pcosync.runner
import pcosync.scenario
import pcosync.sweep

_abs = pcosync.absolute.AbsoluteProtocol
_rel = pcosync.relative.RelativeProtocol

# (owner, attribute, span name). A function is patched where its caller
# looks it up, so one imported into several modules is patched in each,
# under one span name.
SPAN_TARGETS = (
    (pcosync.runner, "simulate", "engine.simulate"),
    (pcosync.engine, "next_event", "engine.next_event"),
    (pcosync.engine, "advance_all", "engine.advance_all"),
    (pcosync.metrics.RunMetrics, "observe", "metrics.observe"),
    (pcosync.runner, "write_trace", "metrics.write_trace"),
    (pcosync.metrics, "containing_arc", "phase.containing_arc"),
    (pcosync.scenario, "containing_arc", "phase.containing_arc"),
    (_abs, "handle_fire", "absolute.handle_fire"),
    (_abs, "handle_update", "absolute.handle_update"),
    (_abs, "deliver_adversary", "absolute.deliver_adversary"),
    (_rel, "handle_fire", "relative.handle_fire"),
    (_rel, "handle_update", "relative.handle_update"),
    (_rel, "handle_start", "relative.handle_start"),
    (_rel, "deliver_adversary", "relative.deliver_adversary"),
    (pcosync.absolute, "msr_trim", "msr.msr_trim"),
    (pcosync.relative, "msr_trim", "msr.msr_trim"),
    (pcosync.scenario.ScenarioConfig, "validate", "scenario.validate"),
    (pcosync.scenario.ScenarioConfig, "build", "scenario.build"),
    (pcosync.scenario, "is_r_robust", "graph.is_r_robust"),
    (pcosync.graph, "is_r_robust", "graph.is_r_robust"),
    (pcosync.adversary, "is_stealthy", "adversary.is_stealthy"),
    (pcosync.runner, "run_scenario", "runner.run_scenario"),
    (pcosync.sweep, "run_scenario", "runner.run_scenario"),
    (pcosync.sweep, "sweep_frontier", "sweep.sweep_frontier"),
    (pcosync.sweep, "run_trial", "sweep.run_trial"),
    (pcosync.sweep._Evaluator, "rate", "sweep.rate"),
)

# Called once per receiver per pulse: counted, not spanned.
COUNT_TARGETS = (
    (_abs, "on_pulse", "absolute.pulses_delivered"),
    (_rel, "on_end_pulse", "relative.pulses_delivered"),
    (_rel, "on_start_pulse", "relative.pulses_delivered"),
)

# Parent-side process-pool submissions; pickled size recorded per call.
DISPATCH_TARGET = (concurrent.futures.ProcessPoolExecutor, "submit", "sweep.dispatch")

ALL_TARGETS = SPAN_TARGETS + COUNT_TARGETS + (DISPATCH_TARGET,)


def _raw(owner, attr):
    """The object stored on ``owner`` itself, bypassing descriptors."""
    return vars(owner)[attr]


ORIGINALS = {(id(owner), attr): _raw(owner, attr) for owner, attr, _ in ALL_TARGETS}


def all_original() -> bool:
    """True when no target attribute is currently replaced by a wrapper."""
    return all(_raw(o, a) is ORIGINALS[(id(o), a)] for o, a, _ in ALL_TARGETS)


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.dispatch_bytes = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        raised = self.raised
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] = raised.get(name, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _dispatch(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name + ".submissions", 0)

        def wrapper(executor, task, /, *args, **kwargs):
            counts[name + ".submissions"] += 1
            self.dispatch_bytes += len(pickle.dumps((task, args, kwargs)))
            return fn(executor, task, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr))
        setattr(owner, attr, wrapper)

    def install(self, spans: bool = True, dispatch: bool = False) -> None:
        if not all_original():
            raise RuntimeError("another tracer is still installed")
        if spans:
            for owner, attr, name in SPAN_TARGETS:
                self._patch(owner, attr, self._span(name, _raw(owner, attr)))
            for owner, attr, name in COUNT_TARGETS:
                self._patch(owner, attr, self._count(name, _raw(owner, attr)))
        if dispatch:
            owner, attr, name = DISPATCH_TARGET
            self._patch(owner, attr, self._dispatch(name, _raw(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr in reversed(self._patched):
            setattr(owner, attr, ORIGINALS[(id(owner), attr)])
        self._patched.clear()

    @contextmanager
    def installed(self, spans: bool = True, dispatch: bool = False):
        self.install(spans=spans, dispatch=dispatch)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, calls that raised, total inclusive seconds,
        total self seconds."""
        spans = self.span_arrays()
        out = summarize(spans["name_id"], spans["parent"], spans["start"], spans["end"], self.names)
        for name, stats in out.items():
            stats["raised"] = self.raised.get(name, 0)
        return out

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as an uncompressed .npz."""
        np.savez(path, names=np.array(self.names), **self.span_arrays())


def summarize(name_id, parent, start, end, names) -> dict[str, dict[str, float]]:
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_time = dur - child_time
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    own = np.bincount(name_id, weights=self_time, minlength=k)
    return {
        names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
        for i in range(k)
    }
