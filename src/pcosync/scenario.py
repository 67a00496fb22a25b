"""Scenario configuration: JSON schema, validation, and world construction.

A scenario pins everything a run needs: topology, protocol variant and its
parameters, initial conditions (explicit or drawn), and attacker scripts.
``build``, which every run calls, refuses every value no run can use and
returns the prepared scenario and a world: ``prepare`` refuses what every
run of the config shares, and the prepared scenario's ``world``, which
every run and every sweep trial calls, refuses initial values.
``validate`` also reports the paper's guarantee conditions (locality at
most f, (2f+1)-robustness, an initial arc under half a circle, phases in
[0, 1), slowest normal frequency exactly 1), which a forced run skips to
probe outside them, and informational lines (bounds, script stealthiness).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from . import adversary, rng
from .absolute import AbsoluteProtocol
from .engine import PHASE_SLACK, TIME_EPS, OscillatorState, PulseTape, WorldState
from .errors import ScenarioValidationError, UnrunnableScenarioError
from .graph import (
    DirectedGraph,
    GraphTooLargeError,
    MAX_DECLARED_NODES,
    MAX_EXHAUSTIVE_NODES,
    complete_digraph,
    demo_graph_8,
    directed_ring,
    is_r_robust,
    load_graph,
    parse_graph_text,
)
from .metrics import MONITOR_MODES, check_initial_bound
from .msr import (ConfiguredAlpha, EqualWeights, WeightPolicy, effective_alpha,
                  fault_bound_problem, neighbor_weight)
from .phase import containing_arc, clockwise_dist
from .relative import RelativeProtocol, offset_problem

ALGORITHMS = ("absolute", "relative")


@dataclass(frozen=True)
class RandomInterval:
    """Uniform draw on [low, high) with an optional dedicated seed."""

    low: float
    high: float
    seed: int | None = None


@dataclass(frozen=True)
class AttackerSpec:
    node: int
    kind: str
    options: dict[str, Any] = field(default_factory=dict)

    def build(self) -> adversary.AttackScript:
        """The script from its kind's factory, each option passed under its
        factory keyword; refuses an unknown kind or option. An option left
        out takes the factory's default."""
        if self.kind not in _ATTACKER_KINDS:
            raise ValueError(f"unknown attacker kind {self.kind!r}")
        factory, options = _ATTACKER_KINDS[self.kind]
        # A required option is read by key: left out, it raises KeyError.
        given = {option.keyword: self.options[name] for name, option in options.items()
                 if option.required or name in self.options}
        unknown = set(self.options).difference(options)
        if unknown:
            raise ValueError(f"unknown {self.kind} attacker option {min(unknown)!r}")
        return factory(self.node, **given)


def _initial_value_problems(phases, freqs, normal, floor: float) -> list[str]:
    """One line for each normal node whose initial phase is not finite and
    for each whose initial frequency is not finite or not above ``floor``."""
    problems = []
    for i in normal:
        if not math.isfinite(phases[i]):
            problems.append(f"node {i} initial phase must be finite, got {phases[i]}")
        if not (math.isfinite(freqs[i]) and freqs[i] > floor):
            problems.append(
                f"node {i} initial frequency must be finite and positive, got {freqs[i]}"
            )
    return problems


def normalized_phases(phases, normal) -> list[float]:
    """Every phase rotated to put the tail of the normal nodes' arc at 0."""
    tail = containing_arc([phases[i] for i in normal]).tail
    return [clockwise_dist(p, tail) for p in phases]


def normalized_frequencies(freqs, normal) -> list[float]:
    """Every frequency shifted to make the slowest normal node's exactly 1."""
    low = min(freqs[i] for i in normal)
    return [(w - low) + 1.0 for w in freqs]


def _too_fast(gap: float, resolution: float, reach: float, omega: float) -> str | None:
    """Why the event loop cannot step a normal node at frequency ``omega``,
    or None when it can. A node crosses thresholds a phase ``gap`` apart:
    0.5 (fire to update), or zeta (start pulse to fire). A step of at most
    ``resolution``, TIME_EPS plus the clock's resolution at the horizon,
    ties with the event before it, and the node acts again and again at one
    clock. Only rounding carries a node past a threshold, by less than
    ``omega * reach`` before the final rounding (see ``engine.advance_all``);
    the margin of 2**-52 covers that rounding and fl(g + PHASE_SLACK)'s."""
    if not gap / omega > resolution:
        return (f"normal frequency {omega!r} is too fast to simulate: a phase "
                f"step of {gap!r} takes {gap / omega!r}, not above {resolution!r} "
                f"(TIME_EPS plus the clock's resolution at the horizon)")
    if omega * reach > PHASE_SLACK - 2**-52:
        return (f"normal frequency {omega!r} is too fast to simulate: the clock's "
                f"rounding of {reach!r} can carry a node {omega * reach!r} past a "
                f"threshold, more than PHASE_SLACK ({PHASE_SLACK!r}) less rounding")
    return None


class PreparedScenario:
    """The object every run starts from: what a scenario that passed the
    gate keeps for all its runs, built from its ``config`` and attack
    ``scripts`` alone. That is the config, its normal node ids (ascending),
    the protocol the config names with its parameters, the scripts, their
    pulses up to the horizon as one ``PulseTape`` (merged and claimed once
    per process, however many runs read it) and the weight floor ``alpha``.
    No run changes them but to extend the tape; ``world`` makes the state a
    run does change."""

    __slots__ = ("config", "normal_ids", "protocol", "scripts", "tape", "alpha", "_step",
                 "_world_fields")

    def __init__(self, config: ScenarioConfig, scripts):
        graph = config.graph
        if config.algorithm == "absolute":
            protocol = AbsoluteProtocol(config.f, config.weights, config.eager_detection)
            gap = 0.5
        else:
            protocol = RelativeProtocol(config.f, config.weights, config.eager_detection,
                                        zeta=config.zeta)
            gap = config.zeta
        # A world that never runs: its faulty ids are checked and its derived
        # tables built here, once, and each run's world copies its fields,
        # with oscillators of its own in place of these placeholders.
        blank = WorldState(graph, [None] * graph.node_count, config.faulty_ids)
        self._world_fields = tuple(vars(blank).items())
        self.config = config
        self.normal_ids = normal_ids = blank.normal_ids
        self.protocol = protocol
        self.scripts = scripts
        self.tape = PulseTape(scripts, config.horizon)
        self.alpha = effective_alpha(config.weights, max(graph.in_degrees[i] for i in normal_ids))
        resolution = TIME_EPS + math.ulp(config.horizon)
        reach = 4 * math.ulp(2 * (config.horizon + 2 * TIME_EPS))
        step = self._step = (gap, resolution, reach)
        # The fastest frequency ``_too_fast`` accepts; as each clause is
        # monotone in the frequency, it accepts all below and none above.
        limit = min(gap / resolution, (PHASE_SLACK - 2**-52) / reach)
        while limit > 0.0 and _too_fast(*step, limit):
            limit = math.nextafter(limit, 0.0)
        while not _too_fast(*step, math.nextafter(limit, math.inf)):
            limit = math.nextafter(limit, math.inf)
        protocol.omega_limit = limit

    def world(self, phases, freqs) -> WorldState:
        """A fresh world at these initial phases and frequencies, one per
        node, with empty pairing slots when the protocol pairs pulses.
        Raises UnrunnableScenarioError listing each normal node whose phase
        is not finite or whose frequency is not finite and positive, or else
        a fastest normal frequency too fast to simulate."""
        problems = _initial_value_problems(phases, freqs, self.normal_ids, 0.0)
        if not problems:
            problem = _too_fast(*self._step, max(freqs[i] for i in self.normal_ids))
            if problem:
                problems.append(problem)
        if problems:
            raise UnrunnableScenarioError(problems)
        # Set one by one in the constructor's order, never through the new
        # world's ``__dict__``: CPython keeps such attributes inline, and a
        # world whose dict was touched slows every attribute read of the
        # event loop (about 7% of a run at 16 nodes).
        world = WorldState.__new__(WorldState)
        for name, value in self._world_fields:
            setattr(world, name, value)
        world.oscillators = [OscillatorState(phase=p, omega=w) for p, w in zip(phases, freqs)]
        if self.protocol.start_target is not None:
            world.add_pair_slots()
        return world


@dataclass
class ScenarioConfig:
    graph: DirectedGraph
    algorithm: str = "absolute"
    f: int = 0
    weights: WeightPolicy = EqualWeights()
    zeta: float = 0.1
    phases: list[float] | RandomInterval = field(default_factory=list)
    frequencies: list[float] | RandomInterval = field(default_factory=list)
    attackers: list[AttackerSpec] = field(default_factory=list)
    horizon: float = 60.0
    seed: int = 0
    normalize_phases: bool = True
    normalize_frequencies: bool = True
    window_len: int | None = None
    tol_phase: float = 1e-6
    tol_freq: float = 1e-6
    eager_detection: bool = False
    halt_on_detection: bool = True
    monitor: str = "warn"
    name: str = ""

    # -- construction ----------------------------------------------------

    @property
    def faulty_ids(self) -> frozenset[int]:
        return frozenset(a.node for a in self.attackers)

    @property
    def normal_ids(self) -> tuple[int, ...]:
        bad = self.faulty_ids
        return tuple(i for i in range(self.graph.node_count) if i not in bad)

    def _resolve(self, spec, n: int, stream: int) -> list[float]:
        if isinstance(spec, RandomInterval):
            entropy = [self.seed, stream] if spec.seed is None else spec.seed
            return rng.uniform(spec.low, spec.high, rng.random(entropy, n))
        return [float(x) for x in spec]

    def _runnable(self) -> tuple[list[float], list[float], list[adversary.AttackScript]]:
        """The gate's first half, passed by every run, forced or not: return
        the drawn and normalized phases and frequencies and the scripts, or
        raise UnrunnableScenarioError listing every value no run of the
        config can use. A schedule too large for the horizon is refused by
        arithmetic; no pulse is computed until the run reaches it."""
        problems: list[str] = []
        n = self.graph.node_count
        if self.algorithm not in ALGORITHMS:
            problems.append(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        for problem in (fault_bound_problem(self.f), offset_problem(self.zeta)):
            if problem:
                problems.append(problem)
        horizon_ok = math.isfinite(self.horizon) and self.horizon > 0.0
        if not horizon_ok:
            problems.append(f"horizon must be finite and positive, got {self.horizon}")
        if self.monitor not in MONITOR_MODES:
            problems.append(f"monitor must be {'/'.join(MONITOR_MODES)}, got {self.monitor!r}")
        if self.window_len is not None and self.window_len < 1:
            problems.append(f"window_len must be at least 1, got {self.window_len}")
        for key, tol in (("tol_phase", self.tol_phase), ("tol_freq", self.tol_freq)):
            if not 0.0 <= tol < math.inf:
                problems.append(f"{key} must be finite and nonnegative, got {tol}")
        if n < 2:
            problems.append(f"the graph needs at least two nodes, got {n}")

        seen: set[int] = set()
        scripts = []
        for spec in self.attackers:
            if not 0 <= spec.node < n:
                problems.append(f"attacker node {spec.node} outside 0..{n - 1}")
            elif spec.node in seen:
                problems.append(f"attacker node {spec.node} listed twice")
            else:
                try:
                    script = spec.build()
                    if horizon_ok:
                        script.emission_times.check(self.horizon)
                        script.start_emission_times.check(self.horizon)
                except _BAD_VALUE as exc:
                    problems.append(f"attacker {spec.node}: {_describe(exc)}")
                else:
                    scripts.append(script)
            seen.add(spec.node)
        normal = self.normal_ids
        if not normal:
            problems.append("every node is an attacker; nothing to synchronize")
        else:
            worst = max(self.graph.in_degrees[i] for i in normal)
            try:
                neighbor_weight(self.weights, worst)
            except ValueError:
                problems.append(
                    f"neighbor weight {self.weights.alpha} is infeasible at in-degree {worst}"
                )
        if normal and self.window_len is not None and self.window_len >= 1:
            # The monitor's decay envelope and the admissibility bounds raise
            # the weight floor to this power as a float.
            try:
                float(self.window_len * len(normal))
            except OverflowError:
                problems.append(
                    f"window_len times the {len(normal)} normal nodes must fit in a float "
                    f"(below about 1.8e308)"
                )

        for key, spec in (("phases", self.phases), ("frequencies", self.frequencies)):
            if isinstance(spec, RandomInterval):
                # Finite bounds can still span more than the largest float.
                if not (math.isfinite(spec.high - spec.low) and spec.low <= spec.high):
                    problems.append(
                        f"{key} draw range must be finite, from low up to high, "
                        f"got {spec.low}..{spec.high}"
                    )
                seed = self.seed if spec.seed is None else spec.seed
                if seed < 0:
                    problems.append(f"{key} draw seed must be nonnegative, got {seed}")
            elif len(spec) != n:
                problems.append(f"{key} list has length {len(spec)}, graph has {n} nodes")

        if not problems:
            phases = self._resolve(self.phases, n, stream=0)
            freqs = self._resolve(self.frequencies, n, stream=1)
            # Normalizing would spread a NaN or an infinity to every node, so
            # the raw values come first; ``world`` checks the values a run
            # starts from, of which only the frequencies must be positive.
            if self.normalize_phases or self.normalize_frequencies:
                problems = _initial_value_problems(phases, freqs, normal, -math.inf)
        if problems:
            raise UnrunnableScenarioError(problems)
        if self.normalize_phases:
            phases = normalized_phases(phases, normal)
        if self.normalize_frequencies:
            freqs = normalized_frequencies(freqs, normal)
        return phases, freqs, scripts

    def prepare(self) -> tuple[PreparedScenario, list[float], list[float]]:
        """Build what no run changes; return it with the resolved initial
        phases and frequencies. Raises UnrunnableScenarioError on what every
        run of the config shares; the prepared ``world`` refuses initial values."""
        phases, freqs, scripts = self._runnable()
        return PreparedScenario(self, scripts), phases, freqs

    def build(self) -> tuple[PreparedScenario, WorldState]:
        """The prepared scenario and a world at its initial values; raise
        UnrunnableScenarioError listing every value no run can use."""
        prepared, phases, freqs = self.prepare()
        return prepared, prepared.world(phases, freqs)

    # -- validation --------------------------------------------------------

    def validate(self, built=None) -> tuple[list[str], list[str]]:
        """Return (violations, info). Violations are the values ``build``
        refuses or, when it accepts them all, the guarantee conditions the
        scenario breaks; info lines report derived facts. ``built`` is what
        ``build`` returned, before any simulation; without it, ``validate``
        builds its own."""
        if built is None:
            try:
                built = self.build()
            except ScenarioValidationError as exc:
                return exc.violations, []
        prepared, world = built
        violations: list[str] = []
        info: list[str] = []
        normal = world.normal_ids

        # Locality: the guarantees assume no normal node hears more than f
        # misbehaving in-neighbors.
        for i in normal:
            count = sum(1 for j in self.graph.in_neighbors[i] if j in world.faulty)
            if count > self.f:
                violations.append(
                    f"node {i} has {count} misbehaving in-neighbors, more than f={self.f}"
                )

        for i in normal:
            osc = world.oscillators[i]
            if not 0.0 <= osc.phase < 1.0:
                violations.append(f"node {i} initial phase {osc.phase} outside [0, 1)")
            if osc.omega < 1.0 - 1e-12:
                violations.append(f"node {i} initial frequency {osc.omega} below 1")

        normal_phases = world.normal_phases()
        normal_freqs = world.normal_omegas()
        arc0 = containing_arc(normal_phases).length
        spread0 = max(normal_freqs) - min(normal_freqs)
        if arc0 >= 0.5:
            violations.append(
                f"initial containing arc {arc0:.6f} is at least a half circle"
            )
        if abs(min(normal_freqs) - 1.0) > 1e-9:
            violations.append(
                f"slowest normal frequency is {min(normal_freqs)!r}, expected exactly 1"
            )
        if min(normal_phases) > 1e-9:
            info.append(
                f"phases not rotated to put the arc tail at 0 (min is {min(normal_phases)!r})"
            )

        required = 2 * self.f + 1
        try:
            robust = is_r_robust(self.graph, required)
        except GraphTooLargeError:
            info.append(
                f"robustness unchecked: graph exceeds {MAX_EXHAUSTIVE_NODES} nodes"
            )
        else:
            if robust:
                info.append(f"graph is {required}-robust (sufficient for f={self.f})")
            else:
                violations.append(
                    f"graph is not {required}-robust, required for f={self.f}"
                )

        for spec, script in zip(self.attackers, prepared.scripts):
            tag = "stealthy" if adversary.is_stealthy(script, world, self.horizon) else "NOT stealthy"
            info.append(f"attacker {spec.node} ({spec.kind}) is {tag} over the horizon")

        info.append(
            f"initial arc {arc0!r}, frequency spread {spread0!r}, weight floor {prepared.alpha!r}"
        )
        for variant in ("strict", "relaxed", "relative"):
            ok, lhs, rhs = check_initial_bound(
                variant,
                arc0=arc0,
                spread0=spread0,
                node_count=self.graph.node_count,
                normal_count=len(normal),
                alpha=prepared.alpha,
                window_len=self.window_len,
                zeta=self.zeta,
            )
            verdict = "satisfied" if ok else "not satisfied"
            lhs_txt = "inf" if math.isinf(lhs) else f"{lhs:.6g}"
            info.append(f"{variant} admissibility bound {verdict} (lhs {lhs_txt}, rhs {rhs:.6g})")
        return violations, info

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The JSON object that ``scenario_from_dict`` reads back as this config."""
        return {key: _to_json(getattr(self, key)) for key in _KEYS}


def _to_json(value: Any) -> Any:
    """A field value in the JSON form its ``_KEYS`` parser reads."""
    if isinstance(value, DirectedGraph):
        return {"inline": [list(row) for row in value.in_neighbors]}
    if isinstance(value, EqualWeights):
        return {"policy": "equal"}
    if isinstance(value, ConfiguredAlpha):
        return {"policy": "alpha", "alpha": value.alpha}
    if isinstance(value, RandomInterval):
        return {"random": {"low": value.low, "high": value.high, "seed": value.seed}}
    if isinstance(value, AttackerSpec):
        return {"node": value.node, "type": value.kind, **value.options}
    if isinstance(value, list):
        return [_to_json(item) for item in value]
    return value


# What parsing or building a scenario value raises when the value is bad.
_BAD_VALUE = (AttributeError, KeyError, OSError, OverflowError, TypeError, ValueError)


def _describe(exc: Exception) -> str:
    """One line naming what was wrong with a value."""
    if isinstance(exc, KeyError):
        return f"missing key {exc.args[0]!r}"
    return str(exc)


@contextmanager
def _parsing(where: str):
    """Re-raise any parse or build error in the block as a one-line
    validation error naming ``where``."""
    try:
        yield
    except ScenarioValidationError:
        raise
    except _BAD_VALUE as exc:
        raise ScenarioValidationError([f"{where}: {_describe(exc)}"]) from None


def _exactly(types: tuple[type, ...], expected: str, cast=lambda spec: spec):
    """Parser passing values of exactly these types: no bool for an int."""
    def parse(spec: Any):
        if type(spec) in types:
            return cast(spec)
        raise TypeError(f"expected {expected}, got {spec!r}")

    return parse


_int = _exactly((int,), "an integer")
_int_or_null = _exactly((int, type(None)), "an integer or null")
_flag = _exactly((bool,), "true or false")
_real = _exactly((int, float), "a number", float)
_str = _exactly((str,), "a string")
_object = _exactly((dict,), "an object")


def _list_of(check, expected: str):
    """Parser passing a list whose every item passes ``check``."""
    def parse(spec: Any):
        for item in _exactly((list,), expected)(spec):
            check(item)
        return spec

    return parse


def _pulse(spec: Any):
    if type(spec) is not list or len(spec) != 2:
        raise TypeError(f"expected a [time, claim] pair, got {spec!r}")
    return [_real(x) for x in spec]


def _only(spec: dict[str, Any], what: str, *allowed: str) -> dict[str, Any]:
    """Refuse an object holding any key outside ``allowed``."""
    unknown = set(spec).difference(allowed)
    if unknown:
        raise ValueError(f"unknown {what} key {min(unknown)!r}")
    return spec


_GRAPH_FORMS = ("file", "inline", "text", "named")


def _parse_graph(spec: Any, base_dir: Path | None) -> DirectedGraph:
    forms = [key for key in _GRAPH_FORMS if key in spec] if isinstance(spec, dict) else []
    if not forms:
        raise ScenarioValidationError(
            ["graph must be an object with one of the keys 'file', 'inline', 'text', 'named'"]
        )
    if len(forms) > 1:
        raise ValueError(f"a graph takes one form, got {forms[0]!r} and {forms[1]!r}")
    form = forms[0]
    value = spec[form]
    if form == "named":
        if value == "demo8":
            _only(spec, "graph", "named")
            return demo_graph_8()
        if value in ("complete", "ring"):
            _only(spec, "graph", "named", "n")
            make = complete_digraph if value == "complete" else directed_ring
            n = _int(spec["n"])
            if n > MAX_DECLARED_NODES:
                raise ValueError(f"a named graph takes at most {MAX_DECLARED_NODES} nodes, got {n}")
            return make(n)
        raise ValueError(f"unknown named graph {value!r}")
    _only(spec, "graph", form)
    if form == "file":
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return load_graph(path)
    if form == "inline":
        return DirectedGraph.from_lists([[_int(j) for j in row] for row in value])
    return parse_graph_text(value)


def _parse_initials(spec: Any) -> list[float] | RandomInterval:
    if isinstance(spec, dict):
        if set(spec) != {"random"}:
            raise ValueError("object form must be {'random': {...}}")
        rand = _only(_object(spec["random"]), "random", "low", "high", "seed")
        return RandomInterval(_real(rand["low"]), _real(rand["high"]),
                              _int_or_null(rand.get("seed")))
    return [_real(x) for x in _exactly((list,), "a list or {'random': {...}}")(spec)]


def _parse_weights(spec: Any) -> WeightPolicy:
    policy = _object(spec).get("policy", "equal")
    if policy == "equal":
        _only(spec, "equal weights", "policy")
        return EqualWeights()
    if policy == "alpha":
        _only(spec, "alpha weights", "policy", "alpha")
        return ConfiguredAlpha(alpha=_real(spec["alpha"]))
    raise ValueError(f"unknown weight policy {policy!r}")


# Each attacker kind's script factory and, per JSON option, the factory
# keyword it fills, its JSON parser and whether the kind requires it. The
# parsers check JSON types at load; ``AttackerSpec.build`` passes its factory
# any value, numpy values from Python callers included.
_Option = namedtuple("_Option", "keyword parse required", defaults=(False,))
_numbers = _list_of(_real, "a list of numbers")
_claim = _exactly((str, int, float), "a claim name or a number")
_ATTACKER_KINDS = {
    "silent": (adversary.silent_script, {}),
    "stealthy": (adversary.stealthy_script, {
        "offsets": _Option("period_offsets", _numbers), "claim": _Option("claim", _claim),
        "period": _Option("period", _real), "start_offsets": _Option("start_offsets", _numbers)}),
    "flooding": (adversary.flooding_script, {
        "burst_count": _Option("burst_count", _int, required=True),
        "burst_interval": _Option("burst_interval", _real),
        "start_time": _Option("start_time", _real), "claim": _Option("claim", _claim)}),
    "custom": (adversary.custom_script, {
        "pulses": _Option("pulses", _list_of(_pulse, "a list of [time, claim] pairs")),
        "start_pulses": _Option("start_pulses", _numbers)}),
}


def _parse_attackers(spec: Any) -> list[AttackerSpec]:
    attackers = []
    for index, item in enumerate(_exactly((list,), "a list of objects")(spec)):
        with _parsing(f"attacker {index}"):
            opts = dict(_object(item))
            node, kind = _int(opts.pop("node")), _str(opts.pop("type"))
            for name, option in _ATTACKER_KINDS.get(kind, (None, {}))[1].items():
                if name in opts:
                    with _parsing(f"attacker {index} option {name!r}"):
                        option.parse(opts[name])
            attackers.append(AttackerSpec(node, kind, opts))
            attackers[-1].build()  # reject missing, malformed or unknown script options now
    return attackers


# The scenario schema: each JSON key and the parser of its value. A key the
# file leaves out takes the default of its ScenarioConfig field.
_KEYS = {
    "name": _str,
    "algorithm": _str,
    "graph": _parse_graph,
    "f": _int,
    "weights": _parse_weights,
    "zeta": _real,
    "phases": _parse_initials,
    "frequencies": _parse_initials,
    "attackers": _parse_attackers,
    "horizon": _real,
    "seed": _int,
    "normalize_phases": _flag,
    "normalize_frequencies": _flag,
    "window_len": _int_or_null,
    "tol_phase": _real,
    "tol_freq": _real,
    "eager_detection": _flag,
    "halt_on_detection": _flag,
    "monitor": _str,
}


def scenario_from_dict(data: dict[str, Any], base_dir: Path | None = None) -> ScenarioConfig:
    """Build a config from parsed JSON. ``base_dir`` anchors relative graph
    file paths, normally the directory containing the scenario file.

    Raises:
        ScenarioValidationError: on any unknown key, missing key, value of
            the wrong JSON type, or value that cannot be parsed, including
            attacker script options.
    """
    if not isinstance(data, dict):
        raise ScenarioValidationError(["a scenario must be a JSON object"])
    unknown = set(data) - set(_KEYS)
    if unknown:
        raise ScenarioValidationError(
            [f"unknown scenario key {k!r}" for k in sorted(unknown)]
        )
    fields: dict[str, Any] = {}
    for key, parse in _KEYS.items():
        if key == "graph":  # the one key without a default
            parse = partial(parse, base_dir=base_dir)
        elif key not in data:
            continue
        with _parsing(key):
            fields[key] = parse(data.get(key))
    return ScenarioConfig(**fields)


def _unique_keys(pairs) -> dict[str, Any]:
    """A JSON object's members as a dict; a key given twice raises ValueError."""
    members: dict[str, Any] = {}
    for key, value in pairs:
        if key in members:
            raise ValueError(f"duplicate key {key!r}")
        members[key] = value
    return members


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    with path.open() as handle:
        data = json.load(handle, object_pairs_hook=_unique_keys)
    config = scenario_from_dict(data, base_dir=path.parent)
    if not config.name:
        config.name = path.stem
    return config
