"""Resilient synchronization of pulse-coupled oscillator networks.

Deterministic discrete-event simulation of trimmed-mean frequency consensus
over a unit phase circle, with scripted misbehaving nodes, an exhaustive
graph robustness checker, per-event safety diagnostics, and a Monte Carlo
frontier harness.
"""

from .absolute import AbsoluteProtocol
from .adversary import (
    custom_script,
    flooding_script,
    is_stealthy,
    one_plus_abs_sin,
    parse_claim,
    sawtooth,
    silent_script,
    stealthy_script,
)
from .engine import (
    OscillatorState,
    PulseTape,
    WorldState,
    simulate,
)
from .errors import (
    GraphTooLargeError,
    InvariantViolation,
    ProtocolFault,
    ScenarioValidationError,
)
from .graph import (
    DirectedGraph,
    complete_digraph,
    demo_graph_8,
    directed_ring,
    format_graph_text,
    is_r_robust,
    load_graph,
    max_robustness,
    parse_graph_text,
    random_digraph,
)
from .metrics import RunMetrics, check_initial_bound
from .msr import ConfiguredAlpha, EqualWeights, msr_trim
from .phase import Arc, clockwise_dist, containing_arc
from .relative import RelativeProtocol
from .runner import RunResult, run_scenario
from .scenario import (
    AttackerSpec,
    RandomInterval,
    ScenarioConfig,
    load_scenario,
    scenario_from_dict,
)
from .sweep import SweepSpec, sweep_frontier, write_frontier

__version__ = "0.1.0"

__all__ = [
    "AbsoluteProtocol",
    "Arc",
    "AttackerSpec",
    "ConfiguredAlpha",
    "DirectedGraph",
    "EqualWeights",
    "GraphTooLargeError",
    "InvariantViolation",
    "OscillatorState",
    "ProtocolFault",
    "PulseTape",
    "RandomInterval",
    "RelativeProtocol",
    "RunMetrics",
    "RunResult",
    "ScenarioConfig",
    "ScenarioValidationError",
    "SweepSpec",
    "WorldState",
    "check_initial_bound",
    "clockwise_dist",
    "complete_digraph",
    "containing_arc",
    "custom_script",
    "demo_graph_8",
    "directed_ring",
    "flooding_script",
    "format_graph_text",
    "is_r_robust",
    "is_stealthy",
    "load_graph",
    "load_scenario",
    "max_robustness",
    "msr_trim",
    "one_plus_abs_sin",
    "parse_claim",
    "random_digraph",
    "run_scenario",
    "sawtooth",
    "scenario_from_dict",
    "silent_script",
    "simulate",
    "stealthy_script",
    "sweep_frontier",
    "write_frontier",
]
