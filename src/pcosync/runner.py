"""Single-scenario execution: validate, build, simulate, collect results.

``run_built(prepared, world)`` is the one runner, for ``run_scenario`` and
each sweep trial alike: it makes the run's metrics and runs the event loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .engine import WorldState, simulate
from .errors import ProtocolFault, ScenarioValidationError
from .metrics import RunMetrics, write_trace
from .scenario import PreparedScenario, ScenarioConfig


@dataclass
class RunResult:
    outcome: str
    world: WorldState
    metrics: RunMetrics
    config: ScenarioConfig
    violations: list[str] = field(default_factory=list)
    info: list[str] = field(default_factory=list)
    fault_message: str = ""
    ratio_log: list | None = None

    @property
    def detections(self) -> list[tuple[int, float, int]]:
        """(event index, time, node) triples, in detection order."""
        return self.metrics.detection_events


def run_scenario(
    config: ScenarioConfig,
    *,
    force: bool = False,
    validate: bool = True,
    collect_trace: bool = False,
    trace_path: str | Path | None = None,
    collect_ratios: bool = False,
) -> RunResult:
    """Execute one scenario end to end.

    Validation violations abort unless ``force`` is set; callers that
    generate admissible configs by construction pass ``validate=False`` to
    skip the exhaustive robustness recheck on every run. Either way,
    ``config.build()`` runs first and raises UnrunnableScenarioError on
    values no run can use, which callers can tell from the guarantee
    violations that ``force`` skips. A protocol fault is reported as the
    "fault" outcome rather than propagated, so batch callers can count it
    alongside the other outcomes.
    """
    prepared, world = built = config.build()
    violations, info = config.validate(built) if validate else ([], [])
    if violations and not force:
        raise ScenarioValidationError(violations)

    if collect_ratios and prepared.protocol.start_target is not None:
        prepared.protocol.ratio_log = []
    outcome, metrics, fault_message = run_built(
        prepared, world, collect_trace=collect_trace or trace_path is not None
    )

    if trace_path is not None and metrics.rows is not None:
        write_trace(trace_path, world.graph.node_count, metrics.rows)

    return RunResult(
        outcome=outcome,
        world=world,
        metrics=metrics,
        config=config,
        violations=violations,
        info=info,
        fault_message=fault_message,
        ratio_log=getattr(prepared.protocol, "ratio_log", None),
    )


def run_built(
    prepared: PreparedScenario, world: WorldState, *, collect_trace: bool = False
) -> tuple[str, RunMetrics, str]:
    """Run ``world``, made by ``prepared.world``, to its end as the prepared
    config says: make its metrics, run the event loop, and report a protocol
    fault as the "fault" outcome. Returns (outcome, metrics, fault message,
    empty unless the outcome is "fault")."""
    config = prepared.config
    metrics = RunMetrics(
        world,
        alpha=prepared.alpha,
        window_len=config.window_len,
        mode=config.monitor,
        tol_phase=config.tol_phase,
        tol_freq=config.tol_freq,
        collect_trace=collect_trace,
    )
    try:
        outcome = simulate(
            world,
            prepared.protocol,
            prepared.tape,
            metrics=metrics,
            halt_on_detection=config.halt_on_detection,
        )
    except ProtocolFault as exc:
        return "fault", metrics, str(exc)
    return outcome, metrics, ""
