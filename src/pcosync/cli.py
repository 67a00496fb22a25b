"""Command line front end.

Exit codes: 0 on success, 2 on validation failure (including unreadable or
malformed inputs and output files that cannot be written), 3 when a run
aborts on a protocol fault or a broken runtime invariant.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .errors import InvariantViolation, ScenarioValidationError, UnrunnableScenarioError
from .graph import MAX_EXHAUSTIVE_NODES, is_r_robust, load_graph, max_robustness
from .runner import RunResult, run_scenario
from .scenario import ALGORITHMS, load_scenario
from .sweep import SweepSpec, format_frontier, pool_size, sweep_frontier

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _load(path: str):
    try:
        return load_scenario(path)
    except ScenarioValidationError:
        raise
    except FileNotFoundError:
        raise ScenarioValidationError([f"scenario file not found: {path}"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioValidationError([f"cannot read scenario file {path}: {exc}"])
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ScenarioValidationError([f"scenario file is not valid JSON: {exc}"])
    except RecursionError:
        raise ScenarioValidationError([f"scenario file is nested too deeply to parse: {path}"])


def _apply_overrides(config, args) -> None:
    for key in ("seed", "horizon", "algorithm"):
        if getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))


def _summary_lines(result: RunResult) -> list[str]:
    config = result.config
    metrics = result.metrics
    lines = [
        f"scenario: {config.name or '(unnamed)'}",
        f"algorithm: {config.algorithm}",
        f"nodes: {config.graph.node_count}",
        f"normal: {len(config.normal_ids)}",
        f"attackers: {sorted(config.faulty_ids)}",
        f"f: {config.f}",
        f"seed: {config.seed}",
        f"horizon: {config.horizon!r}",
        f"outcome: {result.outcome}",
        f"events: {result.world.event_count}",
        f"final_time: {result.world.clock!r}",
        f"final_arc: {metrics.delta!r}",
        f"final_frequency_spread: {metrics.delta_windowed!r}",
        f"detections: {[(k, t, node) for k, t, node in metrics.detection_events]}",
        f"monitor_violations: {len(metrics.violations) + metrics.suppressed_violations()}",
    ]
    if result.fault_message:
        lines.append(f"fault: {result.fault_message}")
    return lines


def _check_output(path: str | None, what: str, scenario: str) -> None:
    """Refuse, before any run, an output path that is a directory, lies
    outside an existing directory, or is the scenario file."""
    if not path:
        return
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ScenarioValidationError(
            [f"cannot write {what} to {path}: not a file in an existing directory"])
    if Path(path).resolve() == Path(scenario).resolve():
        raise ScenarioValidationError([f"cannot write {what} to {path}: it is the scenario file"])


def _write_text(path: str, what: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ScenarioValidationError([f"cannot write {what} to {path}: {exc}"]) from None


def _report(exc: ScenarioValidationError, stream) -> int:
    for line in exc.violations:
        print(f"violation: {line}", file=stream)
    return EXIT_VALIDATION


def _cmd_validate_config(args) -> int:
    violations, info = _load(args.scenario).validate()
    for line in info:
        print(f"info: {line}")
    for line in violations:
        print(f"violation: {line}")
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        return EXIT_VALIDATION
    print("valid")
    return EXIT_OK


def _cmd_check_robustness(args) -> int:
    try:
        graph = load_graph(args.graph)
    except (OSError, ValueError) as exc:
        raise ScenarioValidationError([str(exc)]) from None
    try:
        if args.r is not None:
            robust = is_r_robust(graph, args.r, max_nodes=args.max_nodes)
            print(f"nodes: {graph.node_count}")
            print(f"r: {args.r}")
            print(f"robust: {'yes' if robust else 'no'}")
            return EXIT_OK if robust else EXIT_VALIDATION
        r = max_robustness(graph, max_nodes=args.max_nodes)
        print(f"nodes: {graph.node_count}")
        print(f"max_robustness: {r}")
        return EXIT_OK
    except ValueError as exc:  # includes GraphTooLargeError
        raise ScenarioValidationError([str(exc)]) from None


def _cmd_run(args) -> int:
    config = _load(args.scenario)
    _apply_overrides(config, args)
    summary = args.summary if args.summary != "-" else None
    _check_output(args.trace, "the trace", args.scenario)
    _check_output(summary, "the summary", args.scenario)
    if args.trace and summary and Path(args.trace).resolve() == Path(summary).resolve():
        raise ScenarioValidationError(
            [f"cannot write the summary to {summary}: it is the trace file"])
    try:
        result = run_scenario(
            config,
            force=args.force,
            trace_path=args.trace,
        )
    except ScenarioValidationError as exc:
        _report(exc, sys.stderr)
        # Forcing skips the guarantee conditions; it cannot help a value
        # that no run can use.
        if not (args.force or isinstance(exc, UnrunnableScenarioError)):
            print("invalid: rerun with --force to execute anyway", file=sys.stderr)
        return EXIT_VALIDATION
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # the trace, the one file a run writes
        raise ScenarioValidationError([f"cannot write the trace to {args.trace}: {exc}"]) from None

    lines = _summary_lines(result)
    if args.trace:
        lines.append(f"trace: {args.trace}")
    text = "\n".join(lines) + "\n"
    if summary:
        _write_text(summary, "the summary", text)
    else:
        sys.stdout.write(text)
    return EXIT_RUNTIME if result.outcome == "fault" else EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load(args.scenario)
    _apply_overrides(config, args)
    try:
        grid = tuple(float(x) for x in args.grid.split(","))
        spec = SweepSpec(
            base=config,
            arc_grid=grid,
            trials=args.trials,
            spread_cap=args.spread_cap,
            bisect_tol=args.tol,
            seed=config.seed,
            success_threshold=args.threshold,
            synchronized_only=args.synchronized_only,
        )
        pool_size(args.parallelism, spec.trials)  # refuse a bad --parallelism before any trial
    except ValueError as exc:
        raise ScenarioValidationError([str(exc)]) from None
    _check_output(args.output, "the frontier", args.scenario)

    mark = time.perf_counter()

    def progress(point):
        nonlocal mark
        now = time.perf_counter()
        print(
            f"# arc {point.arc0:g}: spread {point.spread0_max:.4f} "
            f"(rate {point.success_rate:.2f}), {point.trials} trials, "
            f"{point.trials / (now - mark):.0f} trials/s",
            file=sys.stderr,
        )
        mark = now

    try:
        points = sweep_frontier(spec, parallelism=args.parallelism, progress=progress)
    except InvariantViolation as exc:  # a trial's protocol fault is its outcome
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    text = format_frontier(points)
    if args.output:
        _write_text(args.output, "the frontier", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcosync",
        description="Resilient pulse-coupled oscillator synchronization simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser(
        "validate-config", help="check a scenario file and report violations"
    )
    p_val.add_argument("scenario", help="path to a scenario JSON file")
    p_val.set_defaults(func=_cmd_validate_config)

    p_rob = sub.add_parser(
        "check-robustness", help="exhaustively check graph robustness"
    )
    p_rob.add_argument("graph", help="path to a graph text file")
    p_rob.add_argument("--r", type=int, default=None, help="robustness level to test; omit to scan for the maximum")
    p_rob.add_argument(
        "--max-nodes",
        type=int,
        default=MAX_EXHAUSTIVE_NODES,
        help="node-count guard for the exhaustive enumeration",
    )
    p_rob.set_defaults(func=_cmd_check_robustness)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--horizon", type=float, default=None, help="override the time horizon")
    p_run.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p_run.add_argument("--trace", default=None, help="write the per-event trace CSV here")
    p_run.add_argument(
        "--summary", default=None,
        help="write the summary to this file ('-' or omitted: stdout)",
    )
    p_run.add_argument("--force", action="store_true", help="run despite validation violations")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="estimate the admissible-spread frontier")
    p_sweep.add_argument("scenario", help="base scenario JSON file (initial conditions ignored)")
    p_sweep.add_argument(
        "--grid",
        default="0.05,0.15,0.25,0.35,0.45",
        help="comma-separated initial arc widths",
    )
    p_sweep.add_argument("--trials", type=int, default=100, help="Monte Carlo trials per evaluation")
    p_sweep.add_argument("--parallelism", type=int, default=1, help="worker processes")
    p_sweep.add_argument("--seed", type=int, default=None, help="base seed for trial derivation")
    p_sweep.add_argument("--horizon", type=float, default=None, help="override the trial horizon")
    p_sweep.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p_sweep.add_argument("--spread-cap", type=float, default=1.0, help="upper end of the bisection interval")
    p_sweep.add_argument("--tol", type=float, default=0.01, help="bisection resolution")
    p_sweep.add_argument("--threshold", type=float, default=0.95, help="required per-point success rate")
    p_sweep.add_argument(
        "--synchronized-only",
        action="store_true",
        help="count only converged runs as successes (default also counts detections)",
    )
    p_sweep.add_argument("--output", default=None, help="write the frontier CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        # validate-config reports on stdout, beside its verdict.
        return _report(exc, sys.stdout if args.func is _cmd_validate_config else sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
