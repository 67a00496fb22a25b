"""pcosync benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload run_shipped --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the workload repeats until
``--seconds`` have passed and the end-to-end metrics are reported. With
``--trace 1`` one repetition runs without wrappers and one with the layer
wrappers of ``tracing.py``; the per-layer metrics, the exact counts and
the tracing overhead are reported. The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the machine description and the exact
counts, is also written to ``.perfbench_out/``. The exit code is 1 when any
operation failed or an output did not match its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "base_ms": "ms", "stress_ms": "ms"}

# Per-layer metric -> (span name, scale, kind): "event" divides the span's
# total self time by the events simulated, "call" by its own call count.
LAYER_TIMES = {
    "metrics.observe.self_us_per_event": ("metrics.observe", 1e6, "event"),
    "engine.next_event.us_per_event": ("engine.next_event", 1e6, "event"),
    "engine.advance_all.us_per_event": ("engine.advance_all", 1e6, "event"),
    "engine.simulate.self_us_per_event": ("engine.simulate", 1e6, "event"),
    "absolute.handle_fire.us": ("absolute.handle_fire", 1e6, "call"),
    "absolute.handle_update.us": ("absolute.handle_update", 1e6, "call"),
    "absolute.deliver_adversary.us": ("absolute.deliver_adversary", 1e6, "call"),
    "relative.handle_fire.us": ("relative.handle_fire", 1e6, "call"),
    "relative.handle_update.us": ("relative.handle_update", 1e6, "call"),
    "relative.handle_start.us": ("relative.handle_start", 1e6, "call"),
    "relative.deliver_adversary.us": ("relative.deliver_adversary", 1e6, "call"),
    "msr.msr_trim.us": ("msr.msr_trim", 1e6, "call"),
    "metrics.write_trace.ms": ("metrics.write_trace", 1e3, "call"),
    "scenario.validate.ms": ("scenario.validate", 1e3, "call"),
    "scenario.build.ms": ("scenario.build", 1e3, "call"),
    "graph.is_r_robust.ms": ("graph.is_r_robust", 1e3, "call"),
    "adversary.is_stealthy.ms": ("adversary.is_stealthy", 1e3, "call"),
    "runner.run_scenario.self_ms": ("runner.run_scenario", 1e3, "call"),
}
# Exact counts: calls that returned (a handler that raises ends the run
# without completing its event), summed over the named spans.
LAYER_CALLS = {
    "engine.events.fire": ("absolute.handle_fire", "relative.handle_fire"),
    "engine.events.update": ("absolute.handle_update", "relative.handle_update"),
    "engine.events.start_pulse": ("relative.handle_start",),
    "engine.events.adversary_pulse": ("absolute.deliver_adversary", "relative.deliver_adversary"),
    "msr.msr_trim.calls": ("msr.msr_trim",),
    "graph.is_r_robust.calls": ("graph.is_r_robust",),
    "phase.containing_arc.calls": ("phase.containing_arc",),
    "sweep.rate_calls": ("sweep.rate",),
    "sweep.trials": ("sweep.run_trial",),
}
LAYER_COUNTERS = ("absolute.pulses_delivered", "relative.pulses_delivered",
                  "sweep.dispatch.submissions")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up (import, load, input generation), print seconds")
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds for one set-up, and the speed of the kernel run after it."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload](ROOT, seed)
    took = time.perf_counter() - start
    from calibration import calibrate, speed

    return took, speed(calibrate(max(0.1, took)))


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up times measured in fresh interpreters, so imports are paid."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        took, speed = done.stdout.split()[-2:]
        out.append((float(took), float(speed)))
    return out


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git files, or "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def layer_metrics(tracer, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts of one traced repetition.
    Timings are scaled to the reference speed, like the end-to-end ones."""
    from calibration import speed as kernel_speed

    summary = tracer.summary()
    speed = kernel_speed(traced.calibration)
    def returned(span):
        stats = summary.get(span)
        return stats["calls"] - stats["raised"] if stats else 0

    counts = {name: sum(map(returned, spans)) for name, spans in LAYER_CALLS.items()}
    for name in LAYER_COUNTERS:
        counts[name] = tracer.counts.get(name, 0)
    counts["metrics.trace_rows"] = traced.observed["metrics.trace_rows"]
    events = sum(counts[f"engine.events.{k}"]
                 for k in ("fire", "update", "start_pulse", "adversary_pulse"))
    counts["engine.events.total"] = events

    metrics = {}
    for name, (span, scale, per) in LAYER_TIMES.items():
        stats = summary.get(span)
        divisor = events if per == "event" else (stats["calls"] if stats else 0)
        value = speed * scale * stats["self_s"] / divisor if stats and divisor else 0.0
        metrics[name] = (value, "us" if scale == 1e6 else "ms")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["sweep.dispatch.bytes_pickled"] = (tracer.dispatch_bytes, "bytes")
    p1, p2 = untraced.samples.get("p1"), untraced.samples.get("p2")
    efficiency = statistics.median(p1) / statistics.median(p2) / 2 if p1 and p2 else 0.0
    metrics["sweep.p2.efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead"] = (traced.scaled_s / untraced.scaled_s, "ratio")
    return metrics, counts


def consistency_problems(reps, traced, counts) -> list[tuple[str, str]]:
    """Outputs must repeat exactly; traced counts must match the outputs."""
    problems = []
    first = reps[0]
    for i, rep in enumerate(reps[1:] + ([traced] if traced else []), start=1):
        label = "traced repetition" if rep is traced else f"repetition {i}"
        if rep.signature != first.signature:
            problems.append((label, "outputs differ from repetition 0"))
        if rep.observed != first.observed:
            problems.append((label, "output counts differ from repetition 0"))
    for name, value in (traced.observed.items() if traced else ()):
        if name in counts and counts[name] != value:
            problems.append(("traced counts", f"{name} counted {counts[name]}, outputs show {value}"))
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed)))
        return 0

    import pcosync
    import tracing
    import workloads

    if not Path(pcosync.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"pcosync imported from {pcosync.__file__}, not from {ROOT / 'src'}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    setup = setup_seconds(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    OUT.mkdir(exist_ok=True)
    reps, traced, tracer = [], None, None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        outdir = Path(tmp)
        start = time.perf_counter()
        while True:
            if not tracing.all_original():
                raise RuntimeError("layer wrappers are installed during an untraced repetition")
            reps.append(workload.rep(outdir))
            if args.trace or time.perf_counter() - start >= args.seconds:
                break
        if args.trace:
            tracer = tracing.Tracer()
            traced = workload.traced_rep(tracer, outdir)
            if not tracing.all_original():
                raise RuntimeError("layer wrappers were left installed")

    kernel = [s for rep in reps for s in rep.calibration]
    if args.trace:
        metrics, counts = layer_metrics(tracer, traced, reps[0])
        tracer.write(OUT / f"spans-{args.workload}.npz")
    else:
        base_ms, stress_ms = workload.figures(reps)
        metrics = {
            "setup_s": statistics.median(took * sp for took, sp in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "base_ms": base_ms,
            "stress_ms": stress_ms,
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        counts = {}

    all_reps = reps + ([traced] if traced else [])
    mismatches = consistency_problems(reps, traced, counts)
    problems = [p for rep in all_reps for p in rep.problems] + mismatches
    attempted = sum(rep.attempted for rep in all_reps)
    failed = min(attempted, sum(rep.failed for rep in all_reps) + len(mismatches))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine(), "repetitions": len(reps),
        "samples": {k: len(workloads.pooled(reps, k)) for k in reps[0].samples},
        "setup_s_and_speed": setup,
        "setup_unscaled_s": statistics.median(took for took, _ in setup),
        "kernel_s": {"mean": statistics.fmean(kernel), "median": statistics.median(kernel),
                     "runs": len(kernel)},
        "output_counts": dict(reps[0].observed), "exact_counts": counts,
        "problems": [f"{label}: {msg}" for label, msg in problems], **result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetition(s), "
          f"samples {record['samples']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r} {unit}")
    if counts:
        print(f"exact counts: {json.dumps(counts, sort_keys=True)}")
    for line in record["problems"][:20]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
