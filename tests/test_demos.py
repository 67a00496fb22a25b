"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
# The frontier demo would otherwise start a worker process per CPU.
EXTRA_ARGS = {"frontier_sweep.py": ["--parallelism", "1"]}


def run_demo(demo, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    run_demo(demo, EXTRA_ARGS.get(demo.name, []))


def test_frontier_demo_runs_a_worker_pool():
    run_demo(REPO / "demos" / "frontier_sweep.py", ["--parallelism", "2"])
