"""The benchmark's tracer finds every name it times.

``perfbench/tracing.py`` reads each of its targets from the package when it
is imported, so a refactor that unbinds one makes that import raise
``KeyError``. The benchmark's own tests are outside ``testpaths``; this one
loads the tracer by path, as it is, and checks its targets here.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_is_bound_and_unpatched():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Loading reads every target in ``ALL_TARGETS``; an unbound one raises.
    spec.loader.exec_module(tracing)
    assert tracing.all_original()
