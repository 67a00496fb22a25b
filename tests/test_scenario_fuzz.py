"""Every scenario file exits 0 or 2: random whole files, and random values
under every top-level and nested key of the scenario schema.

``validate-config`` and ``run`` must answer each file with a verdict (exit 0)
or violation lines (exit 2), never an uncaught exception. ``run`` may also
exit 3, its documented code for a run that aborts on a protocol fault or a
broken runtime invariant (the ``strict`` monitor raises one by design).
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pcosync.cli import main
from pcosync.scenario import _KEYS

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=16,
)

_K5_TEXT = "5\n0 <- 1 2 3 4\n1 <- 0 2 3 4\n2 <- 0 1 3 4\n3 <- 0 1 2 4\n4 <- 0 1 2 3\n"
_K5_ROWS = [[j for j in range(5) if j != i] for i in range(5)]
# Valid scenarios that between them hold every key the schema reads, each
# nested object in every form it takes, and every attacker kind's options.
BASES = [
    {
        "name": "fuzz",
        "algorithm": "relative",
        "graph": {"named": "complete", "n": 5},
        "f": 1,
        "weights": {"policy": "alpha", "alpha": 0.2},
        "zeta": 0.1,
        "phases": {"random": {"low": 0.0, "high": 0.3, "seed": 1}},
        "frequencies": {"random": {"low": 1.0, "high": 1.1}},
        "attackers": [
            {"node": 4, "type": "stealthy", "offsets": [0.35], "claim": "sawtooth",
             "period": 1.0, "start_offsets": [0.25]},
        ],
        "horizon": 20.0,
        "seed": 3,
        "normalize_phases": True,
        "normalize_frequencies": True,
        "window_len": 4,
        "tol_phase": 1e-4,
        "tol_freq": 1e-4,
        "eager_detection": False,
        "halt_on_detection": True,
        "monitor": "warn",
    },
    {
        "graph": {"inline": _K5_ROWS},
        "f": 1,
        "weights": {"policy": "equal"},
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0, 1.02, 1.04, 1.0, 1.01],
        "attackers": [
            {"node": 4, "type": "flooding", "burst_count": 6, "burst_interval": 0.02,
             "start_time": 1.2, "claim": 2.0},
        ],
        "horizon": 20.0,
    },
    {
        "graph": {"text": _K5_TEXT},
        "f": 1,
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0] * 5,
        "attackers": [
            {"node": 0, "type": "custom", "pulses": [[0.5, 1.5], [1.5, 1.2]],
             "start_pulses": [0.4]},
        ],
        "horizon": 20.0,
    },
    {
        "graph": {"file": "k5.txt"},
        "f": 1,
        "phases": [0.0, 0.05, 0.1, 0.15, 0.2],
        "frequencies": [1.0] * 5,
        "attackers": [{"node": 2, "type": "silent"}],
        "horizon": 20.0,
    },
]


def _paths(value, prefix=()):
    """The path to every object key and list item below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


PATHS = [(b, path) for b, base in enumerate(BASES) for path in _paths(base)]


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _exit_codes(text: str) -> dict[str, int]:
    """Each command's exit code on a scenario file holding ``text``."""
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "k5.txt").write_text(_K5_TEXT)
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        for command in ("validate-config", "run"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes[command] = main([command, str(path)])
    return codes


def _check(codes):
    assert codes["validate-config"] in (0, 2)
    assert codes["run"] in (0, 2, 3)


def test_the_bases_hold_every_key_and_run():
    top = {path[0] for _, path in PATHS if len(path) == 1}
    assert top == set(_KEYS)
    for base in BASES:
        assert _exit_codes(json.dumps(base)) == {"validate-config": 0, "run": 0}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(PATHS), value=JSON)
def test_a_random_value_under_any_key_exits_0_or_2(case, value):
    b, path = case
    _check(_exit_codes(json.dumps(_replaced(BASES[b], path, value))))


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        JSON,
        st.dictionaries(st.sampled_from(sorted(_KEYS)) | st.text(max_size=8), JSON, max_size=8),
    )
)
def test_a_random_json_file_exits_0_or_2(data):
    _check(_exit_codes(json.dumps(data)))


@settings(max_examples=100, deadline=None)
@given(text=st.text(max_size=40))
def test_a_random_text_file_exits_0_or_2(text):
    _check(_exit_codes(text))


# Files that once ended in a traceback, in an allocation sized by one
# number in the file, or in a run stuck at one clock; each now exits 2 with
# one violation line naming the value. Sizes sit just past each limit.
_STEALTHY = BASES[0]["attackers"][0]
REFUSED = {
    "tiny_period": (
        _replaced(BASES[0], ("attackers", 0), {**_STEALTHY, "period": 1e-310, "offsets": [0.0],
                                               "start_offsets": []}),
        "pulses by the horizon",
    ),
    "zero_period_no_offsets": (
        _replaced(BASES[0], ("attackers", 0), {**_STEALTHY, "period": 0.0, "offsets": [],
                                               "start_offsets": []}),
        "period must be finite and positive",
    ),
    "nan_period_no_offsets": (
        _replaced(BASES[0], ("attackers", 0), {**_STEALTHY, "period": float("nan"),
                                               "offsets": [], "start_offsets": []}),
        "period must be finite and positive",
    ),
    "schedule_past_the_limit": (
        _replaced(BASES[0], ("horizon",), 100_001.0), "pulses by the horizon"
    ),
    "burst_past_the_limit": (
        _replaced(BASES[1], ("attackers", 0, "burst_count"), 100_001), "burst needs 1 to"
    ),
    "named_graph_past_the_limit": (
        _replaced(BASES[0], ("graph", "n"), 1025), "at most 1024 nodes"
    ),
    "graph_text_past_the_limit": (
        _replaced(BASES[2], ("graph", "text"), "1025\n"), "node count must lie in 1..1024"
    ),
    "draw_range_past_the_largest_float": (
        _replaced(BASES[0], ("phases", "random"), {"low": -1e308, "high": 1e308}),
        "phases draw range must be finite",
    ),
    "draw_range_from_high_down_to_low": (
        _replaced(BASES[0], ("frequencies", "random", "low"), 2), "from low up to high"
    ),
    "frequency_past_the_clock_resolution": (
        _replaced(BASES[1], ("frequencies", 1), 1e308), "too fast to simulate"
    ),
    "frequency_draw_past_the_clock_resolution": (
        _replaced(BASES[0], ("frequencies", "random"), {"low": 1.0, "high": 1e308}),
        "too fast to simulate",
    ),
    # Node 0 fires 0.9 * TIME_EPS after node 1 crosses its threshold, inside
    # one tie window, which carries node 1 9e-9 past it.
    "frequency_past_one_tie_window": (
        {"graph": {"named": "complete", "n": 2}, "f": 0, "phases": [0.9998999999991, 0.0],
         "frequencies": [1.0, 10000.0], "normalize_phases": False,
         "normalize_frequencies": False, "horizon": 5.0, "monitor": "off"},
        "too fast to simulate",
    ),
    # Burst pulses 9e-13 apart: once node 0 sits at its threshold, each
    # one ties with it and moves the clock on, carrying it past.
    "burst_within_one_tie_window": (
        {"graph": {"named": "complete", "n": 7}, "f": 1, "phases": [0.45, 0, 0, 0, 0, 0, 0],
         "frequencies": [1, 1, 1, 1, 1, 1, 1],
         "attackers": [{"node": 6, "type": "flooding", "burst_count": 5000,
                        "burst_interval": 9e-13, "start_time": 0.5499999999999}],
         "halt_on_detection": False, "horizon": 5.0, "monitor": "off"},
        "are distinct but within 1e-12",
    ),
    # The same pulses as one custom attacker's explicit schedule.
    "custom_pulses_within_one_tie_window": (
        {"graph": {"named": "complete", "n": 7}, "f": 1, "phases": [0.45, 0, 0, 0, 0, 0, 0],
         "frequencies": [1, 1, 1, 1, 1, 1, 1],
         "attackers": [{"node": 6, "type": "custom",
                        "pulses": [[0.5499999999999 + k * 9e-13, 1.0] for k in range(5000)]}],
         "halt_on_detection": False, "horizon": 5.0, "monitor": "off"},
        "custom pulses 0.5499999999999 and 0.5500000000008 are distinct but within 1e-12",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_file_past_a_limit_exits_2_naming_it(case, capsys, tmp_path):
    data, message = REFUSED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    for command in ("validate-config", "run"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        violations = [line for line in lines if line.startswith("violation:")]
        assert len(violations) == 1 and message in violations[0]


def test_an_integer_too_long_to_convert_exits_2(capsys, tmp_path):
    path = tmp_path / "long_integer.json"
    path.write_text('{"f": ' + "1" * 5000 + "}")
    for command in ("validate-config", "run"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert "violation: scenario file is not valid JSON" in captured.out + captured.err
