"""The benchmark's traced probe still finds every pdfill name it wraps.

``perfbench/probe.py --trace`` replaces module-level functions and oracle
methods by name before it runs a command, so a rename in ``src/`` breaks
the traced benchmark run.  Each command here runs through the probe in a
fresh interpreter with the checkout's ``src/`` first on PYTHONPATH.

The benchmark's fill-surface check also runs here, on a smaller window of
the same command, so a change to the window that would fail it shows in
the tests.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"
LAYER_METRICS = 33
# counts the traced probe reports, measured before the slim memo and the
# folner ratio series were restated; the distance calls and lex-geodesic
# sides are the memo's misses, so a memo that stops caching, or that
# reaches lex_geodesic other than through the module global the tracer
# wraps, changes them.  The distance calls were measured again once the
# sweep pruned what cannot raise its maximum (63 before).
TRACED_LAYERS = {
    "slim Sigma2 --radius 2 --samples 10 --seed 1": {
        "slimness.triangles": 10, "groups.distance_calls": 31,
    },
    "folner F2 --family connected:4": {"folner.sets": 111},
}
TRACED_CALLS = {"slim Sigma2 --radius 2 --samples 10 --seed 1": {"lex_geodesic": 22}}


def run_probe(tmp_path, *args):
    """(completed process, report) of one probe run from a scratch directory."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    report_path = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, str(PROBE), "--report", str(report_path), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result, json.loads(report_path.read_text())


@pytest.mark.parametrize(
    "args",
    [
        ["--facts", "--", "fill", "Z^2", "Z", "--radius", "2", "--max-word", "4"],
        ["--", "slim", "Sigma2", "--radius", "2", "--samples", "10", "--seed", "1"],
        ["--", "folner", "F2", "--family", "connected:4"],
    ],
    ids=lambda args: " ".join(args[args.index("--") + 1:]),
)
def test_traced_probe_runs(args, tmp_path):
    trace_path = tmp_path / "trace.json"
    _, report = run_probe(tmp_path, "--trace", str(trace_path), *args)
    assert report["exit_code"] == 0
    assert isinstance(report["layers"], dict)
    assert len(report["layers"]) == LAYER_METRICS
    if "--facts" in args:
        assert report["facts"]["vertices"] > 0
    command = " ".join(args[args.index("--") + 1:])
    for name, count in TRACED_LAYERS.get(command, {}).items():
        assert report["layers"][name] == count, name
    calls = json.loads(trace_path.read_text())["calls"]
    for name, count in TRACED_CALLS.get(command, {}).items():
        assert calls[name]["calls"] == count, name


@pytest.mark.parametrize(
    "argv",
    [
        ["fill", "Z^2", "Z", "--radius", "2", "--max-word", "4"],
        ["slim", "Sigma2", "--radius", "2", "--samples", "10", "--seed", "1"],
        ["folner", "F2", "--family", "connected:4"],
    ],
    ids=" ".join,
)
def test_untraced_probe_times_the_library_call(argv, tmp_path):
    # the probe replaces the library function on pdfill.cli by name; a
    # command that reached it other than through that module attribute
    # would run untimed, and the report would carry no probe_s
    _, report = run_probe(tmp_path, "--", *argv)
    assert report["exit_code"] == 0
    assert report["probe_s"] > 0
    assert "layers" not in report


def test_fill_surface_check_passes_on_a_small_window(tmp_path, monkeypatch):
    # the benchmark's own check of fill-surface, against its octagon model
    # of the surface, on the radius-4 window of the same command
    argv = ["fill", "Sigma2", "Z", "--radius", "4", "--max-word", "8"]
    result, report = run_probe(tmp_path, "--facts", "--", *argv)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    assert checks.check_fill_surface(json.loads(result.stdout), report["facts"], argv) == []
