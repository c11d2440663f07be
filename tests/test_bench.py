"""The measuring script ``tools/bench.py``: each child mode runs at its
smallest size and prints the JSON keys the report is built from."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqss.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

RATE_KEYS = {"per_s", "calls", "seconds"}


def child(*args):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_scenarios_are_the_eve_free_bundled_ones():
    eve_free = {
        p.stem
        for p in (ROOT / "scenarios").glob("*.scn")
        if load_scenario(p).eve == "none"
    }
    assert set(bench.SCENARIOS) == eve_free


@pytest.mark.parametrize(
    "args, keys",
    [
        (["--scenario-child", bench.SCENARIOS[0], "--rate-seconds", "0"], RATE_KEYS),
        (["--eve-child", str(bench.EVE_DECOYS[0]), "--rate-seconds", "0"], RATE_KEYS),
        (["--trial-child", "1"], {"trial_s", "peak_rss_mb"}),
        (
            ["--primitives-child", str(bench.WIDTHS[0])],
            {"apply_pauli", "teleport", "state_vector", "reduced_density",
             "measure_single", "bell_measure"},
        ),
    ],
    ids=["scenario", "eve", "trial", "primitives"],
)
def test_child_modes_report_their_keys(args, keys):
    out = child(*args)
    assert set(out) == keys
    assert all(v > 0 for v in out.values())
    if keys == RATE_KEYS:
        assert out["calls"] >= bench.MIN_CALLS
