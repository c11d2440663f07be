"""The measuring scripts: each child mode of ``tools/bench.py`` runs at its
smallest size and prints the JSON keys the report is built from, and
``tools/timed.py`` passes its ``cqss`` child through."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqss import harness
from cqss.scenario import load_scenario, parse_scenario_text

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

RATE_KEYS = {"per_s", "calls", "seconds"}


def child(*args):
    """The JSON that ``--child`` mode ``args`` prints."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--child", *args],
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
        (["scenario", bench.SCENARIOS[0], "--rate-seconds", "0"], RATE_KEYS),
        (["eve", str(bench.EVE_DECOYS[0]), "--rate-seconds", "0"], RATE_KEYS),
        (["trial", "1"], {"trial_s", "peak_rss_mb"}),
        (
            ["primitives", str(bench.WIDTHS[0])],
            {"apply_pauli", "teleport", "state_vector", "reduced_density",
             "measure_single", "bell_measure"},
        ),
        (["audit", str(bench.AUDIT_WIDTHS[0])], {"none", "1", "all"}),
        (["decoy"], {"measure_single", "tapped_teleport"}),
        (["pair"], {"joint_identify", "general_path"}),
        (
            ["phase", str(bench.PHASE_WIDTHS[0]), "--rate-seconds", "0"],
            set(bench.PHASES),
        ),
    ],
    ids=["scenario", "eve", "trial", "primitives", "audit", "decoy", "pair", "phase"],
)
def test_child_modes_report_their_keys(args, keys):
    out = child(*args)
    assert set(out) == keys
    assert all(v > 0 for v in out.values())
    if keys == RATE_KEYS:
        assert out["calls"] >= bench.MIN_CALLS


def test_phase_times_build_run_as_its_secret_draw_then_the_staging():
    # The two parts stage the same run as build_run, bit for bit.
    assert bench.PHASES[:2] == ("secret_for_trial", "stage")
    cfg = parse_scenario_text(bench.full_release_text(4))
    for i in range(3):
        secret = harness.secret_for_trial(cfg.secret, cfg.N, i)
        parts = harness._stage(cfg, (cfg.master_seed, i), secret)
        whole = harness.build_run(cfg, (cfg.master_seed, i))
        for run in (parts, whole):
            run.distribute_all()
            run.transport_all()
        assert np.array_equal(parts.secret, whole.secret)
        assert parts.transcript.to_text() == whole.transcript.to_text()


def test_every_child_mode_is_run_here():
    tested = {
        "scenario", "eve", "trial", "primitives", "audit", "decoy", "pair", "phase"
    }
    assert set(bench.CHILDREN) == tested | {"eve-curve"}


@pytest.mark.parametrize(
    "args", [["nope"], ["trial"], ["trial", "x"], ["decoy", "1"], ["pair", "1"]]
)
def test_malformed_child_mode_exits_2(args):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--child", *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert done.returncode == 2 and "--child KIND [ARG]" in done.stderr


def test_machine_facts_name_the_pinned_cpu():
    facts = bench.machine_facts({3, 1})
    assert facts["cpus"] == 2 and facts["pinned_to_cpu"] == 1


def test_eve_curve_child_runs_the_curve():
    # One sample per decoy count; every attack on 8 decoys at p = 1 is
    # caught with probability 1 - (3/4)^8, so only the shape is checked.
    out = child("eve-curve", "1")
    assert set(out) == {"curve_s", "trials", "detected", "peak_rss_mb"}
    assert out["trials"] == 1 and len(out["detected"]) == len(bench.EVE_DECOYS)
    assert all(d in (0, 1) for d in out["detected"])
    assert out["curve_s"] > 0 and out["peak_rss_mb"] > 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["resources", "scenarios/full_release_demo.scn"], 0),
        (["run", "missing.scn"], 2),
    ],
    ids=["ok", "missing"],
)
def test_timed_wrapper_passes_the_child_through(argv, code):
    def run(*cmd):
        return subprocess.run(
            [sys.executable, *cmd, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )

    direct, timed = run("-m", "cqss"), run(str(ROOT / "tools" / "timed.py"))
    assert direct.returncode == timed.returncode == code
    assert timed.stdout == direct.stdout
    *child_err, last = timed.stderr.splitlines(keepends=True)
    assert "".join(child_err) == direct.stderr
    assert re.fullmatch(rf"cqss {argv[0]}: [0-9.]+ s wall, [0-9]+ MB peak RSS\n", last)
