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

from cqss import cli, harness, security
from cqss.scenario import load_scenario, parse_scenario_text

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

RATE_KEYS = {"per_s", "calls", "seconds"}
AUDIT_KEYS = {"none", "1", "all", "sweep", "model_none", "model_1", "model_all"}


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


def test_a_child_finds_cqss_without_pythonpath(tmp_path):
    # A child mode run by hand from another directory imports cqss from
    # the checkout holding the script.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--child", "audit", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == AUDIT_KEYS


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
        (["audit", str(bench.AUDIT_WIDTHS[0])], AUDIT_KEYS),
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


@pytest.mark.parametrize("name", ["full_release_demo", "eve_curve"])
def test_audit_sweep_is_the_one_noinfo_prints(name, capsys):
    # eve_curve has N = 1, so its sweep has no separate all-withheld set.
    path = ROOT / "scenarios" / f"{name}.scn"
    assert cli.main(["noinfo", str(path)]) == 0
    printed = re.findall(r"^withheld=(\S+) ", capsys.readouterr().out, re.M)
    width = load_scenario(path).N
    sweep = security.noinfo_sweep(width)
    assert printed == [",".join(map(str, w)) or "-" for w in sweep]
    assert len(sweep) == (width + 2 if width > 1 else 2)


def test_pair_child_reads_the_table_then_the_general_path(monkeypatch):
    # Per identification, the table's reading reads no block on the
    # general Bell path and the general path reads one; the table is put
    # back as it was.
    from cqss import qubits
    from cqss.qubits import QuantumRegister

    table, reads, real_operands = qubits._KNOWN, [], QuantumRegister._bell_operands

    def operands(reg, qa, qb):
        reads.append(qa)
        return real_operands(reg, qa, qb)

    per_call, real_median = [], bench.median_us

    def median_us(call, setup):
        def counted(arg):
            before = len(reads)
            call(arg)
            per_call[-1].append(len(reads) - before)

        per_call.append([])
        return real_median(counted, setup)

    monkeypatch.setattr(QuantumRegister, "_bell_operands", operands)
    monkeypatch.setattr(bench, "median_us", median_us)
    assert set(bench.pairs()) == {"joint_identify", "general_path"}
    table_path, general_path = per_call
    assert len(table_path) >= bench.MIN_CALLS and set(table_path) == {0}
    assert len(general_path) >= bench.MIN_CALLS and set(general_path) == {1}
    assert qubits._KNOWN is table


def test_audit_child_runs_at_least_three_sweeps(monkeypatch):
    # With no time to fill, the child runs SWEEP_CALLS sweeps after its one
    # untimed audit, and reads each labelled audit off them.
    audited, real_audit = [], security.no_information_audit

    def audit(run, withheld):
        audited.append(tuple(withheld))
        return real_audit(run, withheld)

    monkeypatch.setattr(bench, "PRIMITIVE_S", 0.0)
    monkeypatch.setattr(security, "no_information_audit", audit)
    out = bench.audits(3)
    sweep = security.noinfo_sweep(3)
    assert bench.SWEEP_CALLS >= 3
    assert audited == [()] + sweep * bench.SWEEP_CALLS
    assert out["sweep"] > out["all"] > 0 and out["none"] > 0 and out["1"] > 0


def test_a_checkout_paired_with_itself_reports_every_phase():
    # Both sides run the same code, imported twice, so only the shape and
    # the round count are checked; the rounds won are counts of those.  The
    # sealing_audit op is one more series of one row.
    out = child("paired", str(ROOT), "--rate-seconds", "0")
    widths = {str(n) for n in bench.PHASE_WIDTHS}
    assert set(out) == widths | {"sealing_audit"}
    for key, series in out.items():
        assert series["rounds"] == bench.PAIRED_ROUNDS
        assert series["trials"] >= bench.PAIRED_ROUNDS * bench.MIN_CALLS
        rows = {*bench.PHASES, "per_record"} if key in widths else {"sealing_audit"}
        assert set(series["phases"]) == rows
        for phase in series["phases"].values():
            assert set(phase) == {"base_us", "this_us", "won"}
            assert phase["base_us"] > 0 and phase["this_us"] > 0
            assert 0 <= phase["won"] <= bench.PAIRED_ROUNDS
    for width in widths:
        phases = out[width]["phases"]
        assert phases["per_record"]["this_us"] >= phases["distribute_all"]["this_us"]


def test_paired_imports_the_other_checkout_beside_this_one(tmp_path):
    # The other checkout's package loads from its own files, under its own
    # name, and this checkout's cqss stays the one imported.
    import cqss

    other = tmp_path / "other"
    (other / "src").mkdir(parents=True)
    (other / "src" / "cqss").symlink_to(ROOT / "src" / "cqss")
    module = bench.import_checkout(other, "cqss_other")
    try:
        assert module.__name__ == "cqss_other"
        assert module.harness.__name__ == "cqss_other.harness"
        assert module.harness.__file__.startswith(str(other))
        assert module.harness.run_trial is not harness.run_trial
        assert sys.modules["cqss"] is cqss
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "cqss_other"]:
            del sys.modules[name]


def test_every_child_mode_is_run_here():
    tested = {
        "scenario", "eve", "trial", "primitives", "audit", "decoy", "pair", "phase",
        "paired",
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
