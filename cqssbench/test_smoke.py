"""Smoke test of the benchmark itself: every workload runs a few ops, traced
and untraced, and reports every metric ``BENCHMARK.json`` names.

    python3 -m pytest cqssbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS = 4


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "60", "--trace", str(trace),
           "--max-ops", str(OPS)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(workload, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= OPS
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[section]}
        (fraction,) = [l.split() for l in lines if l.split()[0] == "failed_fraction"]
        assert float(fraction[1]) == 0.0 and fraction[2] == "ratio"
        digests.append([l for l in lines if l.startswith("digest:")])
    # The same seed gives the same outputs, whether traced or not.
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
