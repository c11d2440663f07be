"""Measure one cqss checkout and write the numbers as JSON.

    python3 tools/bench.py --out BENCH_<n>.json

Run from any directory; the checkout measured is the one holding this
script.  The output holds:

* ``machine``: Python, numpy, CPU count and RAM of the host;
* ``workloads``: for each benchmark workload, the end-to-end metrics at
  reference speed that ``cqssbench/run.py --trace 0`` prints on its last
  line, run as a subprocess (``--seed`` and ``--seconds`` are passed on);
* ``scenarios``: trials per second of ``harness.run_trial`` on each
  eve-free bundled scenario, trial indices 0, 1, 2, ... in turn;
* ``eve_curve``: eve-curve samples per second at each decoy count M in
  ``EVE_DECOYS``, each sample timed as ``harness.detection_curve`` runs
  it (``build_run``, ``distribute_all``, ``verify_decoys``);
* ``full_release``: wall time and peak RSS of one full-release classical
  trial (``harness.run_trial``) at N = 20, 22 and 24, each in a fresh
  interpreter, RSS being that interpreter's ``ru_maxrss``;
* ``primitives_us``: the median microseconds of one register call on a
  single block of each width in ``WIDTHS``, each width in a fresh
  interpreter.  The calls repeat on one register, so the block keeps its
  width: ``teleport`` and ``apply_pauli`` act on the same tensor position
  each time, ``bell_measure`` swaps that position onto a fresh singlet
  (allocated untimed), ``measure_single`` measures it in the X basis and
  keeps it;
* ``audit_us``: the median microseconds of one ``no_information_audit``
  with no record, record 1, and every record withheld, on a distributed
  and transported full-release run at each width in ``AUDIT_WIDTHS``,
  each width in a fresh interpreter.  One untimed audit first builds the
  run's secret projector, which every later audit of the run reuses.

Each rate runs for ``--rate-seconds`` (and at least ``MIN_CALLS`` times) in
a fresh interpreter, after one untimed warm-up call.  Timings are wall clock
on this host, not scaled to reference speed, except where ``cqssbench``
scales its own.  Compare two checkouts only with runs taken alternately on
the same machine.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trial_mix", "wide_release", "sealing_audit")
# The bundled scenarios with no eavesdropper, and the eve curve's points.
SCENARIOS = ("full_release_demo", "single_withheld", "veto_controller", "split_share")
EVE_DECOYS = (1, 2, 4, 8)
TRIAL_WIDTHS = (20, 22, 24)
WIDTHS = (2, 6, 10, 14, 18, 22)
AUDIT_WIDTHS = (2, 5, 8, 10)
# Run each primitive for about this long per width, set-up included, and
# at least MIN_CALLS times.
PRIMITIVE_S = 0.3
MIN_CALLS = 5


def full_release_text(width: int) -> str:
    """The scenario CI runs at N = 24, at any width."""
    return f"""cqss-scenario v1
name = wide-{width}
N = {width}
n = {width}
m = {width}
mode = classical
threshold_k = {width}
decoys = 0
eve = none
secret = haar 24
trials = 1
master_seed = 2026
"""


def trial_child(width: int) -> dict:
    """One full-release trial in this interpreter: its wall time, and this
    interpreter's peak RSS."""
    from cqss import harness
    from cqss.scenario import parse_scenario_text

    cfg = parse_scenario_text(full_release_text(width))
    t0 = time.perf_counter()
    result = harness.run_trial(cfg, 0)
    wall = time.perf_counter() - t0
    if result.outcome != "recovered":
        raise SystemExit(f"N = {width}: trial {result.outcome}, not recovered")
    return {
        "trial_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def rate(call, seconds: float) -> dict:
    """Calls per second of ``call(i)`` for i = 1, 2, ... after an untimed
    ``call(0)``, over at least ``seconds`` and ``MIN_CALLS`` calls."""
    call(0)
    count = 0
    start = time.perf_counter()
    while True:
        count += 1
        call(count)
        elapsed = time.perf_counter() - start
        if count >= MIN_CALLS and elapsed >= seconds:
            return {"per_s": count / elapsed, "calls": count, "seconds": elapsed}


def scenario_child(name: str, seconds: float) -> dict:
    """Trials per second of one bundled scenario, trial index ``i`` on call
    ``i``."""
    from cqss import harness
    from cqss.scenario import load_scenario

    cfg = load_scenario(ROOT / "scenarios" / f"{name}.scn")
    return rate(lambda i: harness.run_trial(cfg, i), seconds)


def eve_child(decoys: int, seconds: float) -> dict:
    """Eve-curve samples per second at ``decoys`` decoys, sample ``i`` on
    call ``i``, as ``harness.detection_curve`` runs each sample."""
    from dataclasses import replace

    from cqss import harness
    from cqss.scenario import load_scenario
    from cqss.security import verify_decoys

    cfg = replace(load_scenario(ROOT / "scenarios" / "eve_curve.scn"), decoys=decoys)
    cfg.validate()

    def sample(i: int) -> None:
        run = harness.build_run(cfg, (cfg.master_seed, decoys, i))
        run.distribute_all()
        verify_decoys(run, run.decoy_plan)

    return rate(sample, seconds)


def in_child(args: list[str], timeout: float) -> dict:
    """Run this script (or ``cqssbench/run.py``) in a fresh interpreter and
    return the JSON object on the last line of its standard output."""
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def workload_metrics(name: str, seed: int, seconds: float) -> dict:
    out = in_child(
        [str(ROOT / "cqssbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds)],
        timeout=60 + 20 * seconds,
    )
    metrics = {key: m["value"] for key, m in out["metrics"].items()}
    metrics["attempted"], metrics["failed"] = out["attempted"], out["failed"]
    return metrics


def median_us(call, setup=lambda: None) -> float:
    """Median microseconds of ``call(setup())``, timing the call alone."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < PRIMITIVE_S:
        arg = setup()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def primitives(width: int) -> dict:
    """µs per register call on one ``width``-qubit block."""
    import numpy as np

    from cqss.qubits import BellKind, Pauli, QuantumRegister, RandomSource

    rng = RandomSource(width)
    vec = rng.complex_normals(2**width)
    reg = QuantumRegister()
    ids = reg.alloc_state(vec / np.linalg.norm(vec))
    held = [ids[width // 2]]  # the qubit at the measured position

    def teleport(_):
        held[0], _kind = reg.teleport(held[0], rng)

    def bell_measure(pair):
        reg.bell_measure(held[0], pair[0], rng)
        held[0] = pair[1]

    out = {
        "apply_pauli": median_us(lambda _: reg.apply_pauli(held[0], Pauli.ZX)),
        "teleport": median_us(teleport),
        "state_vector": median_us(lambda _: reg.state_vector()),
        "reduced_density": median_us(lambda _: reg.reduced_density(held)),
        "measure_single": median_us(
            lambda _: reg.measure_single(held[0], "X", rng, remove=False)
        ),
        "bell_measure": median_us(
            bell_measure, lambda: reg.alloc_bell_pair(BellKind.PHI_MINUS)
        ),
    }
    if reg.peak_block_qubits != width:
        raise SystemExit(f"the block outgrew width {width}")
    return out


def audits(width: int) -> dict:
    """µs per sealing audit at ``width`` with none, the first and every
    record withheld."""
    from cqss import harness
    from cqss.scenario import parse_scenario_text
    from cqss.security import no_information_audit

    run = harness.build_run(parse_scenario_text(full_release_text(width)), (2026, 0))
    run.distribute_all()
    run.transport_all()
    no_information_audit(run, ())
    sets = {"none": (), "1": (1,), "all": range(1, width + 1)}
    return {
        label: median_us(lambda _: no_information_audit(run, withheld))
        for label, withheld in sets.items()
    }


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
    }
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    facts["ram_mb"] = int(line.split()[1]) // 1024
    except OSError:
        pass
    return facts


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, help="write the JSON here (else stdout)")
    p.add_argument("--seed", type=int, default=11, help="benchmark workload seed")
    p.add_argument("--seconds", type=float, default=8.0,
                   help="measured seconds per benchmark workload")
    p.add_argument("--rate-seconds", type=float, default=3.0,
                   help="measured seconds per scenario rate and eve-curve point")
    p.add_argument("--trial-child", type=int, metavar="N", help=argparse.SUPPRESS)
    p.add_argument("--primitives-child", type=int, metavar="N", help=argparse.SUPPRESS)
    p.add_argument("--scenario-child", metavar="NAME", help=argparse.SUPPRESS)
    p.add_argument("--eve-child", type=int, metavar="M", help=argparse.SUPPRESS)
    p.add_argument("--audit-child", type=int, metavar="N", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.trial_child is not None:
        print(json.dumps(trial_child(args.trial_child)))
        return
    if args.primitives_child is not None:
        print(json.dumps(primitives(args.primitives_child)))
        return
    if args.scenario_child is not None:
        print(json.dumps(scenario_child(args.scenario_child, args.rate_seconds)))
        return
    if args.eve_child is not None:
        print(json.dumps(eve_child(args.eve_child, args.rate_seconds)))
        return
    if args.audit_child is not None:
        print(json.dumps(audits(args.audit_child)))
        return
    script = str(Path(__file__).resolve())
    rate_args = ["--rate-seconds", str(args.rate_seconds)]
    rate_timeout = 120 + 2 * args.rate_seconds
    report = {
        "machine": machine_facts(),
        "workloads": {
            name: workload_metrics(name, args.seed, args.seconds) for name in WORKLOADS
        },
        "scenarios": {
            name: in_child([script, "--scenario-child", name, *rate_args], rate_timeout)
            for name in SCENARIOS
        },
        "eve_curve": {
            str(m): in_child([script, "--eve-child", str(m), *rate_args], rate_timeout)
            for m in EVE_DECOYS
        },
        "full_release": {
            str(n): in_child([script, "--trial-child", str(n)], timeout=600)
            for n in TRIAL_WIDTHS
        },
        "primitives_us": {
            str(n): in_child([script, "--primitives-child", str(n)], timeout=600)
            for n in WIDTHS
        },
        "audit_us": {
            str(n): in_child([script, "--audit-child", str(n)], timeout=600)
            for n in AUDIT_WIDTHS
        },
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


if __name__ == "__main__":
    main()
