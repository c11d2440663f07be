"""Measure one cqss checkout and write the numbers as JSON.

    python3 tools/bench.py --out BENCH_<n>.json

Run from any directory; the checkout measured is the one holding this
script.  The output holds:

* ``machine``: Python, numpy, CPU count and RAM of the host, and the CPU
  this script and every child it starts are pinned to (before numpy is
  imported, as ``cqssbench/run.py`` pins itself, so no BLAS call spreads
  over threads);
* ``workloads``: for each benchmark workload, the end-to-end metrics at
  reference speed that ``cqssbench/run.py --trace 0`` prints on its last
  line, run as a subprocess (``--seed`` and ``--seconds`` are passed on);
* ``scenarios``: trials per second of ``harness.run_trial`` on each
  eve-free bundled scenario, trial indices 0, 1, 2, ... in turn;
* ``eve_curve``: eve-curve samples per second at each decoy count M in
  ``EVE_DECOYS``, each sample timed as ``harness.detection_curve`` runs
  it (``build_run``, ``distribute_all``, ``verify_decoys``);
* ``eve_curve_run``: wall time and peak RSS of the full eve curve as
  ``cqss eve`` runs it (``harness.detection_curve`` on
  ``scenarios/eve_curve.scn``, acceptance criterion 5) in a fresh
  interpreter, with its detection counts;
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
* ``decoy_us``: the median microseconds of ``measure_single`` (removing
  the qubit) and of ``tapped_teleport`` on a one-qubit block holding a
  basis state, each decoy in each basis in turn, on a fresh register
  allocated untimed;
* ``pair_us``: the median microseconds of ``joint_identify`` on a
  freshly split record (``scenarios/split_share.scn``, its first record,
  distributed and transported untimed, one trial index after another), as
  ``joint_identify``, and again as ``general_path`` with the pair entries
  dropped from ``cqss.qubits._KNOWN``, so that the pair's key misses and
  the general path runs;
* ``audit_us``: the median microseconds of ``sweep``, the whole sweep
  that ``cqss noinfo`` audits (no record, each record, then every record:
  N + 2 sets, N + 1 at N = 1), and of its audits with no record, record 1,
  and every record withheld, on a distributed and transported
  full-release run at each width in ``AUDIT_WIDTHS``, each width in a
  fresh interpreter.  The sweep runs at least ``SWEEP_CALLS`` times, and
  again until ``PRIMITIVE_S`` has passed; each audit is timed inside it.
  One untimed audit first builds the run's secret projector, which every
  later audit of the run reuses;
* ``phase_us``: the median microseconds of each phase of a full-release
  trial as ``harness.run_trial`` runs it (``PHASES``: ``build_run`` as its
  two parts, the secret draw ``secret_for_trial`` and the staging of the
  run from it, ``stage``; then ``distribute_all``, ``transport_all``,
  ``verify_decoys``, ``reconstruct``, ``resource_report``,
  ``transcript.to_text``), trial indices 1, 2, ... after an untimed
  trial 0, at each width in
  ``PHASE_WIDTHS`` in a fresh interpreter: N = 3 is
  ``scenarios/full_release_demo.scn``, N = 12 the shape of the
  ``wide_release`` workload (N = n = m = 12, classical, Haar secret).

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
PHASE_WIDTHS = (3, 12)
PHASES = (
    "secret_for_trial",
    "stage",
    "distribute_all",
    "transport_all",
    "verify_decoys",
    "reconstruct",
    "resource_report",
    "to_text",
)
# Run each primitive for about this long per width, set-up included, and
# at least MIN_CALLS times; a sweep at least SWEEP_CALLS times (one takes
# seconds at N = 10).
PRIMITIVE_S = 0.3
MIN_CALLS = 5
SWEEP_CALLS = 3


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


def eve_curve_child(trials: int) -> dict:
    """Wall time of ``cqss eve scenarios/eve_curve.scn``'s curve in this
    interpreter, at ``trials`` samples per point (0: the scenario's own),
    and this interpreter's peak RSS."""
    from dataclasses import replace

    from cqss import harness
    from cqss.scenario import load_scenario

    cfg = load_scenario(ROOT / "scenarios" / "eve_curve.scn")
    if trials:
        cfg = replace(cfg, trials=trials)
    t0 = time.perf_counter()
    curve = harness.detection_curve(cfg)
    wall = time.perf_counter() - t0
    return {
        "curve_s": wall,
        "trials": cfg.trials,
        "detected": [p.detected for p in curve.points],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def in_child(args: list[str], timeout: float) -> dict:
    """Run this script (or ``cqssbench/run.py``) in a fresh interpreter and
    return the JSON object on the last line of its standard output."""
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
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


def decoys() -> dict:
    """µs per check and per tap of a decoy: a lone qubit in a basis state."""
    import itertools

    from cqss.qubits import _BASIS_MATRIX, QuantumRegister, RandomSource

    rng = RandomSource(19)
    cases = itertools.cycle(
        itertools.product((row for m in _BASIS_MATRIX.values() for row in m), "ZX")
    )

    def fresh():
        row, basis = next(cases)
        reg = QuantumRegister()
        (q,) = reg.alloc_state(row)
        return reg, q, basis

    return {
        "measure_single": median_us(
            lambda case: case[0].measure_single(case[1], case[2], rng), fresh
        ),
        "tapped_teleport": median_us(
            lambda case: case[0].tapped_teleport(case[1], case[2], rng), fresh
        ),
    }


def pairs() -> dict:
    """µs per joint identification of a freshly split record, reading the
    pair's table and, with the table emptied, on the general path."""
    import itertools

    from cqss import harness, qubits
    from cqss.scenario import load_scenario

    cfg = load_scenario(ROOT / "scenarios" / "split_share.scn")
    trials = itertools.count()

    def fresh():
        run = harness.build_run(cfg, (cfg.master_seed, next(trials)))
        run.distribute_all()
        run.transport_all()
        return run, min(run.split_halves)

    def identify(case):
        run, index = case
        run.joint_identify(*run.policy.record_to_controller[index], index)

    out = {"joint_identify": median_us(identify, fresh)}
    # A pair's key ends in two tensor positions; a decoy's in a basis.
    table = qubits._KNOWN
    qubits._KNOWN = {k: e for k, e in table.items() if type(k[3][0]) is str}
    try:
        out["general_path"] = median_us(identify, fresh)
    finally:
        qubits._KNOWN = table
    return out


def audits(width: int) -> dict:
    """µs per sweep of ``cqss noinfo``'s sets in turn at ``width``, and per
    audit of its sets with none, the first and every record withheld."""
    from cqss import harness
    from cqss.scenario import parse_scenario_text
    from cqss.security import no_information_audit, noinfo_sweep

    run = harness.build_run(parse_scenario_text(full_release_text(width)), (2026, 0))
    run.distribute_all()
    run.transport_all()
    no_information_audit(run, ())
    sweep = noinfo_sweep(width)
    sweeps: list[list[float]] = []
    start = time.perf_counter()
    while len(sweeps) < SWEEP_CALLS or time.perf_counter() - start < PRIMITIVE_S:
        times = []
        for withheld in sweep:
            t0 = time.perf_counter()
            no_information_audit(run, withheld)
            times.append(time.perf_counter() - t0)
        sweeps.append(times)
    columns = list(zip(*sweeps))
    out = {
        label: 1e6 * statistics.median(columns[i])
        for label, i in (("none", 0), ("1", 1), ("all", -1))
    }
    out["sweep"] = 1e6 * statistics.median(map(sum, sweeps))
    return out


def phases(width: int, seconds: float) -> dict:
    """Median µs of each of ``PHASES`` in a full-release trial at ``width``."""
    from cqss import harness
    from cqss.scenario import load_scenario, parse_scenario_text
    from cqss.security import verify_decoys

    if width == 3:
        cfg = load_scenario(ROOT / "scenarios" / "full_release_demo.scn")
    else:
        cfg = parse_scenario_text(full_release_text(width))

    def trial(i: int) -> list[float]:
        # build_run(cfg, (cfg.master_seed, i)) in its two parts.
        start = time.perf_counter()
        secret = harness.secret_for_trial(cfg.secret, cfg.N, i)
        staged = time.perf_counter()
        run = harness._stage(cfg, (cfg.master_seed, i), secret)
        times = [staged - start, time.perf_counter() - staged]
        for step in (
            run.distribute_all,
            run.transport_all,
            lambda: verify_decoys(run, run.decoy_plan),
            run.reconstruct,
            run.resource_report,
            run.transcript.to_text,
        ):
            start = time.perf_counter()
            step()
            times.append(time.perf_counter() - start)
        if run.reconstruct().state_vector is None:
            raise SystemExit(f"N = {width}: trial {i} did not recover the secret")
        return times

    trial(0)
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_CALLS or time.perf_counter() - start < seconds:
        samples.append(trial(len(samples) + 1))
    return {
        name: 1e6 * statistics.median(column)
        for name, column in zip(PHASES, zip(*samples))
    }


# Each child mode, ``--child KIND [ARG]``: how its ARG is read (None: it
# takes none), and the function run on that and ``--rate-seconds``, whose
# JSON the child prints.
CHILDREN = {
    "trial": (int, lambda width, seconds: trial_child(width)),
    "primitives": (int, lambda width, seconds: primitives(width)),
    "scenario": (str, scenario_child),
    "eve": (int, eve_child),
    "audit": (int, lambda width, seconds: audits(width)),
    "eve-curve": (int, lambda trials, seconds: eve_curve_child(trials)),
    "decoy": (None, lambda seconds: decoys()),
    "pair": (None, lambda seconds: pairs()),
    "phase": (int, phases),
}


def machine_facts(cpus: set[int]) -> dict:
    """The host's facts; ``cpus`` is the CPU affinity before pinning."""
    import numpy as np

    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": len(cpus),
        "pinned_to_cpu": min(cpus),
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
    p.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # One CPU for this process and, by inheritance, every child, set before
    # anything imports numpy: a threaded BLAS then sees one CPU.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    if args.child:
        # A child imports cqss from this checkout, with or without PYTHONPATH.
        sys.path.insert(0, str(ROOT / "src"))
        kind, *arg = args.child
        usage = f"--child KIND [ARG]: KIND is one of {', '.join(CHILDREN)}"
        read, run = CHILDREN.get(kind, (None, None))
        if run is None or len(arg) != (read is not None):
            p.error(usage)
        try:
            value = [read(a) for a in arg]
        except ValueError:
            p.error(usage)
        print(json.dumps(run(*value, args.rate_seconds)))
        return
    script = str(Path(__file__).resolve())
    rate_timeout = 120 + 2 * args.rate_seconds

    def child(kind: str, *arg, timeout: float = 600) -> dict:
        """The JSON of child mode ``kind`` on ``arg``, in a fresh interpreter."""
        rate = ["--rate-seconds", str(args.rate_seconds)]
        return in_child([script, "--child", kind, *map(str, arg), *rate], timeout)

    report = {
        "machine": machine_facts(cpus),
        "workloads": {
            name: workload_metrics(name, args.seed, args.seconds) for name in WORKLOADS
        },
        "scenarios": {
            name: child("scenario", name, timeout=rate_timeout) for name in SCENARIOS
        },
        "eve_curve": {
            str(m): child("eve", m, timeout=rate_timeout) for m in EVE_DECOYS
        },
        "eve_curve_run": child("eve-curve", 0),
        "full_release": {str(n): child("trial", n) for n in TRIAL_WIDTHS},
        "primitives_us": {str(n): child("primitives", n) for n in WIDTHS},
        "decoy_us": child("decoy"),
        "pair_us": child("pair"),
        "audit_us": {str(n): child("audit", n) for n in AUDIT_WIDTHS},
        "phase_us": {
            str(n): child("phase", n, timeout=rate_timeout) for n in PHASE_WIDTHS
        },
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


if __name__ == "__main__":
    main()
