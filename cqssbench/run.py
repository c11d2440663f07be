"""Run one cqss benchmark workload and print its metrics.

    python3 cqssbench/run.py --workload trial_mix --seed 1 --seconds 30 --trace 0

One process, pinned to one core, with one client thread, closed loop: each
op starts when the previous one has finished and been checked.  Per-op
inputs derive from ``--seed``.  A warm-up of one workload cycle precedes
the measured window; its ops are checked and counted but not timed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Times
are given at reference machine speed (see ``speed.py``), with the raw
wall-clock figures printed beside them; ``setup_s`` is the median of several
set-ups, each in a fresh interpreter.  ``--trace 1`` alternates traced and
untraced ops and reports the per-layer metrics (see ``tracing.py``) in
wall-clock units, including the tracing overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import REFERENCE_S, kernel_seconds  # noqa: E402
from tracing import SETUP_OP, Tracer, metric_units  # noqa: E402
from workloads import (  # noqa: E402
    ROOT, WORKLOADS, CheckFailed, SetupError, import_cqss, peak_predicted)

SETUP_REPEATS = 7
WARMUP_CYCLES = 1
BLOCK_S = 0.1
DIGEST_OPS = 100
TRACE_DIR = ROOT / ".cqssbench_trace"
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="stop after this many measured ops (smoke tests)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one set-up and print it as JSON")
    return p.parse_args(argv)


def setup_probe(args: argparse.Namespace) -> float:
    """Time one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def machine_facts() -> dict:
    import numpy as np

    ram_mb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    ram_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "ram_mb": ram_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": threads,
    }


class Loop:
    """The closed loop: runs, times and checks ops; keeps the digest."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def run_op(self) -> float:
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        work = self.workload.prepare(i)
        t0 = time.perf_counter()
        try:
            result = work()
        except Exception:  # an op that raises is a failed op; keep going
            elapsed = time.perf_counter() - t0
            self._fail(i, traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            record = self.workload.check(result)
        except CheckFailed as exc:
            self._fail(i, str(exc))
            return elapsed
        if i < DIGEST_OPS:
            self.digest.update(f"op {i}\n".encode() + record + b"\n")
            self.digest_ops += 1
        return elapsed

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {i}: {message}")


def pct(samples: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99) of at least two samples."""
    return statistics.quantiles(samples, n=100)[q - 1]


@dataclass
class Measured:
    """Untraced latencies and set-up times, in wall-clock and reference-speed
    units (see ``speed.py``), and the latencies of traced ops."""

    warmup: int = 0
    wall_s: float = 0.0
    ref_s: float = 0.0
    wall_ms: array = field(default_factory=lambda: array("d"))
    ref_ms: array = field(default_factory=lambda: array("d"))
    traced_ms: array = field(default_factory=lambda: array("d"))
    setup_wall_s: list[float] = field(default_factory=list)
    setup_ref_s: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    live_excess: int | None = None


def warm_up(loop: Loop) -> Measured:
    out = Measured(warmup=WARMUP_CYCLES * loop.workload.cycle)
    for _ in range(out.warmup):
        loop.run_op()
    return out


def measure(args: argparse.Namespace, loop: Loop) -> Measured:
    """Run untraced ops for ``--seconds`` of measured time.

    Ops run in blocks of at least ``BLOCK_S``; the reference kernel runs
    between blocks, and each block is scaled by the mean of the kernel times
    on either side.  ``SETUP_REPEATS`` set-up probes run at even intervals
    of the measured time, each scaled the same way.  Kernels and probes are
    not measured time.
    """
    out = warm_up(loop)
    kernel = kernel_seconds()
    out.kernel_s.append(kernel)

    def scale(before: float, after: float) -> float:
        out.kernel_s.append(after)
        return REFERENCE_S / ((before + after) / 2)

    def probe(before: float) -> float:
        wall = setup_probe(args)
        after = kernel_seconds()
        out.setup_wall_s.append(wall)
        out.setup_ref_s.append(wall * scale(before, after))
        return after

    while not out.wall_ms or (out.wall_s < args.seconds and len(out.wall_ms) != args.max_ops):
        due = min(int(out.wall_s * SETUP_REPEATS / args.seconds) + 1, SETUP_REPEATS)
        if len(out.setup_wall_s) < due:
            kernel = probe(kernel)
        block = []
        t0 = time.perf_counter()
        while not block or (time.perf_counter() - t0 < BLOCK_S
                            and len(out.wall_ms) + len(block) != args.max_ops):
            block.append(loop.run_op() * 1e3)
        wall = time.perf_counter() - t0
        after = kernel_seconds()
        factor = scale(kernel, after)
        kernel = after
        out.wall_ms.extend(block)
        out.ref_ms.extend(t * factor for t in block)
        out.wall_s += wall
        out.ref_s += wall * factor
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(out.setup_wall_s) < SETUP_REPEATS:
        kernel = probe(kernel)
    return out


def measure_traced(args: argparse.Namespace, loop: Loop, tracer: Tracer) -> Measured:
    """Run ops for ``--seconds``, traced and untraced alternating in blocks
    of one workload cycle, so both halves see every op kind.  Also finds the
    largest excess of an op's live-qubit peak over the peak its scenario's
    validation predicts."""
    out = warm_up(loop)
    workload = loop.workload
    started = time.perf_counter()
    n = 0
    while n == 0 or (time.perf_counter() - started < args.seconds and n != args.max_ops):
        if (n // workload.cycle) % 2 == 0:
            i = tracer.op = loop.next_op
            tracer.op_live_peak = 0
            tracer.install()
            out.traced_ms.append(loop.run_op() * 1e3)
            tracer.uninstall()
            excess = tracer.op_live_peak - peak_predicted(workload.config(i))
            if out.live_excess is None or excess > out.live_excess:
                out.live_excess = excess
        else:
            out.wall_ms.append(loop.run_op() * 1e3)
        n += 1
    return out


def end_to_end(m: Measured, reference: bool) -> dict[str, float]:
    """The end-to-end metrics at reference speed, or in wall-clock units."""
    ms = m.ref_ms if reference else m.wall_ms
    return {
        "setup_s": statistics.median(m.setup_ref_s if reference else m.setup_wall_s),
        "ops_per_s": len(ms) / (m.ref_s if reference else m.wall_s),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": pct(ms, 90) if len(ms) > 1 else ms[0],
        "peak_rss_mb": m.peak_rss_mb,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        t0 = time.perf_counter()
        WORKLOADS[args.workload](import_cqss(), args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cqss = import_cqss()
    facts = machine_facts()
    tracer = Tracer(cqss) if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](cqss, args.seed)
    if tracer is not None:
        tracer.uninstall()
    loop = Loop(workload)
    measured = measure(args, loop) if tracer is None else measure_traced(args, loop, tracer)
    plain, traced = measured.wall_ms, measured.traced_ms
    run_failed, run_lines = workload.run_level_failures()
    loop.failed += run_failed

    print(f"machine: {json.dumps(facts)}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} warm-up ops={measured.warmup} measured ops={len(plain) + len(traced)}")
    for line in run_lines:
        print(line)
    for line in loop.errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"digest: sha256={loop.digest.hexdigest()} over the first {loop.digest_ops} ops")

    if tracer is None:
        metrics = end_to_end(measured, reference=True)
        wall = end_to_end(measured, reference=False)
        units = E2E_UNITS
        beyond = len(plain) - int(0.9 * len(plain))
        kernel_ms = statistics.median(measured.kernel_s) * 1e3
        print(f"latency samples: {len(plain)} ({beyond} beyond p90); "
              f"set-up samples: {len(measured.setup_wall_s)}, each in a fresh interpreter")
        print(f"reference kernel: median {kernel_ms:.4g} ms over {len(measured.kernel_s)} runs "
              f"({REFERENCE_S * 1e3:g} ms at reference speed); metrics below are at "
              f"reference speed, wall-clock figures in brackets")
        if beyond < 10:
            print(f"warning: p90 has only {beyond} samples beyond it", file=sys.stderr)
    else:
        metrics = tracer.layer_metrics(len(traced))
        metrics["qubits.live_qubits_predicted"] = workload.peak_predicted
        metrics["qubits.live_qubits_excess"] = measured.live_excess or 0
        metrics["trace.op_ms_p50"] = statistics.median(traced)
        metrics["trace.untraced_op_ms_p50"] = (
            statistics.median(plain) if plain else metrics["trace.op_ms_p50"])
        metrics["trace.overhead_ms"] = (
            metrics["trace.op_ms_p50"] - metrics["trace.untraced_op_ms_p50"])
        units = metric_units()
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
        tracer.write(path)
        print(f"spans: {len(tracer.spans()['op'])} written to {path.relative_to(ROOT)}; "
              f"traced ops: {len(traced)}, untraced ops: {len(plain)}, "
              f"set-up spans have op id {SETUP_OP}")
    failed_fraction = loop.failed / loop.attempted
    for name, value in metrics.items():
        raw = f"  [wall {wall[name]:.6g}]" if tracer is None and name != "peak_rss_mb" else ""
        print(f"  {name:<45} {value:>14.6g} {units[name]}{raw}")
    print(f"  {'failed_fraction':<45} {failed_fraction:>14.6g} ratio "
          f"({loop.failed} of {loop.attempted} ops)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
