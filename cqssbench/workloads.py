"""The benchmark's workloads: set-up, one op, and the op's correctness check.

Every op reaches the library through module attributes looked up at call
time (``self.harness.run_trial``), so the tracer's wrappers apply whenever
they are installed.  Per-op seeds come from the workload seed and the op
index alone; the library only sees the generated configs.

No module of this file imports ``cqss`` or numpy at import time: set-up time
includes importing them.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIDELITY_FLOOR = 1.0 - 1e-10
EVE_DECOYS = (1, 2, 4, 8)
MIX_SCENARIOS = ("full_release_demo", "single_withheld", "veto_controller", "split_share")


class SetupError(Exception):
    """The checkout cannot run the benchmark (sources or scenarios missing)."""


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def import_cqss():
    """Import ``cqss`` from the checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cqss" / "__init__.py").is_file():
        raise SetupError(f"no cqss package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cqss
    import cqss.harness  # noqa: F401 - the workloads call into it

    return cqss


def op_seed(seed: int, index: int) -> int:
    """Non-negative 63-bit master seed of op ``index`` under workload ``seed``."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def peak_predicted(cfg) -> int:
    """Peak live qubits as ``ScenarioConfig.validate`` computes it."""
    n_split = sum(1 for h in cfg.record_to_controller.values() if len(h) == 2)
    return cfg.N + cfg.decoys + 2 + 2 * n_split


def wide_text(name: str, width: int, haar_seed: int) -> str:
    """A classical, round-robin, decoy-free scenario with a Haar secret."""
    return "\n".join([
        "cqss-scenario v1",
        f"name = {name}",
        f"N = {width}",
        f"n = {width}",
        f"m = {width}",
        "mode = classical",
        f"threshold_k = {width}",
        "decoys = 0",
        "eve = none",
        f"secret = haar {haar_seed}",
        "trials = 1",
        "master_seed = 0",
    ]) + "\n"


class Workload:
    """Base class: ``prepare`` builds op ``i`` untimed, the returned callable
    is the timed library work, and ``check`` turns its result into the bytes
    the determinism digest covers, or raises :class:`CheckFailed`.  Op kinds
    repeat with period ``cycle``; ``config(i)`` is the scenario op ``i`` runs,
    before its per-op seed."""

    cycle = 1

    def __init__(self, cqss, seed: int) -> None:
        self.seed = seed
        self.harness = cqss.harness
        self.security = cqss.security
        self.scenario = cqss.scenario

    def load(self, name: str):
        path = ROOT / "scenarios" / f"{name}.scn"
        if not path.is_file():
            raise SetupError(f"scenario file missing: {path}")
        return self.scenario.parse_scenario_text(path.read_text())

    def config(self, i: int):
        return self.cfg

    def run_level_failures(self) -> tuple[int, list[str]]:
        """Checks over the whole run: (ops they fail, messages)."""
        return 0, []

    def check_trial(self, cfg, result) -> bytes:
        expected = self.harness.expected_outcome(cfg)
        if result.outcome != expected:
            raise CheckFailed(f"{cfg.name}: outcome {result.outcome}, expected {expected}")
        if result.detection != "clean":
            raise CheckFailed(f"{cfg.name}: false eavesdropper detection")
        if result.fidelity is not None and result.fidelity < FIDELITY_FLOOR:
            raise CheckFailed(f"{cfg.name}: fidelity {result.fidelity!r}")
        if expected == "recovered" and result.fidelity is None:
            raise CheckFailed(f"{cfg.name}: recovered without a state vector")
        return (f"{result.outcome} {result.detection}\n"
                f"{result.transcript_text}").encode()


class TrialMix(Workload):
    """``run_trial`` on four bundled scenarios, then one eve-curve sample;
    the sample's decoy count M rotates through ``EVE_DECOYS``."""

    cycle = (len(MIX_SCENARIOS) + 1) * len(EVE_DECOYS)

    def __init__(self, cqss, seed: int) -> None:
        super().__init__(cqss, seed)
        self.trial_cfgs = [self.load(name) for name in MIX_SCENARIOS]
        eve = self.load("eve_curve")
        self.eve_cfgs = {}
        for m_decoys in EVE_DECOYS:
            cfg = replace(eve, decoys=m_decoys)
            cfg.validate()
            self.eve_cfgs[m_decoys] = cfg
        per_decoy = 0.25 * eve.eve_probability
        self.analytic = {m: (1.0 - per_decoy) ** m for m in EVE_DECOYS}
        self.samples = {m: 0 for m in EVE_DECOYS}
        self.escapes = {m: 0 for m in EVE_DECOYS}
        self.peak_predicted = max(
            peak_predicted(c) for c in self.trial_cfgs + list(self.eve_cfgs.values())
        )

    def config(self, i: int):
        slot = i % (len(self.trial_cfgs) + 1)
        if slot < len(self.trial_cfgs):
            return self.trial_cfgs[slot]
        return self.eve_cfgs[EVE_DECOYS[(i // (len(self.trial_cfgs) + 1)) % len(EVE_DECOYS)]]

    def prepare(self, i: int):
        s = op_seed(self.seed, i)
        cfg = self.config(i)
        if cfg.eve == "none":
            cfg = replace(cfg, master_seed=s)
            return lambda: (cfg, self.harness.run_trial(cfg, i))
        m_decoys = cfg.decoys

        def eve_sample():
            run = self.harness.build_run(cfg, (s, m_decoys, i))
            run.distribute_all()
            return cfg, (run, self.security.verify_decoys(run, run.decoy_plan))

        return eve_sample

    def check(self, result) -> bytes:
        cfg, out = result
        if cfg.eve == "none":
            return self.check_trial(cfg, out)
        run, report = out
        m_decoys = cfg.decoys
        if report.decoys_checked != m_decoys:
            raise CheckFailed(f"eve sample checked {report.decoys_checked} of {m_decoys} decoys")
        self.samples[m_decoys] += 1
        self.escapes[m_decoys] += report.clean
        return (f"M={m_decoys} {report.verdict} {report.mismatches}\n"
                f"{run.transcript.to_text()}").encode()

    def run_level_failures(self) -> tuple[int, list[str]]:
        """Escape frequency at each M within 4 sigma of the closed form."""
        failed, lines = 0, []
        for m_decoys in EVE_DECOYS:
            n = self.samples[m_decoys]
            if n == 0:
                continue
            p = self.analytic[m_decoys]
            sigma = math.sqrt(p * (1.0 - p) / n)
            freq = self.escapes[m_decoys] / n
            ok = abs(freq - p) <= 4.0 * sigma
            lines.append(f"eve M={m_decoys}: samples={n} escape={freq:.4f} "
                         f"analytic={p:.4f} sigma={sigma:.4f} within_4_sigma={'yes' if ok else 'no'}")
            if not ok:
                failed += n
        return failed, lines


class WideRelease(Workload):
    """Full release at N = n = m = 12, a fresh Haar secret per trial."""

    WIDTH = 12

    def __init__(self, cqss, seed: int) -> None:
        super().__init__(cqss, seed)
        self.cfg = self.scenario.parse_scenario_text(
            wide_text("wide-release", self.WIDTH, op_seed(seed, -1)))
        self.peak_predicted = peak_predicted(self.cfg)

    def prepare(self, i: int):
        cfg = replace(self.cfg, master_seed=op_seed(self.seed, i))
        return lambda: (cfg, self.harness.run_trial(cfg, i))

    def check(self, result) -> bytes:
        cfg, trial = result
        return self.check_trial(cfg, trial)


class SealingAudit(Workload):
    """A ``cqss noinfo`` sweep on a fresh N = 5 Haar run."""

    WIDTH = 5

    def __init__(self, cqss, seed: int) -> None:
        super().__init__(cqss, seed)
        self.cfg = self.scenario.parse_scenario_text(
            wide_text("sealing-audit", self.WIDTH, op_seed(seed, -1)))
        everything = set(range(1, self.WIDTH + 1))
        self.sweep = [set()] + [{i} for i in sorted(everything)] + [everything]
        self.peak_predicted = peak_predicted(self.cfg)

    def prepare(self, i: int):
        entropy = (op_seed(self.seed, i), i)
        sweep = self.sweep

        def audit_sweep():
            run = self.harness.build_run(self.cfg, entropy)
            run.distribute_all()
            run.transport_all()
            self.security.verify_decoys(run, run.decoy_plan)
            return [self.security.no_information_audit(run, w) for w in sweep]

        return audit_sweep

    def check(self, audits) -> bytes:
        bad = [a for a in audits if not a.passed]
        if bad:
            raise CheckFailed(f"audit leaked: withheld={bad[0].withheld} "
                              f"distance={bad[0].distance!r}")
        return "\n".join(f"{a.withheld} {a.distance!r}" for a in audits).encode()


WORKLOADS = {
    "trial_mix": TrialMix,
    "wide_release": WideRelease,
    "sealing_audit": SealingAudit,
}
