"""Batch execution of scenarios, reports, and scheme-level experiments.

A trial is seeded from ``(master_seed, trial_index)``, so trials are
independent and reproducible in any execution order.  Reports render as a
versioned, machine-parseable key/value tree whose bytes are a pure function
of the configuration and seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import DecodeError, NotNormalized, ScenarioError, SweepError
from .protocol import AccessPolicy, ProtocolRun, Recovered, ResourceReport, Sealed
from .qubits import RandomSource, fidelity
from .scenario import ScenarioConfig, SecretSpec, _format_float as _fmt
from .security import DecoyPlan, EveModel, verify_decoys

DEMO_TOLERANCE = 1e-9


# -- demo encoding -----------------------------------------------------------------


def demo_encode(xi: tuple[complex, complex], width: int) -> np.ndarray:
    """Spread one qubit ``a|0> + b|1>`` over ``width`` qubits as
    ``a|0...0> + b|1...1>``.

    A stand-in all-or-nothing encoding for end-to-end runs: all ``width``
    qubits together recover the input, while any single qubit alone shows
    only the populations ``|a|^2, |b|^2`` and no phase.
    """
    a, b = complex(xi[0]), complex(xi[1])
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > DEMO_TOLERANCE:
        raise NotNormalized(f"|a|^2+|b|^2 = {abs(a) ** 2 + abs(b) ** 2}")
    if width < 2:
        raise ValueError(f"demo encoding needs width >= 2, got {width}")
    state = np.zeros(2**width, dtype=complex)
    state[0] = a
    state[-1] = b
    return state


def demo_decode(state: np.ndarray) -> tuple[complex, complex]:
    """Invert :func:`demo_encode` given all qubits, up to global phase."""
    vec = np.asarray(state, dtype=complex).reshape(-1)
    a = vec[0]
    b = vec[-1]
    residual = float(np.linalg.norm(vec[1:-1]) ** 2)
    if residual > DEMO_TOLERANCE:
        raise DecodeError(
            f"state has weight {residual:.3e} outside the demo-code image"
        )
    return a, b


def haar_random_state(width: int, rng: RandomSource) -> np.ndarray:
    """Uniformly random pure state: normalized complex-Gaussian vector.
    The norm is ``np.linalg.norm``'s formula for a complex vector, spelled
    out without its wrapper, so its bits are the same."""
    vec = rng.complex_normals(2**width)
    re, im = vec.real, vec.imag
    vec *= 1.0 / math.sqrt(re.dot(re) + im.dot(im))
    return vec


# -- scenario plumbing ----------------------------------------------------------------


def secret_for_trial(spec: SecretSpec, width: int, trial_index: int) -> np.ndarray:
    if spec.kind == "demo":
        return demo_encode((spec.amplitudes[0], spec.amplitudes[1]), width)
    if spec.kind == "explicit":
        return np.asarray(spec.amplitudes, dtype=complex)
    # Haar secrets get their own stream so the protocol's draws do not
    # depend on how the secret was produced.
    return haar_random_state(width, RandomSource((spec.haar_seed, trial_index)))


class _Plan(NamedTuple):
    policy: AccessPolicy  # validated
    eve: EveModel
    outcome: str  # as expected_outcome gives it


# A plan's key: what staging reads but the seeds, secret and decoy count.
_plan_key = attrgetter("N", "n", "m", "eve", "eve_probability",
                       *(f.name for f in fields(AccessPolicy)))


@lru_cache(maxsize=256)
def _plan(key: tuple) -> _Plan:
    """What every trial of a scenario shares, built once per
    :data:`_plan_key`; an invalid configuration raises on every call."""
    N, n, m, eve, eve_probability, *policy_fields = key
    eve_model = EveModel(eve, eve_probability)
    policy = AccessPolicy(*policy_fields)
    policy.validate(n, m, N)
    eligible, _ = policy.coverage(policy.released_records)
    recovered = len(eligible) >= policy.threshold_k
    return _Plan(policy, eve_model, "recovered" if recovered else "sealed")


def expected_outcome(cfg: ScenarioConfig) -> str:
    """Structural reconstruction outcome implied by release and cooperation.

    Coverage does not depend on any measurement randomness, so the outcome
    of every trial of a scenario is decided by its configuration alone; an
    invalid one raises :class:`~cqss.errors.PolicyError`."""
    return _plan(_plan_key(cfg)).outcome


# -- trial execution -----------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    index: int
    outcome: str  # "recovered" | "sealed"
    detail: str
    fidelity: float | None
    detection: str  # "clean" | "eve-detected"
    decoy_mismatches: int
    resources: ResourceReport
    transcript_text: str


@dataclass
class RunReport:
    scenario: str
    trials: int
    master_seed: int
    results: list[TrialResult] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return sum(1 for r in self.results if r.outcome == "recovered")

    @property
    def sealed(self) -> int:
        return sum(1 for r in self.results if r.outcome == "sealed")

    @property
    def fidelities(self) -> list[float]:
        return [r.fidelity for r in self.results if r.fidelity is not None]

    @property
    def detections(self) -> int:
        return sum(1 for r in self.results if r.detection == "eve-detected")

    def to_text(self, verbosity: int = 0) -> str:
        lines = ["cqss-report v1"]
        lines.append(f"scenario: {self.scenario}")
        lines.append(f"trials: {self.trials}")
        lines.append(f"master_seed: {self.master_seed}")
        lines.append("aggregate:")
        lines.append(f"  recovered: {self.recovered}")
        lines.append(f"  sealed: {self.sealed}")
        fids = self.fidelities
        lines.append(f"  mean_fidelity: {_fmt(np.mean(fids)) if fids else 'n/a'}")
        lines.append(f"  min_fidelity: {_fmt(min(fids)) if fids else 'n/a'}")
        lines.append(f"  detections: {self.detections}")
        lines.append(f"  detection_frequency: {_fmt(self.detections / self.trials)}")
        mismatches = sum(r.decoy_mismatches for r in self.results)
        lines.append(f"  decoy_mismatch_total: {mismatches}")
        if verbosity >= 1:
            for r in self.results:
                lines.append(f"trial {r.index}:")
                lines.append(f"  outcome: {r.outcome}")
                if r.detail:
                    lines.append(f"  detail: {r.detail}")
                lines.append(
                    f"  fidelity: {_fmt(r.fidelity) if r.fidelity is not None else 'n/a'}"
                )
                lines.append(f"  detection: {r.detection}")
                for entry in r.resources.to_lines():
                    lines.append(f"  {entry.replace('=', ': ', 1)}")
                if verbosity >= 2:
                    lines.append("  transcript:")
                    for tline in r.transcript_text.rstrip("\n").split("\n"):
                        lines.append(f"    {tline}")
        return "\n".join(lines) + "\n"


def build_run(cfg: ScenarioConfig, entropy: int | tuple[int, ...]) -> ProtocolRun:
    """Stage a run of ``cfg`` seeded by ``entropy``, whose last element (or
    0 for a bare seed) is the trial index the secret is drawn for."""
    trial_index = entropy[-1] if isinstance(entropy, tuple) else 0
    return _stage(cfg, entropy, secret_for_trial(cfg.secret, cfg.N, trial_index))


def _stage(cfg: ScenarioConfig, entropy, secret: np.ndarray) -> ProtocolRun:
    """:func:`build_run` once the secret is drawn; the run copies it."""
    rng = RandomSource(entropy)
    decoy_plan = DecoyPlan.random(cfg.N, cfg.decoys, rng)
    plan = _plan(_plan_key(cfg))
    return ProtocolRun(secret, plan.policy, rng, decoy_plan=decoy_plan, eve=plan.eve)


def run_trial(cfg: ScenarioConfig, trial_index: int) -> TrialResult:
    """One full pipeline pass: distribute, transport, verify, reconstruct."""
    run = build_run(cfg, (cfg.master_seed, trial_index))
    run.distribute_all()
    run.transport_all()
    detection = verify_decoys(run, run.decoy_plan)
    outcome = run.reconstruct()
    resources = run.resource_report()
    if isinstance(outcome, Sealed):
        label, detail, fid = "sealed", outcome.reason, None
    else:
        label = "recovered"
        detail = f"covered={','.join(map(str, outcome.covered_qubits))}"
        vec = outcome.state_vector
        fid = fidelity(vec, run.secret) if vec is not None else None
    return TrialResult(
        index=trial_index,
        outcome=label,
        detail=detail,
        fidelity=fid,
        detection=detection.verdict,
        decoy_mismatches=detection.mismatches,
        resources=resources,
        transcript_text=run.transcript.to_text(),
    )


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute ``cfg.trials`` independent trials and aggregate."""
    cfg.validate()
    results = [run_trial(cfg, t) for t in range(cfg.trials)]
    return RunReport(cfg.name, cfg.trials, cfg.master_seed, results)


# -- consent sweep --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    released: int
    subsets_tested: int
    recovered_subsets: int


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    minimum_consenting: int
    threshold_k: int

    def to_text(self) -> str:
        lines = ["cqss-consent-sweep v1"]
        for row in self.rows:
            lines.append(
                f"released={row.released} subsets={row.subsets_tested} "
                f"recovered={row.recovered_subsets}"
            )
        lines.append(f"minimum_consenting: {self.minimum_consenting}")
        lines.append(f"threshold_k: {self.threshold_k}")
        return "\n".join(lines) + "\n"


SWEEP_EXHAUSTIVE_LIMIT = 5
SWEEP_SAMPLES = 256


def mstar_sweep(cfg: ScenarioConfig) -> SweepTable:
    """Find the minimum number of consenting controllers empirically.

    Requires the one-share-per-controller shape (n = m = N, each record held
    by exactly one controller, each controller holding exactly one record);
    a scenario of another shape is a configuration error and raises
    :class:`ScenarioError` naming the field, before any trial runs.
    For each release count r the sweep runs full protocol trials over all
    (or, above m = 5, 256 sampled) release subsets with every player
    cooperating, and reports how many subsets lead to recovery.  With this
    shape the minimum successful r must equal the player threshold; any
    other result raises :class:`SweepError`.
    """
    cfg.validate()
    for field, value in (("n", cfg.n), ("m", cfg.m)):
        if value != cfg.N:
            raise ScenarioError(
                f"{field}: sweep needs n = m = N, got n={cfg.n} m={cfg.m} N={cfg.N}"
            )
    one_each = [(c,) for c in range(1, cfg.m + 1)]
    if sorted(cfg.record_to_controller.values()) != one_each:
        raise ScenarioError(
            "record_to_controller: sweep needs exactly one classical share "
            "per controller"
        )

    everyone = replace(cfg, cooperating_players=range(1, cfg.n + 1))
    rows = []
    minimum = None
    sample_rng = RandomSource((cfg.master_seed, 0x5EED))
    for r in range(cfg.m + 1):
        subsets = _release_subsets(cfg.m, r, sample_rng)
        successes = 0
        for subset in subsets:
            trial_cfg = everyone.with_release(subset)
            mask = sum(1 << (c - 1) for c in subset)
            run = build_run(trial_cfg, (cfg.master_seed, r, mask))
            run.distribute_all()
            run.transport_all()
            verify_decoys(run, run.decoy_plan)
            if isinstance(run.reconstruct(), Recovered):
                successes += 1
        rows.append(SweepRow(r, len(subsets), successes))
        if successes and minimum is None:
            minimum = r
    if minimum is None:
        raise SweepError("no release subset allowed recovery, even full release")
    table = SweepTable(tuple(rows), minimum, cfg.threshold_k)
    if minimum != cfg.threshold_k:
        raise SweepError(
            f"minimum consenting controllers {minimum} != threshold {cfg.threshold_k}"
        )
    return table


def _release_subsets(m: int, r: int, rng: RandomSource) -> list[tuple[int, ...]]:
    if m <= SWEEP_EXHAUSTIVE_LIMIT or math.comb(m, r) <= SWEEP_SAMPLES:
        return list(itertools.combinations(range(1, m + 1), r))
    picked: set[tuple[int, ...]] = set()
    while len(picked) < SWEEP_SAMPLES:
        picked.add(rng.sample_positions(m, r))
    return sorted(picked)


# -- eavesdropper detection curve ---------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    decoys: int
    trials: int
    detected: int
    analytic_escape: float
    sigma: float

    @property
    def escape_frequency(self) -> float:
        return 1.0 - self.detected / self.trials

    @property
    def within_bounds(self) -> bool:
        return abs(self.escape_frequency - self.analytic_escape) <= 4.0 * self.sigma


@dataclass(frozen=True)
class DetectionCurve:
    points: tuple[CurvePoint, ...]

    @property
    def all_within_bounds(self) -> bool:
        return all(p.within_bounds for p in self.points)

    def to_text(self) -> str:
        lines = ["cqss-detection-curve v1"]
        for p in self.points:
            lines.append(
                f"decoys={p.decoys} trials={p.trials} detected={p.detected} "
                f"escape={_fmt(p.escape_frequency)} "
                f"analytic={_fmt(p.analytic_escape)} "
                f"within_4_sigma={'yes' if p.within_bounds else 'no'}"
            )
        return "\n".join(lines) + "\n"


def detection_curve(
    cfg: ScenarioConfig, decoy_counts: tuple[int, ...] = (1, 2, 4, 8)
) -> DetectionCurve:
    """Empirical escape frequency versus decoy count for the configured
    attacker, against the closed form ``(1 - p/4) ** M``.

    Each sample distributes the secret plus M decoys under the attacker and
    runs the decoy check; record transport plays no part in detection, so it
    is skipped for speed.  Sample t at every M is ``build_run(point_cfg,
    (master_seed, M, t))``; trial t's secret is drawn once and shared by
    its samples, which each copy it.
    """
    cfg.validate()
    eve = _plan(_plan_key(cfg)).eve
    per_decoy = eve.intercept_probability * 0.25 if eve.strategy != "none" else 0.0
    point_cfgs = [replace(cfg, decoys=m_decoys) for m_decoys in decoy_counts]
    for point_cfg in point_cfgs:
        point_cfg.validate()
    detected = [0] * len(point_cfgs)
    for t in range(cfg.trials):
        secret = secret_for_trial(cfg.secret, cfg.N, t)
        for j, point_cfg in enumerate(point_cfgs):
            run = _stage(point_cfg, (cfg.master_seed, point_cfg.decoys, t), secret)
            run.distribute_all()
            if not verify_decoys(run, run.decoy_plan).clean:
                detected[j] += 1
    points = []
    for m_decoys, hits in zip(decoy_counts, detected):
        analytic = (1.0 - per_decoy) ** m_decoys
        sigma = float(np.sqrt(analytic * (1.0 - analytic) / cfg.trials))
        points.append(CurvePoint(m_decoys, cfg.trials, hits, analytic, sigma))
    return DetectionCurve(tuple(points))
