"""Acceptance suite: one test per scheme-level guarantee, at fixed tolerance.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cqss import cli
from cqss.harness import (
    detection_curve,
    haar_random_state,
    mstar_sweep,
    run_scenario,
)
from cqss.protocol import (
    AccessPolicy,
    Recovered,
    setup,
)
from cqss.qubits import (
    RandomSource,
    fidelity,
    sealed_mixture,
    trace_distance,
)
from cqss.scenario import load_scenario, parse_scenario_text
from cqss.security import DecoyPlan, EveModel, verify_decoys

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FIDELITY_FLOOR = 1.0 - 1e-10
DISTANCE_CEILING = 1e-10


def _verdict(number, name, ok, started):
    elapsed = time.monotonic() - started
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _haar(width, seed):
    return haar_random_state(width, RandomSource(seed))


def test_criterion_1_distribution_identity():
    """Full distribution + full release reconstructs every state exactly."""
    started = time.monotonic()
    worst = 1.0
    for width in range(1, 7):
        policy = AccessPolicy.round_robin(width, width, width)
        for case in range(20):
            secret = _haar(width, 1_000 * width + case)
            run = setup(
                width, width, width, secret, policy,
                RandomSource((width, case)),
            )
            run.distribute_all()
            run.transport_all()
            outcome = run.reconstruct()
            assert isinstance(outcome, Recovered)
            worst = min(worst, fidelity(outcome.state_vector, secret))
    elapsed = time.monotonic() - started
    _verdict(1, "distribution identity", worst >= FIDELITY_FLOOR and elapsed < 10.0,
             started)


def test_criterion_2_no_information():
    """A single withheld record leaves exactly the predicted mixed state."""
    started = time.monotonic()
    worst = 0.0
    for width in (2, 3, 4):
        policy = AccessPolicy.round_robin(width, width, width)
        for case in range(10):
            secret = _haar(width, 2_000 * width + case)
            run = setup(
                width, width, width, secret, policy,
                RandomSource((2, width, case)),
            )
            run.distribute_all()
            for index in range(1, width + 1):
                got = run.withheld_state({index})
                want = sealed_mixture(secret, [index - 1])
                worst = max(worst, trace_distance(got, want))
    elapsed = time.monotonic() - started
    _verdict(2, "no information from withheld records",
             worst <= DISTANCE_CEILING and elapsed < 10.0, started)


def test_criterion_3_classical_share_transport():
    """Padded record transport: always decodable, announcements uniform."""
    started = time.monotonic()
    trials = 10_000
    controller = 1
    policy = AccessPolicy.round_robin(1, 1, 1)
    secret = np.array([1.0, 0.0])
    chi2_ok = True
    decode_ok = True
    distributions = {}
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        counts = np.zeros(4)
        for t in range(trials):
            run = setup(1, 1, 1, secret, policy,
                        RandomSource((3, bits[0], bits[1], t)))
            run.distribute_all()
            run.send_bits_classical(controller, 1, bits)
            decode_ok &= run.decoded[1].bits == bits
            announce = next(
                m.payload for m in run.transcript.messages
                if m.payload.startswith("announce")
            )
            u, v = announce.split("bits=")[1]
            counts[int(u) * 2 + int(v)] += 1
        _, p_value = stats.chisquare(counts)
        chi2_ok &= p_value > 0.001
        distributions[bits] = counts / trials
    # announcements carry nothing about the record: distributions for any two
    # fixed secret-bit values agree bin-wise within 4 sigma
    sigma_diff = np.sqrt(2 * 0.25 * 0.75 / trials)
    pairs_ok = all(
        np.all(np.abs(distributions[a] - distributions[b]) < 4 * sigma_diff)
        for a in distributions
        for b in distributions
    )
    elapsed = time.monotonic() - started
    _verdict(3, "classical share correctness and secrecy",
             decode_ok and chi2_ok and pairs_ok and elapsed < 30.0, started)


def _split_policy():
    return AccessPolicy(
        qubit_to_player={1: 1},
        record_to_controller={1: (1, 2)},
        threshold_k=1,
        release={1: True, 2: True},
        cooperating_players={1},
    )


def test_criterion_4_split_share_privacy():
    """A lone holder of half a split record sees the maximally mixed state."""
    started = time.monotonic()
    secret = np.array([0.6, 0.8])
    privacy_ok = True
    kinds_seen = set()
    seed = 0
    while len(kinds_seen) < 4 and seed < 300:
        run = setup(1, 2, 1, secret, _split_policy(), RandomSource((4, seed)))
        run.distribute_all()
        kind = run.transcript.bell_record[1]
        if kind not in kinds_seen:
            kinds_seen.add(kind)
            run.transport_all()
            for qubit in run.split_halves[1]:
                rho = run.register.reduced_density([qubit])
                privacy_ok &= (
                    trace_distance(rho.entries, np.eye(2) / 2) <= DISTANCE_CEILING
                )
        seed += 1
    identify_ok = len(kinds_seen) == 4
    for t in range(1_000):
        run = setup(1, 2, 1, secret, _split_policy(), RandomSource((44, t)))
        run.distribute_all()
        run.transport_all()
        got = run.joint_identify(1, 2)
        identify_ok &= got is run.transcript.bell_record[1]
    _verdict(4, "split share privacy and identification",
             privacy_ok and identify_ok, started)


def test_criterion_5_decoy_detection():
    """Escape frequency under a constant attacker follows (3/4)^M."""
    started = time.monotonic()
    eve_cfg = parse_scenario_text(
        (SCENARIOS / "eve_curve.scn").read_text()
    )
    curve = detection_curve(eve_cfg, decoy_counts=(1, 2, 4, 8))
    curve_ok = curve.all_within_bounds and all(
        p.trials == 10_000 for p in curve.points
    )

    clean_ok = True
    policy = AccessPolicy.round_robin(1, 1, 1)
    for decoys, seeds in ((1, 40), (2, 40), (4, 30), (8, 20), (16, 10)):
        for seed in range(seeds):
            rng = RandomSource((5, decoys, seed))
            plan = DecoyPlan.random(1, decoys, rng)
            run = setup(1, 1, 1, _haar(1, seed), policy, rng,
                        decoy_plan=plan, eve=EveModel.off())
            run.distribute_all()
            clean_ok &= verify_decoys(run, plan).mismatches == 0
    elapsed = time.monotonic() - started
    _verdict(5, "decoy detection curve", curve_ok and clean_ok and elapsed < 60.0,
             started)


def test_criterion_6_access_control():
    """Minimum consenting controllers equals the player threshold; a heavy
    controller's refusal is an absolute veto."""
    started = time.monotonic()
    sweep_ok = True
    for width in (2, 3, 4):
        cfg = parse_scenario_text(
            f"""
cqss-scenario v1
name = sweep-{width}
N = {width}
n = {width}
m = {width}
mode = classical
threshold_k = {width}
secret = haar {60_000 + width}
trials = 1
master_seed = {61_000 + width}
"""
        )
        table = mstar_sweep(cfg)
        sweep_ok &= table.minimum_consenting == width

    veto = run_scenario(load_scenario(SCENARIOS / "veto_controller.scn"))
    veto_ok = veto.sealed == veto.trials
    _verdict(6, "access control", sweep_ok and veto_ok, started)


def _report_counts(report):
    """Player links, controller links, dealer and controller measurements,
    decoys."""
    return (report.epr_player, report.epr_controller, report.dealer_measurements,
            report.controller_measurements, report.decoys)


def test_criterion_7_resource_accounting():
    """Link and measurement counts match the closed forms exactly."""
    started = time.monotonic()
    ok = True
    for width in range(1, 7):
        classical = AccessPolicy.round_robin(width, width, width)
        run = setup(width, width, width, _haar(width, 70 + width), classical,
                    RandomSource((7, width)))
        run.distribute_all()
        run.transport_all()
        ok &= _report_counts(run.resource_report()) == (
            width, 2 * width, 2 * width, width, 0
        )

        split = AccessPolicy.round_robin(width, 2 * width, width, split_all=True)
        run = setup(width, 2 * width, width, _haar(width, 170 + width), split,
                    RandomSource((77, width)))
        run.distribute_all()
        run.transport_all()
        report = run.resource_report()
        ok &= (report.epr_player, report.epr_controller,
               report.dealer_measurements) == (width, 2 * width, 3 * width)

        decoys = 2
        rng = RandomSource((777, width))
        plan = DecoyPlan.random(width, decoys, rng)
        run = setup(width, width, width, _haar(width, 270 + width), classical,
                    rng, decoy_plan=plan)
        run.distribute_all()
        run.transport_all()
        verify_decoys(run, plan)
        ok &= _report_counts(run.resource_report()) == (
            width + decoys, 2 * width, 2 * width + decoys, width, decoys
        )
    _verdict(7, "resource accounting", ok, started)


@pytest.mark.parametrize(
    "scenario",
    ["full_release_demo", "single_withheld", "veto_controller", "split_share",
     "eve_curve"],
)
def test_criterion_8_determinism(scenario, capsys):
    """Two executions of a bundled scenario produce byte-identical reports."""
    started = time.monotonic()
    path = SCENARIOS / f"{scenario}.scn"

    def run_once():
        code = cli.main(["run", str(path), "-v"])
        out = capsys.readouterr().out
        return code, out

    code_a, out_a = run_once()
    code_b, out_b = run_once()
    with capsys.disabled():
        _verdict(8, f"determinism ({scenario})",
                 code_a == code_b == 0 and out_a == out_b and len(out_a) > 0,
                 started)
