"""Demo encoding, trial batches, reports, consent sweep, detection curve."""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqss.errors import DecodeError, NotNormalized, SweepError
from cqss.harness import (
    demo_decode,
    demo_encode,
    detection_curve,
    expected_outcome,
    haar_random_state,
    mstar_sweep,
    run_scenario,
    run_trial,
)
from cqss.qubits import QuantumRegister, RandomSource, fidelity
from cqss.scenario import load_scenario, parse_scenario_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE = """
cqss-scenario v1
name = harness-test
N = 3
n = 3
m = 3
mode = classical
threshold_k = 3
secret = demo 0.6 0.8
trials = 30
master_seed = 90125
"""


def config(**edits):
    cfg = parse_scenario_text(BASE)
    out = replace(cfg, **edits) if edits else cfg
    out.validate()
    return out


# -- demo encoding ---------------------------------------------------------------


class TestDemoCode:
    def test_basis_input(self):
        state = demo_encode((1, 0), 3)
        np.testing.assert_allclose(state, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_superposition_input(self):
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(demo_encode((s, s), 2), [s, 0, 0, s])

    def test_single_qubit_reduction_hides_phase(self):
        a, b = 0.6, 0.8j
        reg = QuantumRegister()
        ids = reg.alloc_state(demo_encode((a, b), 3))
        for q in ids:
            rho = reg.reduced_density([q])
            np.testing.assert_allclose(rho.entries, np.diag([0.36, 0.64]),
                                       atol=1e-12)

    def test_round_trip(self):
        xi = (0.6, 0.48 + 0.64j)
        got = demo_decode(demo_encode(xi, 4))
        assert fidelity(np.array(got), np.array(xi)) >= 1 - 1e-12

    def test_decode_examples(self):
        assert demo_decode(np.array([1, 0, 0, 0, 0, 0, 0, 0])) == (1, 0)
        with pytest.raises(DecodeError):
            demo_decode(np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            demo_encode((1, 1), 2)
        with pytest.raises(ValueError):
            demo_encode((1, 0), 1)

    def test_haar_states_normalized_and_seeded(self):
        a = haar_random_state(3, RandomSource(5))
        b = haar_random_state(3, RandomSource(5))
        assert np.linalg.norm(a) == pytest.approx(1.0)
        np.testing.assert_allclose(a, b)


# -- trial batches --------------------------------------------------------------------


class TestRunScenario:
    def test_full_release_all_recovered(self):
        report = run_scenario(config())
        assert report.recovered == 30 and report.sealed == 0
        assert min(report.fidelities) >= 1 - 1e-10
        assert report.detections == 0

    def test_single_withheld_all_sealed(self):
        cfg = config(release={1: False, 2: True, 3: True})
        report = run_scenario(cfg)
        assert report.sealed == 30
        assert expected_outcome(cfg) == "sealed"

    def test_report_bytes_deterministic(self):
        cfg = config()
        a = run_scenario(cfg).to_text(verbosity=2)
        b = run_scenario(cfg).to_text(verbosity=2)
        assert a == b

    def test_trials_independent_of_execution_order(self):
        cfg = config()
        batch = {r.index: r for r in run_scenario(cfg).results}
        for index in (17, 3, 28):
            solo = run_trial(cfg, index)
            assert solo == batch[index]

    def test_split_mode_reduces_to_plain_sharing_when_released(self):
        cfg = config(
            N=2,
            n=2,
            m=4,
            mode="split",
            threshold_k=2,
            qubit_to_player={1: 1, 2: 2},
            record_to_controller={1: (1, 2), 2: (3, 4)},
            release={1: True, 2: True, 3: True, 4: True},
            cooperating_players={1, 2},
            trials=20,
        )
        report = run_scenario(cfg)
        assert report.recovered == 20
        assert min(report.fidelities) >= 1 - 1e-10

    def test_mixed_mode(self):
        cfg = config(
            N=3,
            n=3,
            m=3,
            mode="mixed",
            record_to_controller={1: (1,), 2: (2, 3), 3: (2,)},
            release={1: True, 2: True, 3: True},
            trials=10,
        )
        report = run_scenario(cfg)
        assert report.recovered == 10
        assert min(report.fidelities) >= 1 - 1e-10

    def test_decoys_do_not_disturb_secret(self):
        cfg = config(decoys=3, trials=15)
        report = run_scenario(cfg)
        assert report.recovered == 15
        assert min(report.fidelities) >= 1 - 1e-10
        assert report.detections == 0

    def test_eve_disturbs_fidelity_and_gets_detected(self):
        cfg = config(
            N=2,
            n=2,
            m=2,
            threshold_k=2,
            qubit_to_player={1: 1, 2: 2},
            record_to_controller={1: (1,), 2: (2,)},
            release={1: True, 2: True},
            cooperating_players={1, 2},
            secret=config().secret,
            decoys=4,
            eve="intercept-resend",
            eve_probability=1.0,
            trials=60,
        )
        report = run_scenario(cfg)
        assert report.detections > 0
        assert np.mean(report.fidelities) < 0.97


class TestVetoInvariant:
    def test_withholding_veto_controller_seals_everything(self):
        cfg = config(
            m=2,
            threshold_k=2,
            record_to_controller={1: (1,), 2: (1,), 3: (2,)},
            release={1: False, 2: True},
            trials=25,
        )
        report = run_scenario(cfg)
        assert report.sealed == 25

    def test_releasing_veto_controller_unseals(self):
        cfg = config(
            m=2,
            threshold_k=2,
            record_to_controller={1: (1,), 2: (1,), 3: (2,)},
            release={1: True, 2: False},
            trials=10,
        )
        report = run_scenario(cfg)
        # records 1 and 2 cover players 1 and 2: threshold met
        assert report.recovered == 10


class TestExpectedOutcome:
    """``expected_outcome`` predicts ``run_trial`` under every release subset."""

    @staticmethod
    def assert_matches_every_release(cfg):
        for r in range(cfg.m + 1):
            for released in itertools.combinations(range(1, cfg.m + 1), r):
                trial_cfg = cfg.with_release(set(released))
                got = run_trial(trial_cfg, 0).outcome
                assert expected_outcome(trial_cfg) == got, (cfg.name, released)

    @pytest.mark.parametrize(
        "name", ["full_release_demo", "veto_controller", "split_share"]
    )
    def test_bundled_scenarios(self, name):
        self.assert_matches_every_release(load_scenario(SCENARIOS / f"{name}.scn"))

    def test_threshold_below_player_count(self):
        # Only players 1 and 3 cooperate, so recovery needs records 1, 2
        # (both of player 1's qubits) and 4; record 3 makes no difference.
        cfg = config(
            N=4,
            n=3,
            m=4,
            threshold_k=2,
            qubit_to_player={1: 1, 2: 1, 3: 2, 4: 3},
            record_to_controller={1: (1,), 2: (2,), 3: (3,), 4: (4,)},
            release={1: True, 2: True, 3: True, 4: True},
            cooperating_players={1, 3},
            trials=1,
        )
        self.assert_matches_every_release(cfg)


# -- consent sweep -----------------------------------------------------------------------


class TestSweep:
    def test_full_threshold(self):
        table = mstar_sweep(config(trials=1))
        assert table.minimum_consenting == 3
        assert [row.recovered_subsets for row in table.rows] == [0, 0, 0, 1]

    def test_partial_threshold(self):
        table = mstar_sweep(config(threshold_k=2, trials=1))
        assert table.minimum_consenting == 2
        by_released = {row.released: row for row in table.rows}
        assert by_released[0].recovered_subsets == 0
        assert by_released[2].recovered_subsets == 3  # every pair covers a pair
        assert by_released[3].recovered_subsets == 1

    def test_requires_one_share_per_controller(self):
        uneven = config(
            m=2,
            threshold_k=2,
            record_to_controller={1: (1,), 2: (1,), 3: (2,)},
            release={1: True, 2: True},
        )
        with pytest.raises(SweepError):
            mstar_sweep(uneven)
        split = config(
            N=2,
            n=2,
            m=4,
            mode="split",
            threshold_k=2,
            qubit_to_player={1: 1, 2: 2},
            record_to_controller={1: (1, 2), 2: (3, 4)},
            release={1: True, 2: True, 3: True, 4: True},
            cooperating_players={1, 2},
        )
        with pytest.raises(SweepError):
            mstar_sweep(split)

    def test_sweep_ignores_scenario_release_flags(self):
        cfg = config(release={1: False, 2: False, 3: False}, trials=1)
        table = mstar_sweep(cfg)
        assert table.minimum_consenting == 3


# -- detection curve ------------------------------------------------------------------------


class TestDetectionCurve:
    def test_matches_closed_form(self):
        cfg = config(
            N=1,
            n=1,
            m=1,
            threshold_k=1,
            qubit_to_player={1: 1},
            record_to_controller={1: (1,)},
            release={1: True},
            cooperating_players={1},
            secret=parse_scenario_text(
                BASE.replace("secret = demo 0.6 0.8", "secret = haar 5")
                .replace("N = 3", "N = 1")
                .replace("n = 3", "n = 1")
                .replace("m = 3", "m = 1")
                .replace("threshold_k = 3", "threshold_k = 1")
            ).secret,
            eve="intercept-resend",
            eve_probability=1.0,
            trials=1200,
        )
        curve = detection_curve(cfg, decoy_counts=(1, 2))
        assert curve.all_within_bounds
        assert [p.analytic_escape for p in curve.points] == [0.75, 0.5625]

    def test_no_attacker_never_detects(self):
        cfg = config(
            N=2,
            n=2,
            m=2,
            threshold_k=2,
            qubit_to_player={1: 1, 2: 2},
            record_to_controller={1: (1,), 2: (2,)},
            release={1: True, 2: True},
            cooperating_players={1, 2},
            trials=60,
        )
        curve = detection_curve(cfg, decoy_counts=(1, 4))
        assert all(p.detected == 0 for p in curve.points)
        assert all(p.analytic_escape == 1.0 for p in curve.points)
