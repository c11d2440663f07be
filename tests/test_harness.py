"""Demo encoding, trial batches, reports, consent sweep, detection curve."""

import copy
import hashlib
import itertools
import pickle
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqss import harness
from cqss.errors import DecodeError, NotNormalized, PolicyError, ScenarioError, SweepError
from cqss.harness import (
    build_run,
    demo_decode,
    demo_encode,
    detection_curve,
    expected_outcome,
    haar_random_state,
    mstar_sweep,
    run_scenario,
    run_trial,
)
from cqss.protocol import AccessPolicy, Recovered
from cqss.qubits import QuantumRegister, RandomSource, fidelity
from cqss.scenario import SecretSpec, load_scenario, parse_scenario_text
from cqss.security import verify_decoys

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

    @pytest.mark.parametrize("width", range(1, 13))
    def test_haar_state_bits_match_two_array_expression(self, width):
        # The secret is built in one buffer and scaled in place; its bits
        # are those of ``a + 1j * b`` divided by its norm.
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((4, width))))
        vec = gen.standard_normal(2**width) + 1j * gen.standard_normal(2**width)
        want = vec / np.linalg.norm(vec)
        got = haar_random_state(width, RandomSource((4, width)))
        assert got.tobytes() == want.tobytes()

    def test_haar_state_peak_memory(self):
        width = 16
        haar_random_state(1, RandomSource(8))  # imports what numpy loads lazily
        tracemalloc.start()
        try:
            vec = haar_random_state(width, RandomSource(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * vec.nbytes


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

    def test_many_decoys_leave_only_the_secrets_block(self):
        # Every decoy swap and check retires a block; the register must keep
        # no trace of them, and the secret must come through untouched.
        text = BASE.replace("N = 3\nn = 3\nm = 3\n", "N = 2\nn = 2\nm = 2\n")
        cfg = parse_scenario_text(text.replace("threshold_k = 3", "threshold_k = 2"))
        cfg = replace(cfg, decoys=3000, trials=1)
        cfg.validate()
        run = build_run(cfg, (cfg.master_seed, 0))
        run.distribute_all()
        run.transport_all()
        report = verify_decoys(run, run.decoy_plan)
        assert (report.decoys_checked, report.verdict) == (3000, "clean")
        decoy_slots = set(run.decoy_plan.placements)
        secret_qubits = [q for s, q in run.slot_qubits.items() if s not in decoy_slots]
        blocks = list(dict.fromkeys(run.register._block_of.values()))
        assert len(blocks) == 1
        assert sorted(blocks[0].qubits) == sorted(secret_qubits)
        outcome = run.reconstruct()
        assert isinstance(outcome, Recovered)
        assert fidelity(outcome.state_vector, run.secret) >= 1 - 1e-10

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


# SHA-256 over the outcome, detection and transcript text of trials 0..19 of
# each bundled scenario.  None of these fields holds a float, so the digest
# is the same on every platform; a change that alters a random stream or a
# logged byte has to say so and update the constant.
PINNED_DIGESTS = {
    "eve_curve": "08b144a8ea0fb59528bb2ff154914feb8e509573278db646b48e02083a9492c2",
    "full_release_demo": "929e8beb02f71590488e866e47be2dce2ff9271fc5396ae800a06b31d98e051b",
    "single_withheld": "cbcd58b3738f001c2611fb434b6b509f235567be5ff4f0e015cbd63a96085c5b",
    "split_share": "e52549d40998adeb5d38e1c28dff3f8fcf938da6d13664f34c7e134093f9957a",
    "veto_controller": "ed90284f28f36bb1ee2e159bcc4ae6f9b702a07f120d39a1e57f4d02b05d86cc",
}


# The same digest over trials 0..4 of a full release at N = n = m = 12, the
# shape of the benchmark's wide_release workload; kept apart from
# PINNED_DIGESTS, which lists exactly the bundled scenarios.
WIDE_RELEASE = """
cqss-scenario v1
name = wide-release
N = 12
n = 12
m = 12
mode = classical
threshold_k = 12
decoys = 0
eve = none
secret = haar 12
trials = 5
master_seed = 2027
"""
WIDE_RELEASE_DIGEST = "feaec2cce64dd57804223abc971c6bf09627e55102ad8e08c83e70adcf90cacc"


def trials_digest(cfg, trials):
    digest = hashlib.sha256()
    for trial in range(trials):
        result = run_trial(cfg, trial)
        for part in (result.outcome, result.detection, result.transcript_text):
            digest.update(part.encode() + b"\0")
    return digest.hexdigest()


class TestSameBytes:
    def test_pins_every_bundled_scenario(self):
        assert sorted(PINNED_DIGESTS) == sorted(p.stem for p in SCENARIOS.glob("*.scn"))

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_first_trials_digest(self, name):
        cfg = load_scenario(SCENARIOS / f"{name}.scn")
        assert trials_digest(cfg, 20) == PINNED_DIGESTS[name]

    def test_wide_release_digest(self):
        cfg = parse_scenario_text(WIDE_RELEASE)
        assert trials_digest(cfg, 5) == WIDE_RELEASE_DIGEST


class TestAnyOrder:
    """Each trial draws from its own ``(master_seed, trial_index)`` streams,
    so a batch gives the same results serially or in parallel, and a copied
    configuration gives the same results as its original."""

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_trials_agree_in_any_order_and_from_copies(self, name):
        cfg = load_scenario(SCENARIOS / f"{name}.scn")
        forward = [run_trial(cfg, i) for i in range(10)]
        backward = [run_trial(cfg, i) for i in reversed(range(10))]
        assert backward[::-1] == forward
        # The halves 0..4 and 5..9 taking turns, then on two threads at once.
        turns = {i: run_trial(cfg, i) for pair in zip(range(5), range(5, 10)) for i in pair}
        assert [turns[i] for i in range(10)] == forward
        with ThreadPoolExecutor(max_workers=2) as pool:
            halves = pool.map(
                lambda half: [run_trial(cfg, i) for i in half], (range(5), range(5, 10))
            )
            assert [r for half in halves for r in half] == forward
        for twin in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert twin == cfg
            assert [run_trial(twin, i) for i in range(10)] == forward


class TestPlan:
    """The trials of a scenario share one plan: its policy, validated once,
    its eavesdropper and its outcome.  Configurations that differ only in
    seeds, secret or decoy count share it."""

    def test_equal_configs_share_one_plan(self):
        cfg = load_scenario(SCENARIOS / "split_share.scn")
        policy = build_run(cfg, (cfg.master_seed, 0)).policy
        twins = (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg))
        assert all(twin == cfg and hash(twin) == hash(cfg) for twin in twins)
        siblings = (
            *twins,
            replace(cfg, master_seed=cfg.master_seed + 1),
            replace(cfg, decoys=3),
            replace(cfg, secret=SecretSpec("haar", haar_seed=5)),
        )
        for sibling in siblings:
            assert build_run(sibling, (sibling.master_seed, 1)).policy is policy

    def test_a_scenario_validates_its_policy_once(self, monkeypatch):
        cfg = load_scenario(SCENARIOS / "full_release_demo.scn")
        calls = []
        validate = AccessPolicy.validate
        monkeypatch.setattr(
            AccessPolicy, "validate",
            lambda policy, *roster: (calls.append(roster), validate(policy, *roster)),
        )
        harness._plan.cache_clear()
        for i in range(5):
            run_trial(replace(cfg, master_seed=i), i)
        assert expected_outcome(cfg) == "recovered"
        assert calls == [(3, 3, 3)]

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"threshold_k": 4}, "threshold_k: 4 outside 1..3"),
            ({"release": {1: True, 2: True}},
             "release: must flag every controller 1..3 exactly once"),
            ({"qubit_to_player": {1: 1, 2: 2, 3: 4}},
             "qubit_to_player: references players outside 1..3"),
            ({"eve": "x"}, "eve: must be one of ('none', 'intercept-resend'), got 'x'"),
            ({"n": 0}, "need at least one player, one controller and one qubit "
                       "(got n=0, m=3, width=3)"),
        ],
        ids=["threshold", "release", "players", "eve", "no-players"],
    )
    def test_an_invalid_sibling_is_refused_after_the_valid_one(self, edit, message):
        # The valid configuration's plan is cached first; an invalid one is
        # refused on every call, with the message its one fault always gave.
        cfg = load_scenario(SCENARIOS / "full_release_demo.scn")
        run_trial(cfg, 0)
        bad = replace(cfg, **edit)
        for call in (lambda: build_run(bad, (bad.master_seed, 0)),
                     lambda: run_trial(bad, 0), lambda: expected_outcome(bad)):
            for _ in range(2):
                with pytest.raises(PolicyError) as info:
                    call()
                assert str(info.value) == message
        assert run_trial(cfg, 0).outcome == "recovered"


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
        # A scenario of another shape is a configuration error, named by
        # its field, not a sweep that contradicts the threshold.
        uneven = config(
            m=2,
            threshold_k=2,
            record_to_controller={1: (1,), 2: (1,), 3: (2,)},
            release={1: True, 2: True},
        )
        with pytest.raises(ScenarioError, match="^m: sweep needs n = m = N"):
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
        with pytest.raises(ScenarioError, match="^m: "):
            mstar_sweep(split)
        shared = replace(
            split, m=2, record_to_controller={1: (1, 2), 2: (1, 2)},
            release={1: True, 2: True},
        )
        shared.validate()
        with pytest.raises(ScenarioError, match="^record_to_controller: "):
            mstar_sweep(shared)

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
