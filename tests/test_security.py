"""Decoy checking, the intercept-resend attacker, and sealing audits."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqss import protocol, qubits
from cqss.errors import PolicyError, ProtocolError
from cqss.protocol import AccessPolicy, setup
from cqss.qubits import (
    CORRECTION_FOR_OUTCOME,
    BellKind,
    Pauli,
    QuantumRegister,
    RandomSource,
    fidelity,
    pure_density,
    sealed_mixture,
    trace_distance,
)
from cqss.security import (
    AUDIT_TOLERANCE,
    DecoyPlan,
    DecoyState,
    EveModel,
    eve_tap,
    no_information_audit,
    noinfo_sweep,
    verify_decoys,
)
from test_protocol import (
    audited_runs,
    complete,
    general_withheld_state,
    split_records_policy,
)


def haar(width, seed):
    rng = RandomSource(seed)
    vec = rng.complex_normals(2**width)
    return vec / np.linalg.norm(vec)


def decoy_run(width, decoys, *, seed, eve=None, secret_seed=70):
    rng = RandomSource(seed)
    plan = DecoyPlan.random(width, decoys, rng)
    policy = AccessPolicy.round_robin(width, width, width)
    run = setup(
        width,
        width,
        width,
        haar(width, secret_seed),
        policy,
        rng,
        decoy_plan=plan,
        eve=eve,
    )
    run.distribute_all()
    return run, plan


# -- plans and insertion -----------------------------------------------------------


class TestDecoyPlan:
    def test_random_plan_is_valid_and_deterministic(self):
        plan = DecoyPlan.random(4, 3, RandomSource(1))
        plan.validate(4)
        assert plan.count == 3
        assert plan == DecoyPlan.random(4, 3, RandomSource(1))
        assert all(1 <= p <= 7 for p in plan.placements)

    def test_empty_plan(self):
        plan = DecoyPlan.random(4, 0, RandomSource(1))
        assert plan.count == 0 and plan.record == {}

    def test_every_empty_plan_is_one_shared_value(self):
        # No decoys draw nothing, and every decoy-free run, drawn or given
        # no plan, holds the same frozen plan.
        rng = RandomSource(1)
        plan = DecoyPlan.random(4, 0, rng)
        assert plan is DecoyPlan.random(2, 0, RandomSource(2)) and plan == DecoyPlan()
        assert rng.random() == RandomSource(1).random()
        policy = AccessPolicy.round_robin(3, 3, 3)
        run = setup(3, 3, 3, np.eye(8)[5], policy, RandomSource(3))
        assert run.decoy_plan is plan

    @pytest.mark.parametrize("count", [-1, 1.5, "2", None])
    def test_a_bad_count_is_refused_before_any_draw(self, count):
        rng = RandomSource(5)
        with pytest.raises(PolicyError, match="decoy count"):
            DecoyPlan.random(3, count, rng)
        assert rng.random() == RandomSource(5).random()

    def test_malformed_plan_rejected(self):
        with pytest.raises(PolicyError):
            DecoyPlan((1, 1), (DecoyState.ZERO, DecoyState.ONE)).validate(2)
        with pytest.raises(PolicyError):
            DecoyPlan((9,), (DecoyState.ZERO,)).validate(2)
        with pytest.raises(PolicyError):
            DecoyPlan((2, 1), (DecoyState.ZERO, DecoyState.ONE)).validate(2)

    @pytest.mark.parametrize(
        "plan, message",
        [
            (lambda: DecoyPlan((1,), ("0",)),
             "decoy states must be DecoyState members, got '0'"),
            (lambda: DecoyPlan((1.0,), (DecoyState.ZERO,)),
             "decoy placements must be integers: "
             "'float' object cannot be interpreted as an integer"),
        ],
        ids=["str-state", "float-placement"],
    )
    def test_ill_typed_plan_rejected_before_a_register_exists(self, monkeypatch, plan, message):
        def refuse(*args):
            raise AssertionError("a register was made")

        monkeypatch.setattr(protocol, "QuantumRegister", refuse)
        with pytest.raises(PolicyError) as err:
            setup(2, 2, 2, haar(2, 1), AccessPolicy.round_robin(2, 2, 2),
                  RandomSource(0), decoy_plan=plan())
        assert str(err.value) == message

    def test_placements_read_as_ints(self):
        # True and np.int64(3) are slots 1 and 3, kept and logged as ints.
        plan = DecoyPlan((True, np.int64(3)), (DecoyState.ZERO, DecoyState.ONE))
        assert plan == DecoyPlan((1, 3), (DecoyState.ZERO, DecoyState.ONE))
        assert all(type(p) is int for p in plan.placements)
        run = setup(2, 2, 2, haar(2, 1), AccessPolicy.round_robin(2, 2, 2),
                    RandomSource(0), decoy_plan=plan)
        run.distribute_all()
        verify_decoys(run, plan)
        text = run.transcript.to_text()
        assert "decoy-positions slots=1,3" in text
        assert "decoy-open slot=1 " in text and "True" not in text

    def test_insert_no_decoys_is_identity(self):
        secret = haar(2, 3)
        _, got = slot_state(secret, DecoyPlan())
        np.testing.assert_allclose(got, secret, atol=1e-12)

    def test_insert_explicit_product(self):
        plan = DecoyPlan((2,), (DecoyState.PLUS_X,))
        _, got = slot_state(np.array([1.0, 0.0]), plan)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(got, [s, s, 0, 0], atol=1e-12)

    def test_insert_preserves_secret_block(self):
        secret = haar(2, 4)
        plan = DecoyPlan((1, 3), (DecoyState.MINUS_X, DecoyState.ONE))
        run, _ = slot_state(secret, plan)
        rho = run.register.reduced_density([run.slot_qubits[2], run.slot_qubits[4]])
        assert trace_distance(rho.entries, pure_density(secret)) < 1e-12

    def test_decoys_are_own_blocks_in_slot_order(self):
        s = 1 / np.sqrt(2)
        _, got = slot_state(np.array([1.0, 0.0]), DecoyPlan((1,), (DecoyState.PLUS_X,)))
        np.testing.assert_allclose(got, [s, 0, s, 0], atol=1e-12)  # prepended
        secret = haar(2, 66)
        _, got = slot_state(secret, DecoyPlan((2,), (DecoyState.ONE,)))
        tensor = got.reshape(2, 2, 2)  # slot 2 is |1>, slots 1 and 3 the secret
        np.testing.assert_allclose(tensor[:, 0, :], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(tensor[:, 1, :].reshape(-1), secret, atol=1e-12)
        plan = DecoyPlan((1, 2, 6), (DecoyState.ZERO, DecoyState.PLUS_X, DecoyState.ONE))
        slot_state(haar(3, 5), plan)
        with pytest.raises(PolicyError):
            slot_state(secret, DecoyPlan((1, 1), (DecoyState.ZERO, DecoyState.ONE)))


def slot_state(secret, plan):
    """Set up a run hiding ``plan``'s decoys among the qubits of ``secret``;
    return it and its register's state over the slots in order, checked
    against :func:`interleave_reference`.  The secret and each decoy are
    separate blocks, so the largest block is the secret's."""
    width = int(np.log2(secret.size))
    run = setup(1, 1, width, secret, AccessPolicy.round_robin(1, 1, width),
                RandomSource(0), decoy_plan=plan)
    slots = range(1, run.total_slots + 1)
    got = run.register.state_vector(order=[run.slot_qubits[k] for k in slots])
    np.testing.assert_allclose(got, interleave_reference(secret, plan), atol=1e-12)
    assert run.register.peak_block_qubits == width
    return run, got


def interleave_reference(secret, plan):
    """Slot-order product of ``secret`` with the decoys of ``plan``, built
    amplitude by amplitude: each decoy slot carries its decoy state, and the
    secret qubits fill the other slots in index order (slot 1 is the most
    significant bit)."""
    width = int(np.log2(secret.size))
    total = width + plan.count
    decoys = plan.record
    out = np.zeros(2**total, dtype=complex)
    for index in range(2**total):
        amp = 1.0 + 0j
        secret_index = 0
        for slot in range(1, total + 1):
            bit = (index >> (total - slot)) & 1
            if slot in decoys:
                amp *= decoys[slot].vector[bit]
            else:
                secret_index = 2 * secret_index + bit
        out[index] = amp * secret[secret_index]
    return out


# -- the attacker itself --------------------------------------------------------------


def eve_at(register, qubit, model, rng):
    """Eve at an in-flight qubit, as a distribution swap lets her at it: the
    tap decision, then, if she taps, her measure-and-forward.  Returns her
    (basis, bit) or None."""
    basis = eve_tap(model, rng)
    if basis is None:
        return None
    return basis, register.measure_single(qubit, basis, rng, remove=False)


class TestEveTap:
    def test_probability_zero_never_touches(self):
        reg = QuantumRegister()
        ids = reg.alloc_state(haar(2, 5))
        before = reg.state_vector()
        assert eve_at(reg, ids[0], EveModel("intercept-resend", 0.0), RandomSource(1)) \
            is None
        assert fidelity(reg.state_vector(), before) == pytest.approx(1.0)

    def test_inactive_model_consumes_no_randomness(self):
        rng = RandomSource(2)
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        eve_at(reg, q, EveModel.off(), rng)
        assert rng.random() == RandomSource(2).random()

    def test_eigenstate_in_matching_basis_untouched(self):
        # force the X-basis branch: find a seed where the basis draw is X
        for seed in range(40):
            rng = RandomSource(seed)
            reg = QuantumRegister()
            q = reg.alloc_qubit(0)
            reg.project_single(q, "X", 0, remove=False)  # |+x>
            tap = eve_at(reg, q, EveModel("intercept-resend", 1.0), rng)
            assert tap is not None
            basis, bit = tap
            if basis == "X":
                assert bit == 0
                assert fidelity(reg.state_vector(), [1 / np.sqrt(2), 1 / np.sqrt(2)]) \
                    > 1 - 1e-12
                return
        pytest.fail("no X-basis draw in 40 seeds")

    def test_complementary_bases_randomize(self):
        # |0> measured in X then read out in Z: both outcomes equally likely
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        for outcome in (0, 1):
            probe = reg.copy()
            p = probe.project_single(q, "X", outcome, remove=False)
            assert p == pytest.approx(0.5)
            np.testing.assert_allclose(
                probe.single_probabilities(q, "Z"), [0.5, 0.5], atol=1e-12
            )

    def test_invalid_model_rejected(self):
        with pytest.raises(PolicyError):
            EveModel("collective", 1.0)
        with pytest.raises(PolicyError):
            EveModel("intercept-resend", 1.5)


# -- verification without an attacker ---------------------------------------------------


class TestVerifyClean:
    def test_clean_channel_exact_by_branch_enumeration(self):
        # over every decoy state and every forced swap branch, the corrected
        # qubit is exactly the decoy state again: the expected report has
        # probability 1, so a clean channel can never flag
        for state, kind in itertools.product(DecoyState, BellKind):
            reg = QuantumRegister()
            (src,) = reg.alloc_state(state.vector)
            mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            prob = reg.project_bell(src, mu, kind)
            assert prob == pytest.approx(0.25, abs=1e-12)
            reg.apply_pauli(nu, CORRECTION_FOR_OUTCOME[kind])
            p_expected = float(
                reg.single_probabilities(nu, state.basis)[state.expected_bit]
            )
            assert p_expected == pytest.approx(1.0, abs=1e-12), (state, kind)

    @pytest.mark.parametrize("decoys,seeds", [(1, 30), (4, 30), (16, 8)])
    def test_zero_false_positives(self, decoys, seeds):
        for seed in range(seeds):
            run, plan = decoy_run(1, decoys, seed=seed)
            report = verify_decoys(run, plan)
            assert report.mismatches == 0 and report.verdict == "clean"

    def test_requires_completed_distribution(self):
        from cqss.errors import IncompleteRun

        rng = RandomSource(3)
        plan = DecoyPlan.random(2, 1, rng)
        policy = AccessPolicy.round_robin(2, 2, 2)
        run = setup(2, 2, 2, haar(2, 6), policy, rng, decoy_plan=plan)
        with pytest.raises(IncompleteRun):
            verify_decoys(run, plan)

    def test_requires_matching_plan(self):
        run, plan = decoy_run(1, 1, seed=9)
        other = DecoyPlan((1,), (DecoyState.ZERO,))
        if other == plan:
            other = DecoyPlan((1,), (DecoyState.ONE,))
        with pytest.raises(PolicyError):
            verify_decoys(run, other)

    @pytest.mark.parametrize("name", ["split_share", "veto_controller"])
    def test_second_verification_refused_before_any_side_effect(self, name):
        # split_share hides two decoys, veto_controller none; either way a
        # verified run refuses a second check and is left as it was.
        from pathlib import Path

        from cqss.harness import build_run
        from cqss.scenario import load_scenario

        root = Path(__file__).resolve().parent.parent
        run = build_run(load_scenario(root / "scenarios" / f"{name}.scn"), (1, 0))
        run.distribute_all()
        report = verify_decoys(run, run.decoy_plan)
        reg = run.register
        before = (
            run.transcript.to_text(),
            list(run.transcript.messages),
            reg.live_qubits(),
            reg._next_id,
            np.complex128(reg._phase).tobytes(),
            reg.state_vector().tobytes(),
        )
        with pytest.raises(ProtocolError, match="^decoys already verified$"):
            verify_decoys(run, run.decoy_plan)
        assert before == (
            run.transcript.to_text(),
            list(run.transcript.messages),
            reg.live_qubits(),
            reg._next_id,
            np.complex128(reg._phase).tobytes(),
            reg.state_vector().tobytes(),
        )
        assert run.detection is report
        twin = build_run(load_scenario(root / "scenarios" / f"{name}.scn"), (1, 0))
        twin.distribute_all()
        verify_decoys(twin, twin.decoy_plan)
        assert run.rng.random() == twin.rng.random()  # no draw spent

    def test_verification_messages_logged(self):
        run, plan = decoy_run(2, 2, seed=10)
        verify_decoys(run, plan)
        kinds = [m.payload.split()[0] for m in run.transcript.messages]
        assert kinds.count("decoy-positions") == 1
        assert kinds.count("decoy-open") == 2
        assert kinds.count("decoy-report") == 2


# -- detection statistics ------------------------------------------------------------------


def exact_detection_probability_single_decoy():
    """Exhaustive enumeration over decoy state, attacker basis and outcome,
    and swap branch: probability that the holder's report disagrees.

    Independent of the sampling code path: every branch is forced and
    weighted by its exact probability.
    """
    total = 0.0
    for state, eve_basis in itertools.product(DecoyState, ["Z", "X"]):
        weight_state = 1.0 / len(DecoyState) / 2.0  # uniform state and basis
        for eve_bit, swap_kind in itertools.product((0, 1), BellKind):
            reg = QuantumRegister()
            (src,) = reg.alloc_state(state.vector)
            mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            p_eve = float(reg.single_probabilities(nu, eve_basis)[eve_bit])
            if p_eve < 1e-15:
                continue
            reg.project_single(nu, eve_basis, eve_bit, remove=False)
            p_swap = float(reg.bell_probabilities(src, mu)[swap_kind.value])
            if p_swap < 1e-15:
                continue  # interception can zero out swap branches
            reg.project_bell(src, mu, swap_kind)
            reg.apply_pauli(nu, CORRECTION_FOR_OUTCOME[swap_kind])
            p_wrong = float(
                reg.single_probabilities(nu, state.basis)[1 - state.expected_bit]
            )
            total += weight_state * p_eve * p_swap * p_wrong
    return total


class TestDetectionStatistics:
    def test_exact_quarter_per_decoy(self):
        assert exact_detection_probability_single_decoy() == pytest.approx(
            0.25, abs=1e-12
        )

    def test_monte_carlo_matches_quarter(self):
        trials = 4000
        eve = EveModel("intercept-resend", 1.0)
        detected = 0
        for seed in range(trials):
            run, plan = decoy_run(1, 1, seed=seed, eve=eve)
            if verify_decoys(run, plan).mismatches > 0:
                detected += 1
        sigma = np.sqrt(0.25 * 0.75 / trials)
        assert abs(detected / trials - 0.25) < 4 * sigma

    @pytest.mark.parametrize("decoys", [1, 2])
    def test_escape_curve_smoke(self, decoys):
        trials = 3000
        eve = EveModel("intercept-resend", 1.0)
        escaped = 0
        for seed in range(trials):
            run, plan = decoy_run(1, decoys, seed=10_000 + seed, eve=eve)
            if verify_decoys(run, plan).clean:
                escaped += 1
        expected = 0.75**decoys
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(escaped / trials - expected) < 4 * sigma

    def test_analytic_detection_monotone_in_decoys(self):
        values = [1 - 0.75**m for m in (1, 2, 4, 8)]
        assert values == sorted(values)

    def test_partial_interception_scales(self):
        # detection per decoy is p/4; at p = 0.5 one decoy detects ~ 1/8
        trials = 4000
        eve = EveModel("intercept-resend", 0.5)
        detected = 0
        for seed in range(trials):
            run, plan = decoy_run(1, 1, seed=20_000 + seed, eve=eve)
            if verify_decoys(run, plan).mismatches > 0:
                detected += 1
        sigma = np.sqrt(0.125 * 0.875 / trials)
        assert abs(detected / trials - 0.125) < 4 * sigma


# -- sealing audit ----------------------------------------------------------------------------


def eigvalsh_sides(monkeypatch):
    """The side of every matrix ``np.linalg.eigvalsh`` is given from now on."""
    sides, real = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sides.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sides


def blocks_over(rho, positions):
    """``rho``'s blocks over the tensor ``positions``: ``[b, c]`` is the
    block with those positions at the bits of ``b`` in the row and of ``c``
    in the column."""
    n = rho.shape[0].bit_length() - 1
    k = len(positions)
    rows_and_columns = [*positions, *(n + p for p in positions)]
    t = np.moveaxis(rho.reshape((2,) * (2 * n)), rows_and_columns, range(2 * k))
    side = 2 ** (n - k)
    return t.reshape(2**k, 2**k, side, side)


@st.composite
def sealed_runs(draw):
    """A distributed and transported run of 1 to 7 qubits with a Haar
    secret, up to two decoys, some records split between two controllers and
    taps on none, some or all slots, and a drawn set of withheld records."""
    width = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    split_records = draw(st.sets(st.integers(1, width))) if width > 1 else ()
    rng = RandomSource(seed)
    plan = DecoyPlan.random(width, draw(st.integers(0, 2)), rng)
    eve = EveModel("intercept-resend", draw(st.sampled_from([0.0, 0.5, 1.0])))
    run = setup(width, width, width, haar(width, seed), split_records_policy(
        width, split_records), rng, decoy_plan=plan, eve=eve)
    return complete(run), draw(st.sets(st.integers(1, width)))


def near_identity_kraus(strength, seed):
    """Two random Kraus operators within about ``strength`` of the identity
    channel, not normalized: the channel need not preserve the trace."""
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    return [np.eye(2) + strength * a, strength * b]


@st.composite
def mutated_tables(draw):
    """The fault's name and the swap tables (``_WITHHELD``, ``_CORRECTED``)
    as they are at import ("none") or with one fault: one outcome's
    correction a wrong Pauli, a withheld channel that is one corrected
    branch or dephasing, or near-identity noise at 1e-6 or 1e-12 before
    every swap.  Every faulty channel is built through ``_swap_channel``."""
    fault = draw(st.sampled_from(
        ["none", "wrong correction", "one branch", "dephasing", "noise"]))
    withheld, corrected = protocol._WITHHELD, dict(protocol._CORRECTED)
    uncorrected, corrected_kraus = protocol._swap_kraus()
    channel = protocol._swap_channel
    if fault == "wrong correction":
        kind = draw(st.sampled_from(list(BellKind)))
        wrong = draw(st.sampled_from(
            [p for p in Pauli if p is not CORRECTION_FOR_OUTCOME[kind]]))
        k = wrong.matrix @ uncorrected[kind]
        corrected[kind] = channel(protocol._superoperator([k]))
    elif fault == "one branch":
        withheld = corrected[draw(st.sampled_from(list(BellKind)))]
    elif fault == "dephasing":
        withheld = channel(np.diag([1.0, 0.0, 0.0, 1.0]))
    elif fault == "noise":
        strength = draw(st.sampled_from([1e-6, 1e-12]))
        noise = near_identity_kraus(strength, draw(st.integers(0, 2**32 - 1)))
        withheld = channel(protocol._superoperator(
            k @ n for k in uncorrected.values() for n in noise))
        corrected = {kind: channel(protocol._superoperator(k @ n for n in noise))
                     for kind, k in corrected_kraus.items()}
    return fault, withheld, corrected


class TestNoInformationAudit:
    def run_for_audit(self, width=3, seed=80):
        policy = AccessPolicy.round_robin(width, width, width)
        run = setup(width, width, width, haar(width, 81), policy, RandomSource(seed))
        run.distribute_all()
        return run

    def test_single_withheld_passes(self):
        run = self.run_for_audit()
        for index in (1, 2, 3):
            audit = no_information_audit(run, {index})
            assert audit.passed, audit

    def test_empty_set_distance_zero(self):
        run = self.run_for_audit(seed=82)
        audit = no_information_audit(run, set())
        assert audit.distance <= 1e-12

    def test_all_withheld_is_uniform(self):
        run = self.run_for_audit(seed=83)
        audit = no_information_audit(run, {1, 2, 3})
        assert audit.passed
        got = run.withheld_state({1, 2, 3})
        np.testing.assert_allclose(got.entries, np.eye(8) / 8, atol=1e-10)

    def test_all_withheld_at_width_eight(self):
        run = self.run_for_audit(width=8, seed=86)
        assert no_information_audit(run, range(1, 9)).passed
        got = run.withheld_state(range(1, 9))
        assert trace_distance(got.entries, np.eye(256) / 256) <= 1e-10

    def test_mixed_withheld_at_width_eight(self):
        run = self.run_for_audit(width=8, seed=87)
        audit = no_information_audit(run, {2, 5, 7})
        assert audit.passed, audit

    @pytest.mark.parametrize("index", [1.5, 2.0, "2", None])
    def test_non_integer_index_rejected(self, index):
        run = self.run_for_audit(seed=89)
        with pytest.raises(ProtocolError, match="must be integers"):
            no_information_audit(run, [index])

    def test_integer_like_indices_recorded_as_ints(self):
        run = self.run_for_audit(seed=89)
        audit = no_information_audit(run, [np.int64(3), 1, 3])
        assert audit.withheld == (1, 3)
        assert all(type(i) is int for i in audit.withheld)

    def test_audit_is_exact_not_statistical(self):
        # same audit from two different measurement histories agrees
        a = no_information_audit(self.run_for_audit(seed=84), {2})
        b = no_information_audit(self.run_for_audit(seed=85), {2})
        assert a.passed and b.passed
        assert a.distance < 1e-12 and b.distance < 1e-12

    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_wrong_correction_fails(self, monkeypatch, slot):
        # A released slot goes through its recorded branch and correction, so
        # any other Pauli in the correction table must show as a leak.
        run = self.run_for_audit(seed=88)
        kind = run.transcript.bell_record[slot]
        uncorrected, _ = protocol._swap_kraus()
        for wrong in Pauli:
            if wrong is CORRECTION_FOR_OUTCOME[kind]:
                continue
            k = wrong.matrix @ uncorrected[kind]
            wrong_channel = protocol._swap_channel(np.kron(k, k.conj()))
            table = {**protocol._CORRECTED, kind: wrong_channel}
            monkeypatch.setattr(protocol, "_CORRECTED", table)
            audit = no_information_audit(run, set())
            assert audit.distance > AUDIT_TOLERANCE, (kind, wrong)

    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_wrong_correction_fails_beside_a_withheld_record(self, monkeypatch, slot):
        # With another record withheld, a wrong correction on a released
        # slot still shows as a leak, and the certificate bounds the dense
        # distance.
        run = self.run_for_audit(seed=88)
        kind = run.transcript.bell_record[slot]
        uncorrected, _ = protocol._swap_kraus()
        for wrong in Pauli:
            if wrong is CORRECTION_FOR_OUTCOME[kind]:
                continue
            k = wrong.matrix @ uncorrected[kind]
            wrong_channel = protocol._swap_channel(np.kron(k, k.conj()))
            table = {**protocol._CORRECTED, kind: wrong_channel}
            monkeypatch.setattr(protocol, "_CORRECTED", table)
            for other in {1, 2, 3} - {slot}:
                audit = no_information_audit(run, {other})
                assert audit.distance > AUDIT_TOLERANCE, (kind, wrong, other)
                expected = sealed_mixture(run.secret, [other - 1])
                dense = trace_distance(run.withheld_state({other}), expected)
                assert audit.distance + 1e-12 >= dense, (kind, wrong, other)

    @pytest.mark.parametrize("channel", ["one branch", "dephasing"])
    def test_a_withheld_channel_without_the_sealing_form_fails(
        self, monkeypatch, channel
    ):
        # One corrected branch alone, c * I, keeps a withheld slot's
        # coherences; dephasing keeps its populations (rows 1 and 2 zero,
        # rows 0 and 3 not equal).  Neither is the depolarizer, so the
        # certificate sees the leak, and it bounds the dense distance.
        run = self.run_for_audit(seed=90)
        assert protocol._WITHHELD.off_depolarizer == 0.0
        if channel == "one branch":
            withheld = protocol._CORRECTED[run.transcript.bell_record[1]]
        else:
            withheld = protocol._swap_channel(np.diag([1.0, 0.0, 0.0, 1.0]))
        assert withheld.off_depolarizer > AUDIT_TOLERANCE
        monkeypatch.setattr(protocol, "_WITHHELD", withheld)
        audits = [no_information_audit(run, {i}) for i in (1, 2, 3)]
        for audit in audits:
            assert audit.distance > AUDIT_TOLERANCE, audit
            (i,) = audit.withheld
            expected = sealed_mixture(run.secret, [i - 1])
            dense = trace_distance(run.withheld_state({i}), expected)
            assert audit.distance + 1e-12 >= dense, audit

    # ``repr`` of each certificate of ``noinfo_sweep(4)`` on
    # ``run_for_audit(4, 95)`` (records varphi-, varphi+, phi-, phi+) under
    # three faults, recorded before the audit read its deviations as one list.
    PINNED_CERTIFICATES = {
        "wrong correction": ["inf", "0.0", "inf", "inf", "inf", "0.0"],
        "dephasing": ["0.0", "inf", "inf", "inf", "inf", "inf"],
        "slightly wrong": [
            "0.008170631518527892", "0.0076121231411706205", "0.008017285689551965",
            "0.0024598763093199314", "0.006458068811647168", "8.00088009281781e-05",
        ],
    }

    @pytest.mark.parametrize("fault", sorted(PINNED_CERTIFICATES))
    def test_certificates_off_zero_keep_their_bits(self, monkeypatch, fault):
        # On the import-time tables every certificate is 0.0, so these pin
        # how the deviations are read and summed where they are not: slot
        # 1's outcome corrected by a wrong Pauli; the dephasing withheld
        # channel; and every table a little wrong (each outcome's wrong
        # Pauli mixed in at its own weight, dephasing mixed into the
        # withheld channel), which gives finite sums of distinct terms.
        run = self.run_for_audit(width=4, seed=95)
        uncorrected, _ = protocol._swap_kraus()
        channel = protocol._swap_channel

        def wrong_superop(kind):
            wrong = next(p for p in Pauli if p is not CORRECTION_FOR_OUTCOME[kind])
            k = wrong.matrix @ uncorrected[kind]
            return np.kron(k, k.conj())

        dephasing = np.diag([1.0, 0.0, 0.0, 1.0])
        withheld, corrected = protocol._WITHHELD, dict(protocol._CORRECTED)
        if fault == "wrong correction":
            kind = run.transcript.bell_record[1]
            corrected[kind] = channel(wrong_superop(kind))
        elif fault == "dephasing":
            withheld = channel(dephasing)
        else:
            withheld = channel((1 - 1e-5) * withheld.superop + 1e-5 * dephasing)
            corrected = {
                kind: channel((1 - p) * corrected[kind].superop + p * wrong_superop(kind))
                for kind, p in zip(BellKind, (1e-3, 3e-4, 1e-4, 3e-5))
            }
        monkeypatch.setattr(protocol, "_WITHHELD", withheld)
        monkeypatch.setattr(protocol, "_CORRECTED", corrected)
        got = [repr(no_information_audit(run, w).distance) for w in noinfo_sweep(4)]
        assert got == self.PINNED_CERTIFICATES[fault]

    def test_a_sealing_audit_builds_no_matrix(self, monkeypatch):
        # The audit reads each slot's deviations, decided when its channel
        # was built: a sweep builds neither the model nor the projector,
        # seals nothing and eigensolves nothing, and each distance is 0.0.
        run = self.run_for_audit(width=4, seed=91)

        def refuse(*args):
            raise AssertionError("the audit built a matrix")

        monkeypatch.setattr(qubits, "_seal", refuse)
        monkeypatch.setattr(protocol.ProtocolRun, "withheld_state", refuse)
        sides = eigvalsh_sides(monkeypatch)
        for withheld in noinfo_sweep(run.secret_width):
            assert no_information_audit(run, withheld).distance == 0.0, withheld
        assert not sides and "secret_projector" not in vars(run)

    def test_the_model_applies_each_channel_once(self, monkeypatch):
        # On a run with split records, decoys and taps, a sweep of audits
        # applies no channel through _channel, and the model applies
        # exactly one per slot, on the whole 2^N-square matrix, for every
        # set: on the import-time tables and with a dephasing withheld
        # channel alike.
        width = 4
        rng = RandomSource(92)
        plan = DecoyPlan.random(width, 2, rng)
        run = complete(setup(width, width, width, haar(width, 93), split_records_policy(
            width, {1, 3}), rng, decoy_plan=plan, eve=EveModel("intercept-resend", 1.0)))
        sides = []
        real = protocol._channel

        def spy(rho, position, superop):
            sides.append(rho.shape[0])
            return real(rho, position, superop)

        monkeypatch.setattr(protocol, "_channel", spy)
        dephasing = protocol._swap_channel(np.diag([1.0, 0.0, 0.0, 1.0]))
        sweep = noinfo_sweep(width)
        for withheld_table in (protocol._WITHHELD, dephasing):
            monkeypatch.setattr(protocol, "_WITHHELD", withheld_table)
            sides.clear()
            for withheld in sweep:
                no_information_audit(run, withheld)
            assert sides == []
            for withheld in sweep:
                run.withheld_state(withheld)
            assert sides == [2**width] * width * len(sweep)

    @given(sealed_runs())
    def test_the_difference_is_identity_on_the_withheld_slots(self, case):
        # On the general-path reference and the sealed prediction the
        # difference is I (x) D over the withheld positions, block by block
        # and bit for bit.  The audit's certificate is exactly 0.0 on the
        # import-time tables, and it bounds the dense trace distance.
        run, withheld = case
        positions = sorted(i - 1 for i in withheld)
        reference = general_withheld_state(run, withheld)
        expected = sealed_mixture(run.secret, positions)
        delta = blocks_over(reference - expected, positions)
        for b, c in itertools.product(range(len(delta)), repeat=2):
            np.testing.assert_array_equal(delta[b, c], delta[0, 0] if b == c else 0.0)
        audit = no_information_audit(run, withheld)
        dense = trace_distance(reference, expected)
        assert audit.distance == 0.0
        assert audit.distance + 1e-12 >= dense
        assert audit.passed

    @given(audited_runs(), mutated_tables())
    def test_the_certificate_bounds_the_dense_distance(self, case, tables):
        # Over every set of the sweep and a drawn one, on the import-time
        # tables and under each fault, the certificate is at least the
        # trace distance of the model from the sealed prediction.  It is
        # exactly 0.0 on the import-time tables, and a wrong correction or
        # a withheld channel that is not the depolarizer fails it wherever
        # the faulty channel is a slot's.
        run, drawn = case
        fault, withheld_table, corrected_table = tables
        sets = [*noinfo_sweep(run.secret_width), tuple(sorted(drawn))]
        honest = [run._swap_channels(withheld)[0] for withheld in sets]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "_WITHHELD", withheld_table)
            patch.setattr(protocol, "_CORRECTED", corrected_table)
            for withheld, channels in zip(sets, honest):
                audit = no_information_audit(run, withheld)
                expected = sealed_mixture(run.secret, [i - 1 for i in withheld])
                dense = trace_distance(run.withheld_state(withheld), expected)
                assert audit.distance >= dense - 1e-12, (fault, withheld)
                if fault == "none":
                    assert audit.distance == 0.0, withheld
                touched = any(
                    now is not before
                    for now, before in zip(run._swap_channels(withheld)[0], channels)
                )
                if touched and fault != "noise":
                    assert audit.distance > AUDIT_TOLERANCE, (fault, withheld)

