"""Register-level tests: allocation, gates, measurement, density metrics."""

import bisect
import contextlib
import copy
import itertools
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from cqss import harness, protocol, qubits
from cqss.errors import (
    CapacityError,
    DimensionMismatch,
    InternalInconsistency,
    NotNormalized,
    UnknownQubit,
)
from cqss.qubits import (
    CORRECTION_FOR_OUTCOME,
    MAX_ARRAY_QUBITS,
    NORM_ATOL,
    PROB_FLOOR,
    BellKind,
    DensityMatrix,
    Pauli,
    QuantumRegister,
    RandomSource,
    born_cdf,
    born_draw,
    born_sample,
    fidelity,
    pure_density,
    sealed_mixture,
    trace_distance,
)
from cqss.scenario import load_scenario

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(width, seed):
    rng = RandomSource(seed)
    vec = rng.complex_normals(2**width)
    return vec / np.linalg.norm(vec)


def live_blocks(reg):
    """The register's live blocks, read from its qubit map, in the order of
    each block's earliest live qubit."""
    return list(dict.fromkeys(reg._block_of.values()))


# -- allocation ---------------------------------------------------------------


class TestAllocation:
    def test_alloc_zero(self):
        reg = QuantumRegister()
        reg.alloc_qubit(0)
        np.testing.assert_allclose(reg.state_vector(), [1, 0])

    @pytest.mark.parametrize("one", [1, True, np.int64(1)])
    def test_alloc_one(self, one):
        # The value is an index: True is 1, not a mask over the amplitudes.
        reg = QuantumRegister()
        reg.alloc_qubit(one)
        assert reg.state_vector().tobytes() == np.array([0, 1], dtype=complex).tobytes()

    def test_alloc_appends_least_significant(self):
        reg = QuantumRegister()
        reg.alloc_qubit(0)
        reg.alloc_qubit(0)
        np.testing.assert_allclose(reg.state_vector(), [1, 0, 0, 0])

    def test_qubit_ids_never_reused(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        rng = RandomSource(3)
        reg.measure_single(q, "Z", rng)
        q2 = reg.alloc_qubit(1)
        assert q2 != q
        assert reg.live_qubits() == (q2,)

    def test_capacity_cap(self):
        # The cap bounds arrays, not live qubits: blocks of one qubit each
        # are fine, multiplying them all out is not.
        reg = QuantumRegister()
        for _ in range(MAX_ARRAY_QUBITS + 1):
            reg.alloc_qubit(0)
        with pytest.raises(CapacityError):
            reg.state_vector()

    def test_bell_pair_phi_minus_amplitudes(self):
        reg = QuantumRegister()
        reg.alloc_bell_pair(BellKind.PHI_MINUS)
        np.testing.assert_allclose(
            reg.state_vector(), [0, INV_SQRT2, -INV_SQRT2, 0], atol=1e-15
        )

    def test_bell_pair_varphi_plus_amplitudes(self):
        reg = QuantumRegister()
        reg.alloc_bell_pair(BellKind.VARPHI_PLUS)
        np.testing.assert_allclose(
            reg.state_vector(), [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15
        )

    @pytest.mark.parametrize("kind", list(BellKind))
    def test_bell_pair_halves_maximally_mixed(self, kind):
        reg = QuantumRegister()
        qa, qb = reg.alloc_bell_pair(kind)
        for q in (qa, qb):
            rho = reg.reduced_density([q])
            assert trace_distance(rho.entries, np.eye(2) / 2) < 1e-12


# -- Pauli operators -----------------------------------------------------------


class TestMemoryRule:
    def test_bell_measurement_across_oversized_blocks(self):
        # Measuring across a 13-qubit and a 14-qubit block would leave a
        # 25-qubit residual.
        reg = QuantumRegister()
        a = reg.alloc_state(random_state(13, 1))
        b = reg.alloc_state(random_state(14, 2))
        before = [(list(blk.qubits), blk.amps.copy()) for blk in live_blocks(reg)]
        with pytest.raises(CapacityError, match="25 qubits"):
            reg.bell_measure(a[0], b[0], RandomSource(3))
        # 25 live qubits cannot be multiplied out either, so compare blocks.
        after = live_blocks(reg)
        assert [qubits for qubits, _ in before] == [blk.qubits for blk in after]
        for (_, amps), blk in zip(before, after):
            np.testing.assert_array_equal(amps, blk.amps)
        assert reg.num_qubits == 27 and reg.peak_block_qubits == 14

    @pytest.mark.parametrize("amplitude", [2**-12.5, 0.0], ids=["normalized", "zero"])
    def test_oversized_state_refused_before_it_is_copied(self, amplitude):
        # A 25-qubit read-only view costs nothing to make; the cap is
        # checked on its length alone, so neither the copy (512 MB) nor
        # the norm is computed, and a zero vector is over the cap too.
        view = np.broadcast_to(np.complex128(amplitude), (2**25,))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="25 qubits"):
                QuantumRegister().alloc_state(view)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_density_matrices_over_13_qubits(self):
        psi = random_state(13, 4)
        with pytest.raises(CapacityError, match="26 qubits"):
            pure_density(psi)
        reg = QuantumRegister()
        ids = reg.alloc_state(psi)
        with pytest.raises(CapacityError, match="26 qubits"):
            reg.reduced_density(ids)


class TestPaulis:
    def test_x_flips(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        reg.apply_pauli(q, Pauli.X)
        np.testing.assert_allclose(reg.state_vector(), [0, 1])

    def test_z_phases_plus_into_minus(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        reg.project_single(q, "X", 0, remove=False)  # |+x>
        reg.apply_pauli(q, Pauli.Z)
        assert fidelity(reg.state_vector(), [INV_SQRT2, -INV_SQRT2]) > 1 - 1e-12

    def test_identity_is_noop(self):
        vec = random_state(2, 5)
        reg = QuantumRegister()
        ids = reg.alloc_state(vec)
        reg.apply_pauli(ids[0], Pauli.I)
        np.testing.assert_allclose(reg.state_vector(), vec)

    def test_zx_order_is_x_then_z(self):
        # on |0>: X gives |1>, then Z gives -|1>
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        reg.apply_pauli(q, Pauli.ZX)
        np.testing.assert_allclose(reg.state_vector(), [0, -1])

    @pytest.mark.parametrize("op", list(Pauli))
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_slicing_matches_matrix_action(self, op, position):
        vec = random_state(3, 11 + position)
        reg = QuantumRegister()
        ids = reg.alloc_state(vec)
        reg.apply_pauli(ids[position], op)
        tensor = np.moveaxis(vec.reshape(2, 2, 2), position, 0)
        expected = np.moveaxis(
            np.einsum("ab,b...->a...", op.matrix, tensor), 0, position
        ).reshape(-1)
        np.testing.assert_allclose(reg.state_vector(), expected, atol=1e-14)

    def test_unknown_qubit_rejected(self):
        reg = QuantumRegister()
        with pytest.raises(UnknownQubit):
            reg.apply_pauli(99, Pauli.X)

    @pytest.mark.parametrize("op", ["Z", "ZX", None, 0, Pauli.Z.matrix])
    def test_non_pauli_rejected(self, op):
        reg = QuantumRegister()
        (q,) = reg.alloc_state([0.6, 0.8])
        with pytest.raises(ValueError, match="not a Pauli"):
            reg.apply_pauli(q, op)
        np.testing.assert_array_equal(reg.state_vector(), [0.6, 0.8])


class TestFoldMeasuredOut:
    def test_spends_ids_and_folds_the_scalar(self):
        reg = QuantumRegister()
        (q,) = reg.alloc_state([0.6, 0.8])
        reg.fold_measured_out(4, -1.0 + 0.0j)
        assert reg.live_qubits() == (q,) and reg.peak_block_qubits == 1
        assert reg.alloc_qubit(0) == q + 5
        np.testing.assert_array_equal(reg.state_vector(), [-0.6, 0, -0.8, 0])

    def test_negative_count_rejected(self):
        reg = QuantumRegister()
        with pytest.raises(ValueError, match="count"):
            reg.fold_measured_out(-1, 1.0 + 0.0j)
        assert reg.alloc_qubit(0) == 0


# -- bit encoding -----------------------------------------------------------------


class TestBellBits:
    def test_assignments(self):
        assert BellKind.PHI_MINUS.bits == (0, 0)
        assert BellKind.PHI_PLUS.bits == (0, 1)
        assert BellKind.VARPHI_MINUS.bits == (1, 0)
        assert BellKind.VARPHI_PLUS.bits == (1, 1)

    def test_bijection(self):
        for kind in BellKind:
            x, y = kind.bits
            assert qubits._BELL_KINDS[(x << 1) | y] is kind

    def test_identity_hash_keeps_every_member(self):
        # A kind hashes by identity and nothing else changes: the same four
        # members and values, pickle and deepcopy give the member back, and
        # the swap and correction tables look up by member, a copied one too.
        assert BellKind.__hash__ is object.__hash__
        assert [(k.name, k.value) for k in BellKind] == [
            ("PHI_MINUS", 0), ("PHI_PLUS", 1), ("VARPHI_MINUS", 2), ("VARPHI_PLUS", 3)]
        for kind in BellKind:
            assert hash(kind) == object.__hash__(kind)
            for copied in (pickle.loads(pickle.dumps(kind)), copy.deepcopy(kind)):
                assert copied is kind
                assert protocol._CORRECTED[copied] is protocol._CORRECTED[kind]
                assert CORRECTION_FOR_OUTCOME[copied] is CORRECTION_FOR_OUTCOME[kind]
        assert set(protocol._CORRECTED) == set(CORRECTION_FOR_OUTCOME) == set(BellKind)


# -- Bell measurement ---------------------------------------------------------------


class TestBellMeasurement:
    def test_eigenstate_deterministic(self):
        for kind in BellKind:
            reg = QuantumRegister()
            qa, qb = reg.alloc_bell_pair(kind)
            probs = reg.bell_probabilities(qa, qb)
            expected = np.zeros(4)
            expected[kind.value] = 1.0
            np.testing.assert_allclose(probs, expected, atol=1e-12)
            assert reg.bell_measure(qa, qb, RandomSource(0)) is kind
            assert reg.num_qubits == 0

    def test_swap_branches_uniform(self):
        # measuring (source, half-of-singlet) gives each outcome exactly 1/4,
        # whatever the source state
        psi = random_state(1, 21)
        reg = QuantumRegister()
        (src,) = reg.alloc_state(psi)
        mu, _ = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        np.testing.assert_allclose(reg.bell_probabilities(src, mu), [0.25] * 4,
                                   atol=1e-12)

    def test_probabilities_sum_to_one(self):
        for seed in range(6):
            vec = random_state(3, 100 + seed)
            reg = QuantumRegister()
            ids = reg.alloc_state(vec)
            total = reg.bell_probabilities(ids[0], ids[2]).sum()
            assert abs(total - 1.0) < 1e-12

    def test_paired_singlets_identical_outcomes(self):
        # two singlets measured crosswise collapse to the same Bell state on
        # both sides, uniformly over the four kinds
        rng = RandomSource(2024)
        counts = {kind: 0 for kind in BellKind}
        for _ in range(400):
            reg = QuantumRegister()
            a1, b1 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            a2, b2 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            k_dealer = reg.bell_measure(a1, a2, rng)
            k_remote = reg.bell_measure(b1, b2, rng)
            assert k_remote is k_dealer
            counts[k_dealer] += 1
        # 4-sigma binomial band around 100
        for kind, count in counts.items():
            assert abs(count - 100) < 4 * np.sqrt(400 * 0.25 * 0.75), (kind, counts)

    def test_born_statistics_quarter(self):
        trials = 10_000
        rng = RandomSource(515151)
        psi = random_state(1, 8)
        counts = np.zeros(4)
        for _ in range(trials):
            reg = QuantumRegister()
            (src,) = reg.alloc_state(psi)
            mu, _ = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            counts[reg.bell_measure(src, mu, rng).value] += 1
        sigma = np.sqrt(0.25 * 0.75 / trials)
        freq = counts / trials
        assert np.all(np.abs(freq - 0.25) < 4 * sigma), freq

    def test_same_qubit_twice_rejected(self):
        reg = QuantumRegister()
        qa, _ = reg.alloc_bell_pair(BellKind.PHI_PLUS)
        with pytest.raises(ValueError):
            reg.bell_measure(qa, qa, RandomSource(0))

    def test_zero_probability_branch_rejected(self):
        reg = QuantumRegister()
        qa, qb = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        with pytest.raises(InternalInconsistency):
            reg.project_bell(qa, qb, BellKind.VARPHI_PLUS)


# -- teleportation identity and correction table ---------------------------------------


class TestSwapCorrection:
    def test_identity_for_all_branches(self):
        for seed in range(10):
            psi = random_state(1, 300 + seed)
            for kind in BellKind:
                reg = QuantumRegister()
                (src,) = reg.alloc_state(psi)
                mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
                prob = reg.project_bell(src, mu, kind)
                assert abs(prob - 0.25) < 1e-12
                reg.apply_pauli(nu, CORRECTION_FOR_OUTCOME[kind])
                assert fidelity(reg.state_vector(), psi) >= 1 - 1e-10

    def test_residuals_match_closed_form(self):
        # residuals before correction, for source a|0>F + b|1>F' over 3 qubits
        psi = random_state(3, 77)
        a0 = psi[:4]  # a|F>
        a1 = psi[4:]  # b|F'>
        closed_form = {
            BellKind.PHI_MINUS: np.concatenate([a0, a1]),
            BellKind.PHI_PLUS: np.concatenate([a0, -a1]),
            BellKind.VARPHI_MINUS: np.concatenate([a1, a0]),
            BellKind.VARPHI_PLUS: np.concatenate([-a1, a0]),
        }
        for kind, expected in closed_form.items():
            reg = QuantumRegister()
            ids = reg.alloc_state(psi)
            mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            reg.project_bell(ids[0], mu, kind)
            residual = reg.state_vector(order=[nu, ids[1], ids[2]])
            assert fidelity(residual, expected) >= 1 - 1e-10, kind.label

    def test_correction_assignment_is_exact(self):
        # the fixed outcome -> operator rows; any other pairing breaks identity
        assert CORRECTION_FOR_OUTCOME[BellKind.VARPHI_PLUS] is Pauli.ZX
        assert CORRECTION_FOR_OUTCOME[BellKind.VARPHI_MINUS] is Pauli.X
        assert CORRECTION_FOR_OUTCOME[BellKind.PHI_PLUS] is Pauli.Z
        assert CORRECTION_FOR_OUTCOME[BellKind.PHI_MINUS] is Pauli.I
        psi = random_state(1, 9)
        for kind in BellKind:
            for wrong in Pauli:
                if wrong is CORRECTION_FOR_OUTCOME[kind]:
                    continue
                reg = QuantumRegister()
                (src,) = reg.alloc_state(psi)
                mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
                reg.project_bell(src, mu, kind)
                reg.apply_pauli(nu, wrong)
                assert fidelity(reg.state_vector(), psi) < 1 - 1e-3


def check_teleport(width, seed):
    """The closed-form teleport of each qubit of a ``width``-qubit block,
    forced onto each outcome, against the general path: a fresh PHI_MINUS
    pair, then ``project_bell``.  Each twist's sign folds into the phase,
    so the states agree amplitude for amplitude, not only up to a global
    phase."""
    for position, kind in itertools.product(range(width), BellKind):
        reg = QuantumRegister()
        reg.alloc_qubit(1)  # a block before the measured one
        ids = reg.alloc_state(random_state(width, seed))
        reg.alloc_state(random_state(2, seed + 1))  # and one after
        peak = reg.peak_block_qubits
        ref = reg.copy()
        nu, prob = reg.project_teleport(ids[position], kind)
        mu, ref_nu = ref.alloc_bell_pair(BellKind.PHI_MINUS)
        ref_prob = ref.project_bell(ids[position], mu, kind)
        assert nu == ref_nu
        assert prob == 0.25 and abs(prob - ref_prob) <= 1e-12
        assert reg.live_qubits() == ref.live_qubits()
        np.testing.assert_allclose(
            reg.state_vector(), ref.state_vector(), rtol=0, atol=1e-12
        )
        assert reg.alloc_qubit(0) == ref.alloc_qubit(0)  # the same ids spent
        assert reg.peak_block_qubits == peak  # nothing was allocated


class TestClosedFormTeleport:
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_the_general_path(self, width, seed):
        check_teleport(width, seed)

    @given(st.integers(1, 6), st.data(), st.integers(0, 2**32 - 1))
    def test_sampled_is_forced_onto_the_draw(self, width, data, seed):
        position = data.draw(st.integers(0, width - 1), label="position")
        reg = QuantumRegister()
        ids = reg.alloc_state(random_state(width, seed))
        forced = reg.copy()
        rng = RandomSource(seed)
        nu, kind = reg.teleport(ids[position], rng)
        # One draw, from four exact quarters.
        draws = RandomSource(seed)
        assert kind is list(BellKind)[born_sample([0.25] * 4, draws)]
        assert rng.random() == draws.random()
        assert forced.project_teleport(ids[position], kind) == (nu, 0.25)
        assert_same_register(reg, forced)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("field", ["pauli", "sign"])
    def test_a_mutated_twist_table_fails_the_check(self, monkeypatch, k, field):
        table = list(qubits._TWIST)
        z, x, sign = table[k]
        if field == "pauli":
            table[k] = table[(k + 1) % 4][:2] + (sign,)
        else:
            table[k] = (z, x, -sign)
        monkeypatch.setattr(qubits, "_TWIST", tuple(table))
        with pytest.raises(AssertionError):
            check_teleport(2, 5)

    @given(st.integers(1, 4), st.integers(1, 4), st.data(), st.integers(0, 2**32 - 1))
    def test_batches_are_the_one_qubit_calls_in_turn(self, n_a, n_b, data, seed):
        # teleport_all and apply_paulis over qubits of two blocks, some
        # twice, against teleport and apply_pauli one by one: the same
        # outcomes, ids, frames and phase, bit for bit.
        reg, ids = two_blocks(n_a, n_b, seed)
        one = reg.copy()
        picks = data.draw(st.lists(st.sampled_from(ids), max_size=8), label="picks")
        ops = data.draw(
            st.lists(st.sampled_from(list(Pauli)), min_size=len(picks), max_size=len(picks))
        )
        reg.apply_paulis(picks, ops)
        for q, op in zip(picks, ops):
            one.apply_pauli(q, op)
        assert_same_register(reg.copy(), one.copy())
        rng, draws = RandomSource(seed), RandomSource(seed)
        moved = reg.teleport_all(ids, draws.uniforms(len(ids)))
        assert moved == [one.teleport(q, rng) for q in ids]
        assert rng.random() == draws.random()
        assert reg.alloc_qubit(0) == one.alloc_qubit(0)
        assert_same_register(reg, one)

    def test_batches_of_unequal_lengths_raise(self):
        reg = QuantumRegister()
        ids = reg.alloc_state(random_state(2, 3))
        with pytest.raises(ValueError):
            reg.apply_paulis(ids, [Pauli.X])
        with pytest.raises(ValueError):
            reg.teleport_all(ids[:1], [0.1, 0.2])

    def test_unknown_qubit_spends_nothing(self):
        reg = QuantumRegister()
        reg.alloc_qubit(0)
        rng = RandomSource(1)
        with pytest.raises(UnknownQubit):
            reg.teleport(7, rng)
        with pytest.raises(UnknownQubit):
            reg.project_teleport(7, BellKind.PHI_PLUS)
        assert reg.alloc_qubit(0) == 1
        assert rng.random() == RandomSource(1).random()


def general_tapped_teleport(reg, q, basis, rng):
    """A tapped swap on the general path, kept as the reference for
    ``tapped_teleport``: a fresh PHI_MINUS link, the eavesdropper's
    ``measure_single`` of its far half, then the dealer's ``bell_measure``."""
    mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
    bit = reg.measure_single(nu, basis, rng, remove=False)
    return nu, bit, reg.bell_measure(q, mu, rng)


def assert_same_blocks(got, want):
    """The same live qubits in the same blocks, in the same order, the same
    ids spent, and the same phase and state vector, byte for byte."""
    assert got.live_qubits() == want.live_qubits()
    assert [b.qubits for b in live_blocks(got)] == [b.qubits for b in live_blocks(want)]
    assert got._next_id == want._next_id
    assert np.complex128(got._phase).tobytes() == np.complex128(want._phase).tobytes()
    assert got.state_vector().tobytes() == want.state_vector().tobytes()


def check_tapped_teleport(width, seed, position, frame):
    """The closed-form tapped teleport of qubit ``position`` of a
    ``width``-qubit block with the Paulis ``frame`` pending, against the
    general path: forced onto each basis, bit and outcome, and sampled in
    each basis."""
    reg = QuantumRegister()
    reg.alloc_qubit(1)  # a block before the measured one
    ids = reg.alloc_state(random_state(width, seed))
    reg.alloc_state(random_state(2, seed + 1))  # and one after
    for p, op in frame:
        reg.apply_pauli(ids[p % width], op)
    q = ids[position]
    for basis, bit, kind in itertools.product("ZX", (0, 1), BellKind):
        got, want = reg.copy(), reg.copy()
        nu, eve_prob, prob = got.project_tapped_teleport(q, basis, bit, kind)
        mu, want_nu = want.alloc_bell_pair(BellKind.PHI_MINUS)
        assert nu == want_nu
        assert eve_prob == want.project_single(want_nu, basis, bit, remove=False)
        assert prob == want.project_bell(q, mu, kind)
        assert_same_blocks(got, want)
        assert got.peak_block_qubits == reg.peak_block_qubits  # no link built
    for basis in "ZX":
        got, want = reg.copy(), reg.copy()
        rng, want_rng = RandomSource(seed), RandomSource(seed)
        drawn = got.tapped_teleport(q, basis, rng)
        assert drawn == general_tapped_teleport(want, q, basis, want_rng)
        assert rng.random() == want_rng.random()
        assert_same_blocks(got, want)


_PENDING = st.lists(st.tuples(st.integers(0, 5), st.sampled_from(list(Pauli))), max_size=4)

# Fixed cases on which a wrong tap table must show.
_TAP_CASES = [(w, seed, seed % w, [(seed, Pauli.ZX)]) for w in (1, 3) for seed in range(6)]


def mutated_tap(name):
    """``qubits._TAP`` with one deliberate fault."""

    def per_basis(mutate):
        return {basis: mutate(*table) for basis, table in qubits._TAP.items()}

    if name == "swapped-bases":
        return {"Z": qubits._TAP["X"], "X": qubits._TAP["Z"]}
    if name == "swapped-bits":
        return per_basis(lambda cdf, links: (cdf, links[::-1]))
    if name == "negated-rows":
        return per_basis(
            lambda cdf, links: (cdf, tuple((p, -rows, g) for p, rows, g in links))
        )
    assert name == "swapped-grams"
    return per_basis(
        lambda cdf, links: (cdf, tuple(
            (p, rows, links[1 - bit][2]) for bit, (p, rows, _) in enumerate(links)
        ))
    )


class TestClosedFormTappedTeleport:
    @given(st.integers(1, 6), st.data(), _PENDING, st.integers(0, 2**32 - 1))
    def test_matches_the_general_path(self, width, data, frame, seed):
        position = data.draw(st.integers(0, width - 1), label="position")
        check_tapped_teleport(width, seed, position, frame)

    @pytest.mark.parametrize(
        "name", ["swapped-bases", "swapped-bits", "negated-rows", "swapped-grams"]
    )
    def test_a_mutated_tap_table_fails_the_check(self, monkeypatch, name):
        monkeypatch.setattr(qubits, "_TAP", mutated_tap(name))
        with pytest.raises(AssertionError):
            for case in _TAP_CASES:
                check_tapped_teleport(*case)

    def test_unknown_qubit_or_basis_spends_nothing(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        rng = RandomSource(1)
        with pytest.raises(UnknownQubit):
            reg.tapped_teleport(7, "Z", rng)
        with pytest.raises(ValueError):
            reg.tapped_teleport(q, "Y", rng)
        with pytest.raises(ValueError):
            reg.project_tapped_teleport(q, "Z", 2, BellKind.PHI_PLUS)
        assert reg.alloc_qubit(0) == 1
        assert rng.random() == RandomSource(1).random()


# -- decoys in closed form ---------------------------------------------------------------

# The decoys: each basis's rows, |0>, |1>, |+> and |->.
DECOY_ROWS = [row for mat in qubits._BASIS_MATRIX.values() for row in mat]


def general_measure_single(reg, q, basis, rng, remove=True):
    """``measure_single`` on the general path, kept as the reference for
    the checks in ``_KNOWN``: the block's components in ``basis``, a draw
    from their squared norms, and the collapse."""
    comps = reg._single_components(q, basis)
    outcome = born_sample((np.abs(comps) ** 2).sum(axis=1), rng)
    reg._collapse_single(q, basis, comps, outcome, remove)
    return outcome


class ScriptedDraws:
    """A stand-in random source that returns ``draws`` in turn and counts
    how many it gave."""

    def __init__(self, *draws):
        self.draws = draws
        self.taken = 0

    def random(self):
        self.taken += 1
        return self.draws[self.taken - 1]


def forcing_draw(cdf, k):
    """A draw at which ``born_draw(cdf, ...)`` picks branch ``k``, which
    must have positive width: the middle of its interval."""
    low = cdf[k - 1] if k else 0.0
    return (low + cdf[k]) / 2 / cdf[-1]


def general_tap_cdfs(reg, q, basis, bit):
    """The running sums that a tapped swap of ``q`` draws its bit and, for
    ``bit``, its Bell outcome from, as the general path computes them."""
    probe = reg.copy()
    mu, nu = probe.alloc_bell_pair(BellKind.PHI_MINUS)
    bit_cdf = born_cdf(probe.single_probabilities(nu, basis))
    probe.project_single(nu, basis, bit, remove=False)
    return bit_cdf, born_cdf(probe.bell_probabilities(q, mu))


def width(cdf, k):
    return cdf[k] - (cdf[k - 1] if k else 0.0)


def decoy_register(row):
    """A register holding decoy ``row`` between a block before it and a
    two-qubit block after it; returns the register and the decoy."""
    reg = QuantumRegister()
    reg.alloc_qubit(1)
    (q,) = reg.alloc_state(DECOY_ROWS[row])
    reg.alloc_state(random_state(2, 9))
    return reg, q


def settle(call):
    """``call()``'s result, or the type and message of the simulation
    error it raised, so that a closed form and its reference compare."""
    try:
        return "ok", call()
    except (InternalInconsistency, UnknownQubit, ValueError) as exc:
        return type(exc), str(exc)


@contextlib.contextmanager
def general_paths_refused():
    """Within, any read of a block's amplitudes for a single or a
    cross-block Bell measurement fails the test."""

    def refuse(*args):
        raise AssertionError("a decoy took the general path")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuantumRegister, "_single_components", refuse)
        patch.setattr(qubits, "_cross_branch", refuse)
        patch.setattr(qubits, "_gram_probabilities", refuse)
        yield


def decoy_cases():
    """Every decoy, tap (none, or Eve's basis, bit and Bell outcome),
    pending frame, check basis and check outcome the general path can
    reach: the branches it draws with positive width."""
    cases = []
    for row, basis, bit in itertools.product(range(4), "ZX", (0, 1)):
        reg, q = decoy_register(row)
        bit_cdf, bell_cdf = general_tap_cdfs(reg, q, basis, bit)
        assert width(bit_cdf, bit) > 0.49
        for k in range(4):
            if width(bell_cdf, k) > 0:
                cases.append((row, (basis, bit, k)))
    cases += [(row, None) for row in range(4)]
    out = []
    for (row, tap), frame, check in itertools.product(
        cases, itertools.product((0, 1), (0, 1)), "ZX"
    ):
        for outcome in (0, 1):
            out.append((row, tap, frame, check, outcome))
    return out


DECOY_CASES = decoy_cases()


def check_decoy(row, tap, frame, check, outcome, seed=0):
    """Decoy ``row``, tapped as ``tap`` names or not, with ``Z^z X^x``
    pending for ``frame = (x, z)``, then measured out in ``check``: the
    closed form, with the general path refused, against the general path,
    forced onto the named branches and then sampled from a seeded source.
    A check outcome that the general path never draws is skipped."""
    reg, q = decoy_register(row)
    got, want = reg.copy(), reg.copy()
    if tap is not None:
        basis, bit, k = tap
        bit_cdf, bell_cdf = general_tap_cdfs(want, q, basis, bit)
        draws = forcing_draw(bit_cdf, bit), forcing_draw(bell_cdf, k)
        got_rng, want_rng = ScriptedDraws(*draws), ScriptedDraws(*draws)
        with general_paths_refused():
            done = settle(lambda: got.tapped_teleport(q, basis, got_rng))
        assert done == settle(lambda: general_tapped_teleport(want, q, basis, want_rng))
        assert done[1][1:] == (bit, BellKind(k))
        assert got_rng.taken == want_rng.taken == 2
        assert_same_blocks(got, want)
        q = done[1][0]
    for op, pending in zip((Pauli.X, Pauli.Z), frame):
        if pending:
            got.apply_pauli(q, op)
            want.apply_pauli(q, op)
    cdf = born_cdf(want.copy().single_probabilities(q, check))
    sources = [(RandomSource(seed), RandomSource(seed))]
    if width(cdf, outcome) > 0:
        r = forcing_draw(cdf, outcome)
        sources.append((ScriptedDraws(r), ScriptedDraws(r)))
    for got_rng, want_rng in sources:
        mine, ref = got.copy(), want.copy()
        with general_paths_refused():
            done = settle(lambda: mine.measure_single(q, check, got_rng))
        assert done == settle(lambda: general_measure_single(ref, q, check, want_rng))
        if isinstance(got_rng, ScriptedDraws):
            assert got_rng.taken == want_rng.taken == 1
        else:
            assert got_rng.random() == want_rng.random()  # the stream moved alike
        assert_same_blocks(mine, ref)
        assert mine.peak_block_qubits == ref.peak_block_qubits
        assert q not in mine.live_qubits()


def measurement(key):
    """Which measurement a ``_KNOWN`` key names: ``"check"`` (a basis),
    ``"tap"`` (a basis and a bit) or ``"pair"`` (two positions)."""
    what = key[3]
    if isinstance(what, str):
        return "check"
    return "tap" if isinstance(what[0], str) else "pair"


def known(kind):
    """The entries of ``_KNOWN`` for measurement ``kind``."""
    return {key: e for key, e in qubits._KNOWN.items() if measurement(key) == kind}


def mutated_known(kind, mutate):
    """``_KNOWN`` with each entry of measurement ``kind`` replaced by
    ``mutate(key, entry)``."""
    return {
        key: mutate(key, entry) if measurement(key) == kind else entry
        for key, entry in qubits._KNOWN.items()
    }


def negated(results, kind):
    return tuple(-r if isinstance(r, kind) else r for r in results)


def mutated_decoy_table(name):
    """``_KNOWN`` with a deliberate fault in its decoy entries."""
    table = qubits._KNOWN
    if name == "swapped-bell-sums":
        return mutated_known("tap", lambda key, entry: (
            table[key[:3] + ((key[3][0], 1 - key[3][1]),)][0], entry[1]
        ))
    if name == "negated-branch":
        return mutated_known(
            "tap", lambda key, entry: (entry[0], negated(entry[1], np.ndarray))
        )
    if name == "swapped-check-sums":
        swap = {"Z": "X", "X": "Z"}
        return mutated_known(
            "check", lambda key, entry: (table[key[:3] + (swap[key[3]],)][0], entry[1])
        )
    assert name == "wrong-scalar"
    return mutated_known(
        "check", lambda key, entry: (entry[0], negated(entry[1], complex))
    )


class TestClosedFormDecoys:
    def test_cases_cover_every_branch(self):
        # 48 tapped branches (of 64 outcomes) and 4 untapped decoys, each
        # under 4 frames, 2 check bases and 2 outcomes.
        taps = {tap for _, tap, *_ in DECOY_CASES if tap is not None}
        assert len({(row, tap) for row, tap, *_ in DECOY_CASES if tap}) == 48
        assert {(b, bit) for b, bit, _ in taps} == set(itertools.product("ZX", (0, 1)))
        assert {k for *_, k in taps} == set(range(4))
        assert len(DECOY_CASES) == 52 * 4 * 2 * 2

    @given(st.sampled_from(DECOY_CASES), st.integers(0, 2**32 - 1))
    def test_matches_the_general_path(self, case, seed):
        check_decoy(*case, seed=seed)

    def test_every_case_matches_the_general_path(self):
        for case in DECOY_CASES:
            check_decoy(*case)

    def test_tables(self):
        # Ten vectors (the four decoys and six more that taps leave) under
        # four frames in two bases; taps only of the four, nothing owed,
        # per basis and bit; and the four Bell pairs.
        checks, taps = known("check"), known("tap")
        assert len(checks) == 10 * 4 * 2
        assert set(taps) == {
            (row.tobytes(), 0, 0, (basis, bit))
            for row in DECOY_ROWS for basis in "ZX" for bit in (0, 1)
        }
        assert len(known("pair")) == 4 and len(qubits._KNOWN) == 16 + 80 + 4
        branches = [b for _, bs in taps.values() for b in bs]
        kept = [b for b in branches if isinstance(b, np.ndarray)]
        assert len(kept) == 48
        stored = [r for _, results in qubits._KNOWN.values() for r in results]
        arrays = [r for r in stored if isinstance(r, np.ndarray)]
        assert len(arrays) == 48 and all(not b.flags.writeable for b in arrays)
        vectors = {b.tobytes() for b in kept} | {r.tobytes() for r in DECOY_ROWS}
        assert {key[0] for key in checks} == vectors

    @pytest.mark.parametrize(
        "name",
        ["swapped-bell-sums", "negated-branch", "swapped-check-sums", "wrong-scalar"],
    )
    def test_a_mutated_table_fails_the_check(self, monkeypatch, name):
        monkeypatch.setattr(qubits, "_KNOWN", mutated_decoy_table(name))
        with pytest.raises(AssertionError):
            for case in DECOY_CASES:
                check_decoy(*case)

    def test_blocks_outside_the_tables_take_the_general_path(self, monkeypatch):
        calls = []
        real_components = QuantumRegister._single_components
        real_cross = qubits._cross_branch

        def components(reg, q, basis):
            calls.append("single")
            return real_components(reg, q, basis)

        def cross(ma, mb, k):
            calls.append("cross")
            return real_cross(ma, mb, k)

        monkeypatch.setattr(QuantumRegister, "_single_components", components)
        monkeypatch.setattr(qubits, "_cross_branch", cross)

        def run(vector, step, frame=()):
            reg = QuantumRegister()
            ids = reg.alloc_state(vector)
            for op in frame:
                reg.apply_pauli(ids[0], op)
            calls.clear()
            step(reg, ids[0], RandomSource(3))
            return list(calls)

        def measure(reg, q, rng):
            reg.measure_single(q, "X", rng)

        def keep(reg, q, rng):
            reg.measure_single(q, "X", rng, remove=False)

        def tap(reg, q, rng):
            reg.tapped_teleport(q, "Z", rng)

        haar = random_state(1, 4)
        pair = np.kron(DECOY_ROWS[0], DECOY_ROWS[2])
        plus = DECOY_ROWS[2]
        # A Haar one-qubit secret, a two-qubit block of decoy rows, a kept
        # measurement, and a tap with a frame pending, all general.
        assert run(haar, measure) == ["single"]
        assert run(haar, tap) == ["cross"]
        assert run(pair, measure) == ["single"]
        assert run(pair, tap) == ["cross"]
        assert run(plus, keep) == ["single"]
        assert run(plus, tap, [Pauli.X]) == ["cross"]
        # The decoys themselves read the tables.
        assert run(plus, measure) == run(plus, tap) == []
        assert run(plus, measure, [Pauli.ZX]) == []

    @pytest.mark.parametrize("row", range(4))
    def test_unknown_qubit_or_basis_spends_nothing(self, row):
        reg, q = decoy_register(row)
        rng = RandomSource(1)
        before = reg.copy()
        for call in (
            lambda: reg.measure_single(99, "Z", rng),
            lambda: reg.tapped_teleport(99, "Z", rng),
        ):
            with pytest.raises(UnknownQubit):
                call()
        for call in (
            lambda: reg.measure_single(q, "Y", rng),
            lambda: reg.tapped_teleport(q, "Y", rng),
        ):
            with pytest.raises(ValueError):
                call()
        assert rng.random() == RandomSource(1).random()
        assert_same_blocks(reg, before)

    @pytest.mark.parametrize("frame", [(), (Pauli.X,), (Pauli.ZX,)])
    def test_a_drawn_zero_branch_raises_as_the_general_path_does(
        self, monkeypatch, frame
    ):
        # born_draw never picks a branch of zero width, so force it: each
        # draw returns the next scripted index, on both paths.
        script = []
        monkeypatch.setattr(qubits, "born_draw", lambda cdf, rng: script.pop(0))
        seen = 0
        for row, basis in itertools.product(range(4), "ZX"):
            # Check: the outcome of zero width, if there is one.
            results = []
            for measure in (QuantumRegister.measure_single, general_measure_single):
                reg, q = decoy_register(row)
                for op in frame:
                    reg.apply_pauli(q, op)
                cdf = born_cdf(reg.copy().single_probabilities(q, basis))
                script[:] = [min(range(2), key=lambda k: width(cdf, k))]
                results.append((settle(lambda: measure(reg, q, basis, None)), reg))
            (got, mine), (want, ref) = results
            assert got == want
            # The general path flushed the frame before it raised.
            assert [b.xmask for b in live_blocks(mine)] == [
                b.xmask for b in live_blocks(ref)
            ]
            assert_same_blocks(mine, ref)
            seen += got[0] is InternalInconsistency
            # Tap: every Bell outcome of each bit.
            for bit, k in itertools.product((0, 1), range(4)):
                results = []
                for tap in (QuantumRegister.tapped_teleport, general_tapped_teleport):
                    reg, q = decoy_register(row)
                    script[:] = [bit, k]
                    results.append((settle(lambda: tap(reg, q, basis, None)), reg))
                (got, mine), (want, ref) = results
                assert got == want
                if got[0] is InternalInconsistency:
                    seen += 1
                    assert got[1].startswith("projected onto a zero-probability branch")
                    # By then the link-based reference has built its link;
                    # the register's own general path raises before it
                    # spends an id, and so does the table.
                    with monkeypatch.context() as patch:
                        patch.setattr(qubits, "_KNOWN", {})
                        ref, q = decoy_register(row)
                        script[:] = [bit, k]
                        assert settle(lambda: ref.tapped_teleport(q, basis, None)) == got
                assert_same_blocks(mine, ref)
        assert seen == 4 + 16  # a decoy in its own basis; 16 taps


# -- split-record pairs in closed form ------------------------------------------------


def general_bell_measure(reg, qa, qb, rng):
    """``bell_measure`` on the general path, kept as the reference for
    the pairs in ``_KNOWN``: the pair's Bell components, a draw from their
    squared norms, and the collapse."""
    operands = reg._bell_operands(qa, qb)
    k = born_sample(qubits._bell_probabilities(*operands), rng)
    reg._collapse_bell(qa, qb, operands, k)
    return BellKind(k)


def pair_register(kind, frame, swapped):
    """A register holding a Bell pair of ``kind`` between a block before it
    and a two-qubit block after it, with ``X`` owed on the positions set in
    ``frame & 3`` and ``Z`` on those set in ``frame >> 2``; returns the
    register and the pair, in position order or ``swapped``."""
    reg = QuantumRegister()
    reg.alloc_qubit(1)
    pair = reg.alloc_bell_pair(kind)
    reg.alloc_state(random_state(2, 9))
    for p, q in enumerate(pair):
        for op, bit in ((Pauli.X, frame >> p & 1), (Pauli.Z, frame >> (2 + p) & 1)):
            if bit:
                reg.apply_pauli(q, op)
    return (reg, *pair[::-1]) if swapped else (reg, *pair)


@contextlib.contextmanager
def counted_general_bell_paths():
    """Within, yields the list that each general Bell measurement's read of
    a block appends to."""
    calls = []
    real = QuantumRegister._bell_operands

    def operands(reg, qa, qb):
        calls.append((qa, qb))
        return real(reg, qa, qb)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuantumRegister, "_bell_operands", operands)
        yield calls


# Every Bell vector under each of the 16 frames over its two positions, in
# position order and swapped; only nothing owed in order is a table key.
PAIR_CASES = list(itertools.product(BellKind, range(16), (False, True)))


def check_pair(kind, frame, swapped, outcome, seed=0):
    """Bell-measuring the pair of :func:`pair_register`: ``bell_measure``
    against the general path, sampled from a seeded source and forced onto
    ``outcome`` where the general path can draw it.  Table keys take no
    general path, and every other pair takes it once."""
    reg, qa, qb = pair_register(kind, frame, swapped)
    cdf = born_cdf(reg.copy().bell_probabilities(qa, qb))
    sources = [(RandomSource(seed), RandomSource(seed))]
    if width(cdf, outcome) > 0:
        r = forcing_draw(cdf, outcome)
        sources.append((ScriptedDraws(r), ScriptedDraws(r)))
    for got_rng, want_rng in sources:
        mine, ref = reg.copy(), reg.copy()
        with counted_general_bell_paths() as calls:
            done = settle(lambda: mine.bell_measure(qa, qb, got_rng))
        assert len(calls) == (frame != 0 or swapped)
        assert done == settle(lambda: general_bell_measure(ref, qa, qb, want_rng))
        if isinstance(got_rng, ScriptedDraws):
            assert got_rng.taken == want_rng.taken == 1
            assert done == ("ok", BellKind(outcome))
        else:
            assert got_rng.random() == want_rng.random()  # the stream moved alike
        assert_same_blocks(mine, ref)
        assert mine.peak_block_qubits == ref.peak_block_qubits
        assert {qa, qb}.isdisjoint(mine.live_qubits())


def mutated_pair_table(name):
    """``_KNOWN`` with a deliberate fault in its pair entries."""
    if name == "wrong-scalar":
        return mutated_known(
            "pair", lambda key, entry: (entry[0], negated(entry[1], complex))
        )
    assert name == "shifted-sums"
    keys = list(known("pair"))
    previous = dict(zip(keys, keys[-1:] + keys[:-1]))
    return mutated_known(
        "pair", lambda key, entry: (qubits._KNOWN[previous[key]][0], entry[1])
    )


class TestClosedFormPairs:
    def test_table(self):
        # The four Bell vectors with nothing owed, at positions (0, 1).
        assert set(known("pair")) == {
            (kind.vector.tobytes(), 0, 0, (0, 1)) for kind in BellKind
        }

    @given(st.sampled_from(PAIR_CASES), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_matches_the_general_path(self, case, outcome, seed):
        check_pair(*case, outcome, seed=seed)

    def test_every_case_matches_the_general_path(self):
        for case, outcome in itertools.product(PAIR_CASES, range(4)):
            check_pair(*case, outcome)

    @pytest.mark.parametrize("name", ["wrong-scalar", "shifted-sums"])
    def test_a_mutated_table_fails_the_check(self, monkeypatch, name):
        monkeypatch.setattr(qubits, "_KNOWN", mutated_pair_table(name))
        with pytest.raises(AssertionError):
            for case, outcome in itertools.product(PAIR_CASES, range(4)):
                check_pair(*case, outcome)

    def test_a_drawn_zero_branch_raises_as_the_general_path_does(self, monkeypatch):
        # born_draw never picks a branch of zero width, so force it: each
        # draw returns the next scripted index, on both paths.
        script = []
        monkeypatch.setattr(qubits, "born_draw", lambda cdf, rng: script.pop(0))
        for kind, k in itertools.product(BellKind, range(4)):
            results = []
            for measure in (QuantumRegister.bell_measure, general_bell_measure):
                reg, qa, qb = pair_register(kind, 0, False)
                script[:] = [k]
                results.append((settle(lambda: measure(reg, qa, qb, None)), reg))
                assert not script
            (got, mine), (want, ref) = results
            assert got == want
            if k == kind.value:
                assert got == ("ok", kind)
            else:
                assert got[0] is InternalInconsistency
                assert got[1].startswith("projected onto a zero-probability branch")
                assert {qa, qb} <= set(mine.live_qubits())
            assert_same_blocks(mine, ref)

    def test_the_same_errors_in_the_same_order(self):
        reg, qa, qb = pair_register(BellKind.PHI_PLUS, 0, False)
        dead = 99
        for pair in [(qa, qa), (qb, qb), (dead, dead), (dead, qb), (qa, dead),
                     (dead, dead + 1)]:
            rng, want_rng = RandomSource(1), RandomSource(1)
            mine, ref = reg.copy(), reg.copy()
            done = settle(lambda: mine.bell_measure(*pair, rng))
            assert done == settle(lambda: general_bell_measure(ref, *pair, want_rng))
            assert done[0] is (ValueError if pair[0] == pair[1] else UnknownQubit)
            assert rng.random() == RandomSource(1).random()
            assert_same_blocks(mine, reg)

    def test_split_records_take_no_general_bell_path(self, monkeypatch):
        scenarios = Path(__file__).resolve().parent.parent / "scenarios"
        split = [
            cfg for cfg in map(load_scenario, sorted(scenarios.glob("*.scn")))
            if any(len(h) == 2 for h in cfg.record_to_controller.values())
        ]
        assert split
        measured = []
        real = QuantumRegister.bell_measure

        def bell_measure(reg, qa, qb, rng):
            measured.append(qa)
            return real(reg, qa, qb, rng)

        monkeypatch.setattr(QuantumRegister, "bell_measure", bell_measure)
        with counted_general_bell_paths() as general:
            for cfg in split:
                for i in range(cfg.trials):
                    assert harness.run_trial(cfg, i).outcome == "recovered"
        assert measured and not general


# -- single-qubit measurement --------------------------------------------------------


class TestSingleMeasurement:
    def test_z_eigenstate(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        np.testing.assert_allclose(reg.single_probabilities(q, "Z"), [1, 0],
                                   atol=1e-15)
        assert reg.measure_single(q, "Z", RandomSource(1)) == 0
        assert reg.num_qubits == 0

    def test_x_eigenstate(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        reg.project_single(q, "X", 0, remove=False)
        np.testing.assert_allclose(reg.single_probabilities(q, "X"), [1, 0],
                                   atol=1e-15)
        assert reg.measure_single(q, "X", RandomSource(1)) == 0

    def test_complementary_basis_uniform(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        np.testing.assert_allclose(reg.single_probabilities(q, "X"), [0.5, 0.5],
                                   atol=1e-15)

    def test_keep_leaves_collapsed_qubit(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        prob = reg.project_single(q, "X", 1, remove=False)
        assert abs(prob - 0.5) < 1e-12
        assert reg.live_qubits() == (q,)
        assert fidelity(reg.state_vector(), [INV_SQRT2, -INV_SQRT2]) > 1 - 1e-12

    def test_keep_preserves_other_entanglement(self):
        reg = QuantumRegister()
        qa, qb = reg.alloc_bell_pair(BellKind.VARPHI_PLUS)
        extra = reg.alloc_qubit(1)
        reg.project_single(extra, "Z", 1, remove=False)
        rho = reg.reduced_density([qa, qb])
        assert trace_distance(rho.entries, pure_density(BellKind.VARPHI_PLUS.vector)) < 1e-12

    def test_bad_basis_rejected(self):
        reg = QuantumRegister()
        q = reg.alloc_qubit(0)
        with pytest.raises(ValueError):
            reg.measure_single(q, "Y", RandomSource(0))


# -- reduced density / metrics --------------------------------------------------------


class TestDensity:
    def test_full_subset_is_projector(self):
        vec = random_state(2, 31)
        reg = QuantumRegister()
        ids = reg.alloc_state(vec)
        rho = reg.reduced_density(list(ids))
        rho.validate()
        assert trace_distance(rho.entries, pure_density(vec)) < 1e-12

    def test_partial_trace_diagonal(self):
        a, b = 0.6, 0.8j
        vec = np.zeros(4, dtype=complex)
        vec[0b00] = a
        vec[0b11] = b
        reg = QuantumRegister()
        ids = reg.alloc_state(vec)
        rho = reg.reduced_density([ids[0]])
        np.testing.assert_allclose(rho.entries, np.diag([0.36, 0.64]), atol=1e-12)

    def test_matches_loop_partial_trace(self):
        # independent elementwise partial trace over the complement
        vec = random_state(3, 99)
        reg = QuantumRegister()
        ids = reg.alloc_state(vec)
        rho = reg.reduced_density([ids[0], ids[2]])

        expected = np.zeros((4, 4), dtype=complex)
        for i in range(8):
            for j in range(8):
                # keep bits 0 and 2 (msb order), trace bit 1
                ki = ((i >> 2) & 1) << 1 | (i & 1)
                kj = ((j >> 2) & 1) << 1 | (j & 1)
                if ((i >> 1) & 1) == ((j >> 1) & 1):
                    expected[ki, kj] += vec[i] * np.conj(vec[j])
        np.testing.assert_allclose(rho.entries, expected, atol=1e-12)

    def test_subset_validation(self):
        reg = QuantumRegister()
        qa, qb = reg.alloc_bell_pair(BellKind.PHI_PLUS)
        with pytest.raises(ValueError):
            reg.reduced_density([])
        with pytest.raises(ValueError):
            reg.reduced_density([qa, qa])
        with pytest.raises(UnknownQubit):
            reg.reduced_density([qa, 555])

    def test_fidelity_basics(self):
        psi = random_state(2, 1)
        assert fidelity(psi, psi) == pytest.approx(1.0)
        assert fidelity([1, 0], [0, 1]) == pytest.approx(0.0)
        with pytest.raises(DimensionMismatch):
            fidelity([1, 0], [1, 0, 0, 0])

    def test_trace_distance_values(self):
        rho = pure_density([1, 0])
        sigma = pure_density([0, 1])
        assert trace_distance(rho, rho) == pytest.approx(0.0)
        assert trace_distance(rho, sigma) == pytest.approx(1.0)
        # eigenvalues of (I/2 - |0><0|) are +-1/2
        assert trace_distance(np.eye(2) / 2, rho) == pytest.approx(0.5)
        with pytest.raises(DimensionMismatch):
            trace_distance(np.eye(2) / 2, np.eye(4) / 4)


# -- withheld-record predictions ----------------------------------------------------------


def replace_with_mixed(rho, position):
    """Reference for one step of ``sealed_mixture``: trace out one qubit and
    put a maximally mixed qubit back in its slot, by kron and moveaxis."""
    dim = rho.shape[0]
    n = int(np.log2(dim))
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    rest = np.trace(t, axis1=position, axis2=n + position).reshape(dim // 2, dim // 2)
    full = np.kron(np.eye(2, dtype=complex) / 2.0, rest).reshape((2,) * (2 * n))
    return np.moveaxis(full, (0, n), (position, n + position)).reshape(dim, dim)


def channel_by_product(rho, position, superop):
    """Reference for ``qubits._channel``: every superoperator,
    a scalar one too, as one (4, 4) x (4, 4**(n-1)) matrix product."""
    dim = rho.shape[0]
    left = 2**position
    right = dim // (2 * left)
    t = rho.reshape(left, 2, right, left, 2, right).transpose(1, 4, 0, 2, 3, 5)
    out = (superop @ t.reshape(4, -1)).reshape(t.shape)
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(dim, dim)


def signed_zero_projector(width, seed):
    """A pure projector with exact zeros of both signs: a random state with
    half its amplitudes zero and the rest turned by powers of i."""
    vec = random_state(width, seed)
    vec[1::2] = 0.0
    vec *= np.array([1, -1, 1j, -1j])[np.arange(vec.size) % 4]
    return -pure_density(vec / np.linalg.norm(vec))


def six_axis_seal(rho, positions):
    """Reference for ``_seal`` as it was, in place, on the (L, 2, R, L, 2, R)
    view, with the halved sum as its own temporary; writes ``rho``."""
    dim = rho.shape[0]
    for p in positions:
        left = 2**p
        right = dim // (2 * left)
        t = rho.reshape(left, 2, right, left, 2, right)
        half = 0.5 * (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :])
        t[:, 0, :, :, 1, :] = 0.0
        t[:, 1, :, :, 0, :] = 0.0
        t[:, 0, :, :, 0, :] = half
        t[:, 1, :, :, 1, :] = half
    return rho


class TestWithheldPrediction:
    def test_product_state(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0  # |000>
        got = sealed_mixture(vec, [0])
        rest = np.zeros((4, 4), dtype=complex)
        rest[0, 0] = 1.0
        np.testing.assert_allclose(got, np.kron(np.eye(2) / 2, rest),
                                   atol=1e-14)

    def test_structure(self):
        vec = random_state(3, 55)
        got = DensityMatrix(sealed_mixture(vec, [1]), (0, 1, 2))
        got.validate()
        tensor = got.entries.reshape(2, 2, 2, 2, 2, 2)
        replaced = np.trace(
            np.trace(tensor, axis1=0, axis2=3), axis1=1, axis2=3
        )  # reduce to slot 1
        np.testing.assert_allclose(replaced, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_equals_branch_average(self, seed):
        # oracle: build the four uncorrected swap residuals explicitly and
        # average their projectors
        psi = random_state(3, seed)
        a0 = psi[:4]
        a1 = psi[4:]
        branches = [
            np.concatenate([a0, a1]),
            np.concatenate([a0, -a1]),
            np.concatenate([a1, a0]),
            np.concatenate([-a1, a0]),
        ]
        oracle = sum(pure_density(b) for b in branches) / 4
        got = sealed_mixture(psi, [0])
        assert trace_distance(got, oracle) <= 1e-10

    def test_sealed_mixture_all_positions(self):
        psi = random_state(3, 4)
        got = sealed_mixture(psi, [0, 1, 2])
        np.testing.assert_allclose(got, np.eye(8) / 8, atol=1e-12)

    @pytest.mark.parametrize("position", [2, -1, 1.0, 0.5, "1", True, np.int64(1)])
    def test_position_validation(self, monkeypatch, position):
        # Positions are read with operator.index: a float or a string is no
        # position and raises ValueError before the projector is built;
        # True and np.int64(1) are position 1.
        psi = random_state(2, 1)
        if type(position) in (bool, np.int64):
            got = sealed_mixture(psi, [0, position])
            assert got.tobytes() == sealed_mixture(psi, [0, 1]).tobytes()
            return
        built = []
        monkeypatch.setattr(qubits, "pure_density", built.append)
        with pytest.raises(ValueError):
            sealed_mixture(psi, [0, position])
        assert not built

    def test_state_validation(self):
        with pytest.raises(DimensionMismatch):
            sealed_mixture(np.ones(3) / np.sqrt(3), [0])
        with pytest.raises(NotNormalized):
            sealed_mixture(2 * random_state(2, 1), [0])

    @pytest.mark.parametrize("psi, error", [([1, 1], NotNormalized),
                                            ([1, 0, 0], DimensionMismatch)])
    def test_a_bad_state_raises_its_own_type_first(self, monkeypatch, psi, error):
        # The documented types: neither is a ValueError, which a bad
        # position raises, and no projector is built.
        built = []
        monkeypatch.setattr(qubits, "pure_density", built.append)
        with pytest.raises(error) as raised:
            sealed_mixture(psi, [0])
        assert not isinstance(raised.value, ValueError) and not built

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_channel_matches_full_width_kraus(self, position):
        rho = pure_density(random_state(3, 61))
        rng = RandomSource(62 + position)
        kraus = [rng.complex_normals(4).reshape(2, 2) for _ in range(2)]
        want = np.zeros((8, 8), dtype=complex)
        for k in kraus:
            factors = [np.eye(2)] * 3
            factors[position] = k
            full = np.kron(np.kron(factors[0], factors[1]), factors[2])
            want += full @ rho @ full.conj().T
        superop = sum(np.kron(k, k.conj()) for k in kraus)
        got = qubits._channel(rho, position, superop)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_scalar_channel_is_the_product_bit_for_bit(self, position):
        # Every channel is the matrix product, into a new array, signed
        # zeros included: a released slot's c * I4, a complex multiple of
        # I4 and a near-scalar alike.  The input is never written.
        rho = signed_zero_projector(3, 63)
        assert np.signbit(rho.view(float)[rho.view(float) == 0]).any()
        before = rho.copy()
        near = np.eye(4, dtype=complex) * 0.25
        near[1, 2] = 0.125
        superops = [*(c.superop for c in protocol._CORRECTED.values()),
                    np.eye(4) * 0.5, np.eye(4) * (0.3 + 0.4j), near]
        for superop in superops:
            got = qubits._channel(rho, position, superop)
            assert got is not rho and not np.shares_memory(got, rho)
            want = channel_by_product(rho, position, superop).tobytes()
            assert got.tobytes() == want
        assert rho.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sealed_mixture_matches_replace_with_mixed(self, n):
        psi = random_state(n, 90 + n)
        for r in range(n + 1):
            for positions in itertools.combinations(range(n), r):
                want = pure_density(psi)
                for p in positions:
                    want = replace_with_mixed(want, p)
                got = sealed_mixture(psi, positions)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_seal_kernel_bytes_match_the_six_axis_formula(self, width, seed, data):
        # The audit's distances read the sealed prediction's last bits, so
        # the seal must give the six-axis formula's bytes, signed zeros
        # included, for every subset of positions, and never write its
        # input.
        dim = 2**width
        zeros = data.draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
        vec = random_state(width, seed)
        vec[sorted(zeros)] = 0.0
        vec *= np.array([1, -1, 1j, -1j])[np.arange(dim) % 4]
        rho = pure_density(vec / np.linalg.norm(vec))
        rho = rho if data.draw(st.booleans()) else -rho
        signs = np.signbit(rho.view(float)[rho.view(float) == 0])
        if signs.any() and not signs.all():
            event("zeros of both signs")
        rho.setflags(write=False)
        for r in range(width + 1):
            for positions in itertools.combinations(range(width), r):
                want = six_axis_seal(rho.copy(), positions)
                got = qubits._seal(rho, positions)
                assert got.tobytes() == want.tobytes(), positions
                assert (got is rho) == (not positions)

# -- product qubits inserted among a state's qubits ----------------------------------


def insert_product(secret, placements, states):
    """Allocate ``secret`` as one block and each of ``states`` as a block of
    its own, then read the register with ``states[i]`` at output position
    ``placements[i]`` and the secret's qubits filling the other positions in
    order; the register must never merge the blocks."""
    reg = QuantumRegister()
    secret_ids = list(reg.alloc_state(secret))
    decoy_ids = [reg.alloc_state(s)[0] for s in states]
    order = [None] * (len(secret_ids) + len(decoy_ids))
    for position, q in zip(placements, decoy_ids):
        order[position] = q
    fill = iter(secret_ids)
    order = [q if q is not None else next(fill, None) for q in order]
    got = reg.state_vector(order=order)
    assert reg.peak_block_qubits == len(secret_ids)
    return got


class TestInsertProduct:
    def test_append(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        got = insert_product(np.array([1.0, 0.0]), [1], [plus])
        np.testing.assert_allclose(got, [INV_SQRT2, INV_SQRT2, 0, 0])

    def test_prepend(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        got = insert_product(np.array([1.0, 0.0]), [0], [plus])
        np.testing.assert_allclose(got, [INV_SQRT2, 0, INV_SQRT2, 0])

    def test_interleave_keeps_secret_order(self):
        secret = random_state(2, 66)
        one = np.array([0.0, 1.0])
        got = insert_product(secret, [1], [one])
        tensor = got.reshape(2, 2, 2)
        # slot 1 (axis 1) is |1>, axes (0, 2) carry the secret
        np.testing.assert_allclose(tensor[:, 0, :], np.zeros((2, 2)))
        np.testing.assert_allclose(tensor[:, 1, :].reshape(-1), secret)

    def test_rejects_bad_placements(self):
        # two decoys on one position leave a secret qubit out of the order
        with pytest.raises(UnknownQubit):
            insert_product(np.array([1.0, 0.0]), [0, 0],
                           [np.array([1.0, 0]), np.array([1.0, 0])])


# -- factored register against a dense reference ----------------------------------------


_BASIS_ROWS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) * INV_SQRT2,
}


class DenseReference:
    """One dense vector over every live qubit in allocation order, with the
    same sampling calls: the register as it was before it held blocks."""

    def __init__(self):
        self.amps = np.ones(1, dtype=complex)
        self.order = []
        self.next_id = 0

    def alloc(self, vec):
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        count = int(np.log2(vec.size))
        self.amps = np.kron(self.amps, vec)
        ids = list(range(self.next_id, self.next_id + count))
        self.next_id += count
        self.order += ids
        return tuple(ids)

    def _front(self, qs):
        """Amplitudes with ``qs`` moved to the front, shape (2**len(qs), -1)."""
        n = len(self.order)
        pos = [self.order.index(q) for q in qs]
        rest = [i for i in range(n) if i not in pos]
        t = self.amps.reshape((2,) * n).transpose(pos + rest)
        return t.reshape(2 ** len(qs), -1)

    def apply_pauli(self, q, op):
        p = self.order.index(q)
        n = len(self.order)
        full = np.kron(np.kron(np.eye(2**p), op.matrix), np.eye(2 ** (n - p - 1)))
        self.amps = full @ self.amps

    def bell_components(self, qa, qb):
        rows = np.array([kind.vector for kind in BellKind])
        return rows.conj() @ self._front([qa, qb])

    def _collapse(self, comps, k, removed):
        branch = comps[k]
        self.amps = branch / np.sqrt(np.real(np.vdot(branch, branch)))
        self.order = [q for q in self.order if q not in removed]

    def bell_measure(self, qa, qb, rng):
        comps = self.bell_components(qa, qb)
        k = born_sample((np.abs(comps) ** 2).sum(axis=1), rng)
        self._collapse(comps, k, (qa, qb))
        return BellKind(k)

    def project_bell(self, qa, qb, kind):
        self._collapse(self.bell_components(qa, qb), kind.value, (qa, qb))

    def measure_single(self, q, basis, rng, remove):
        comps = _BASIS_ROWS[basis].conj() @ self._front([q])
        k = born_sample((np.abs(comps) ** 2).sum(axis=1), rng)
        p = self.order.index(q)
        self._collapse(comps, k, (q,))
        if not remove:
            n = len(self.order) + 1
            t = np.outer(_BASIS_ROWS[basis][k], self.amps).reshape((2,) * n)
            self.amps = np.moveaxis(t, 0, p).reshape(-1)
            self.order.insert(p, q)
        return k


_STEP = st.tuples(
    st.integers(0, 7), st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 3)
)


class TestFactoredRegister:
    @given(st.integers(0, 2**32 - 1), st.lists(_STEP, max_size=30))
    def test_matches_dense_reference(self, seed, program):
        reg, ref = QuantumRegister(), DenseReference()
        rng_reg, rng_ref = RandomSource(seed), RandomSource(seed)
        peak_live = 0
        for op, x, y, k in program:
            live = list(ref.order)
            if op == 0 and len(live) < 10:
                assert reg.alloc_qubit(k % 2) == ref.alloc([1 - k % 2, k % 2])[0]
            elif op == 1 and len(live) < 9:
                kind = BellKind(k)
                assert reg.alloc_bell_pair(kind) == ref.alloc(kind.vector)
            elif op == 2 and len(live) < 8:
                vec = random_state(1 + x % 3, y)
                assert reg.alloc_state(vec) == ref.alloc(vec)
            elif op == 3 and live:
                reg.apply_pauli(live[x % len(live)], list(Pauli)[k])
                ref.apply_pauli(live[x % len(live)], list(Pauli)[k])
            elif op in (4, 5) and len(live) >= 2:
                qa = live.pop(x % len(live))
                qb = live[y % len(live)]
                if op == 4:
                    got = reg.bell_measure(qa, qb, rng_reg)
                    assert got is ref.bell_measure(qa, qb, rng_ref)
                else:
                    probs = (np.abs(ref.bell_components(qa, qb)) ** 2).sum(axis=1)
                    kinds = [kind for kind in BellKind if probs[kind.value] > 1e-6]
                    kind = kinds[k % len(kinds)]
                    assert reg.project_bell(qa, qb, kind) == pytest.approx(
                        probs[kind.value], abs=1e-12
                    )
                    ref.project_bell(qa, qb, kind)
            elif op in (6, 7) and live:
                q = live[x % len(live)]
                basis = "ZX"[k % 2]
                remove = op == 6
                got = reg.measure_single(q, basis, rng_reg, remove=remove)
                assert got == ref.measure_single(q, basis, rng_ref, remove)
            assert reg.live_qubits() == tuple(ref.order)
            np.testing.assert_allclose(reg.state_vector(), ref.amps, rtol=0, atol=1e-12)
            peak_live = max(peak_live, reg.num_qubits)
        assert reg.peak_block_qubits <= peak_live

        before = reg.state_vector()
        dup = reg.copy()
        extra = dup.alloc_bell_pair(BellKind.PHI_PLUS)
        for q in reg.live_qubits():
            dup.apply_pauli(q, Pauli.ZX)
            dup.bell_measure(q, extra[0], rng_reg)
            extra = (extra[1], dup.alloc_qubit(0))
        assert reg.live_qubits() == tuple(ref.order)
        np.testing.assert_array_equal(reg.state_vector(), before)

    def test_copy_after_merges_shares_nothing(self):
        reg = QuantumRegister()
        rng = RandomSource(21)
        secret = reg.alloc_state(random_state(3, 7))
        links = [reg.alloc_bell_pair(BellKind.PHI_MINUS) for _ in secret]
        # Swapping each secret qubit onto a link merges blocks three times.
        for q, (mu, _) in zip(secret, links):
            reg.bell_measure(q, mu, rng)
        reg.alloc_state(random_state(2, 8))
        dup = reg.copy()
        assert list(dup._block_of) == list(reg._block_of)
        blocks, dup_blocks = live_blocks(reg), live_blocks(dup)
        assert [b.qubits for b in dup_blocks] == [b.qubits for b in blocks]
        assert len(blocks) == 2
        for a, b in itertools.product(blocks, dup_blocks):
            assert a is not b and a.qubits is not b.qubits
            assert not np.shares_memory(a.amps, b.amps)
        before = [b.amps.tobytes() for b in blocks]
        assert dup.state_vector().tobytes() == reg.state_vector().tobytes()
        dup.apply_pauli(links[0][1], Pauli.Z)
        dup.state_vector()  # flushes the Z onto the copy's block
        assert [b.amps.tobytes() for b in live_blocks(reg)] == before

    def test_cross_block_measurement_builds_only_the_residual(self):
        reg = QuantumRegister()
        a1, b1 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        a2, b2 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        rng = RandomSource(5)
        assert reg.bell_measure(a1, a2, rng) is reg.bell_measure(b1, b2, rng)
        assert reg.peak_block_qubits == 2  # a pad never spans more than a link
        secret = reg.alloc_state(random_state(3, 12))
        mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        assert reg.num_qubits == 5
        reg.bell_measure(secret[0], mu, rng)
        assert reg.peak_block_qubits == 3  # the swap keeps the secret's width
        rho = reg.reduced_density([nu])
        rho.validate()


class TestCrossBlockKernel:
    """A Bell measurement across two blocks, against the dense reference:
    the blocks merged with ``np.kron`` and projected onto the Bell rows."""

    @given(
        st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1), st.data()
    )
    def test_matches_merged_reference(self, n_a, n_b, seed, data):
        pa = data.draw(st.integers(0, n_a - 1), label="pa")
        pb = data.draw(st.integers(0, n_b - 1), label="pb")
        a_vec, b_vec = random_state(n_a, seed), random_state(n_b, seed + 1)
        reg, ref = QuantumRegister(), DenseReference()
        ids_a, ids_b = reg.alloc_state(a_vec), reg.alloc_state(b_vec)
        assert (ref.alloc(a_vec), ref.alloc(b_vec)) == (ids_a, ids_b)
        qa, qb = ids_a[pa], ids_b[pb]
        comps = ref.bell_components(qa, qb)  # rows over A's rest, then B's
        probs = (np.abs(comps) ** 2).sum(axis=1)
        np.testing.assert_allclose(
            reg.bell_probabilities(qa, qb), probs, rtol=0, atol=1e-13
        )
        order = [q for q in ids_a if q != qa] + [q for q in ids_b if q != qb]
        for kind in BellKind:
            branch = reg.copy()
            assert branch.project_bell(qa, qb, kind) == pytest.approx(
                probs[kind.value], abs=1e-13
            )
            want = comps[kind.value] / np.sqrt(probs[kind.value])
            if order:
                (block,) = live_blocks(branch)
                assert block.qubits == order  # A's other qubits, then B's
                got = branch._phase * block.amps
            else:
                assert live_blocks(branch) == []
                got = np.array([branch._phase])
            phase = np.vdot(got, want)
            phase /= abs(phase)
            np.testing.assert_allclose(got * phase, want, rtol=0, atol=1e-12)
            assert branch.peak_block_qubits == max(n_a, n_b, n_a + n_b - 2)

    def test_measurement_across_11_and_12_qubits(self):
        reg = QuantumRegister()
        a = reg.alloc_state(random_state(11, 3))
        b = reg.alloc_state(random_state(12, 4))
        reg.bell_measure(a[5], b[7], RandomSource(9))
        assert reg.num_qubits == 21
        assert reg.peak_block_qubits == 21
        assert abs(np.linalg.norm(reg.state_vector()) - 1.0) <= 1e-12


def two_blocks(n_a, n_b, seed):
    """A register of two random blocks, over ``n_a`` and ``n_b`` qubits."""
    reg = QuantumRegister()
    ids = reg.alloc_state(random_state(n_a, seed))
    ids += reg.alloc_state(random_state(n_b, seed + 1))
    return reg, ids


def assert_same_register(got, want):
    assert got.live_qubits() == want.live_qubits()
    assert got.state_vector().tobytes() == want.state_vector().tobytes()
    assert got.peak_block_qubits == want.peak_block_qubits


class TestSampledEqualsForced:
    """A sampled measurement is the forced collapse onto the drawn outcome:
    on a copy of the register, forcing the outcome that the sample drew
    leaves the same state bit for bit, and the same peak."""

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_bell_measure_is_project_bell_onto_the_draw(self, n_a, n_b, seed):
        reg, ids = two_blocks(n_a, n_b, seed)
        rng = RandomSource(seed)
        # Every ordered pair: within block A, within block B and across.
        for qa, qb in itertools.permutations(ids, 2):
            sampled = reg.copy()
            forced = sampled.copy()
            kind = sampled.bell_measure(qa, qb, rng)
            forced.project_bell(qa, qb, kind)
            assert_same_register(sampled, forced)

    @given(
        st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans()
    )
    def test_measure_single_is_project_single_onto_the_draw(
        self, n_a, n_b, seed, remove
    ):
        reg, ids = two_blocks(n_a, n_b, seed)
        rng = RandomSource(seed)
        for q, basis in itertools.product(ids, "ZX"):
            sampled = reg.copy()
            forced = sampled.copy()
            outcome = sampled.measure_single(q, basis, rng, remove=remove)
            forced.project_single(q, basis, outcome, remove=remove)
            assert_same_register(sampled, forced)


class EagerRegister(QuantumRegister):
    """The register without a lazy frame, kept as a reference: each Pauli
    moves the amplitudes of its block as soon as it is applied, as
    ``apply_pauli`` did by slicing before blocks kept a frame."""

    def apply_pauli(self, q, op):
        super().apply_pauli(q, op)
        qubits._flushed(self._block_of[q])


def assert_same_floats(got, want):
    """``got == want`` entry for entry (so -0.0 equals 0.0); entries that
    differ only in the sign of a zero are reported as a hypothesis event."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    same_signs = all(
        np.array_equal(np.signbit(a), np.signbit(b))
        for a, b in ((got.real, want.real), (got.imag, want.imag))
    )
    if not same_signs:
        event("a signed zero differs from the eager register")


_FRAME_STEP = st.tuples(
    st.integers(0, 8), st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 7)
)


def check_against_eager(seed, program):
    """Run ``program`` on a register and on :class:`EagerRegister` side by
    side: draws, returned probabilities, Bell and single probabilities,
    reduced densities and state vectors must be equal float for float.
    State vectors are compared only at ``op == 8`` and at the end, since
    reading them flushes every frame."""
    pairs = [(QuantumRegister(), EagerRegister())]
    rng_lazy, rng_eager = RandomSource(seed), RandomSource(seed)
    for op, x, y, k in program:
        lazy, eager = pairs[-1]
        live = list(eager.live_qubits())
        assert lazy.live_qubits() == tuple(live)
        if op == 0 and len(live) < 8:
            vec = random_state(1 + y % 3, x)
            assert lazy.alloc_state(vec) == eager.alloc_state(vec)
        elif op == 1 and live:
            q = live[x % len(live)]
            lazy.apply_pauli(q, list(Pauli)[k % 4])
            eager.apply_pauli(q, list(Pauli)[k % 4])
        elif op == 2 and live:
            q = live[x % len(live)]
            assert lazy.teleport(q, rng_lazy) == eager.teleport(q, rng_eager)
        elif op == 3 and live:
            q, kind = live[x % len(live)], BellKind(k % 4)
            assert lazy.project_teleport(q, kind) == eager.project_teleport(q, kind)
        elif op == 4 and len(live) >= 2:
            # Within one block or across two, as the ids fall.
            qa = live.pop(x % len(live))
            qb = live[y % len(live)]
            if k & 4:
                assert_same_floats(
                    lazy.bell_probabilities(qa, qb), eager.bell_probabilities(qa, qb)
                )
            got = lazy.bell_measure(qa, qb, rng_lazy)
            assert got is eager.bell_measure(qa, qb, rng_eager)
        elif op == 5 and live:
            q, basis, remove = live[x % len(live)], "ZX"[k % 2], k & 2 == 0
            if k & 4:
                assert_same_floats(
                    lazy.single_probabilities(q, basis),
                    eager.single_probabilities(q, basis),
                )
            got = lazy.measure_single(q, basis, rng_lazy, remove=remove)
            assert got == eager.measure_single(q, basis, rng_eager, remove=remove)
        elif op == 6 and live:
            subset = list(dict.fromkeys([live[x % len(live)], live[y % len(live)]]))
            assert_same_floats(
                lazy.reduced_density(subset).entries,
                eager.reduced_density(subset).entries,
            )
        elif op == 7:
            # Go on with copies; the originals are compared at the end.
            pairs.append((lazy.copy(), eager.copy()))
        elif op == 8:
            assert_same_floats(lazy.state_vector(), eager.state_vector())
    for lazy, eager in pairs:
        assert lazy.live_qubits() == eager.live_qubits()
        assert_same_floats(lazy.state_vector(), eager.state_vector())
        assert lazy.peak_block_qubits == eager.peak_block_qubits
    assert rng_lazy.random() == rng_eager.random()


def unsigned_apply_pauli(self, q, op):
    """``apply_pauli`` with the composition sign dropped."""
    block, p = self._locate(q)
    if op is not Pauli.I:
        block.xmask ^= (op in (Pauli.X, Pauli.ZX)) << p
        block.zmask ^= (op in (Pauli.Z, Pauli.ZX)) << p


class TestLazyFrame:
    """Paulis wait in their block's frame until something reads the block;
    against :class:`EagerRegister`, which applies each one at once."""

    @given(st.integers(0, 2**32 - 1), st.lists(_FRAME_STEP, max_size=40))
    def test_matches_the_eager_register(self, seed, program):
        check_against_eager(seed, program)

    def test_a_dropped_composition_sign_fails_the_check(self, monkeypatch):
        # Z then X on one qubit is -(X then Z): only the sign tells them apart.
        program = [(0, 3, 1, 0), (1, 0, 0, 2), (1, 0, 0, 1), (8, 0, 0, 0)]
        check_against_eager(1, program)
        monkeypatch.setattr(QuantumRegister, "apply_pauli", unsigned_apply_pauli)
        with pytest.raises(AssertionError):
            check_against_eager(1, program)

    def test_a_copy_keeps_its_pending_frame(self):
        vec = random_state(3, 17)
        reg, eager = QuantumRegister(), EagerRegister()
        ids = reg.alloc_state(vec)
        eager.alloc_state(vec)
        for q, op in zip(ids, (Pauli.X, Pauli.ZX, Pauli.Z)):
            reg.apply_pauli(q, op)
            eager.apply_pauli(q, op)
        dup = reg.copy()
        (block,) = live_blocks(dup)
        assert (block.xmask, block.zmask) == (0b011, 0b110)
        want = eager.state_vector()
        assert reg.state_vector().tobytes() == want.tobytes()  # flushes reg
        assert (block.xmask, block.zmask) == (0b011, 0b110)
        assert not np.shares_memory(block.amps, live_blocks(reg)[0].amps)
        assert dup.state_vector().tobytes() == want.tobytes()

    def test_twists_and_paulis_touch_no_array(self):
        reg = QuantumRegister()
        ids = reg.alloc_state(random_state(4, 3))
        (block,) = live_blocks(reg)
        amps = block.amps
        before = amps.copy()
        rng = RandomSource(4)
        for q, op in zip(ids, Pauli):
            reg.apply_pauli(q, op)
            assert block.amps is amps
            nu, _ = reg.teleport(q, rng)
            assert block.amps is amps
            reg.project_teleport(nu, BellKind.VARPHI_PLUS)
            assert block.amps is amps
        assert block.amps.tobytes() == before.tobytes()


def born_sample_loop(probs, rng):
    """``born_sample`` as a Python loop over a list, kept as its reference."""
    p = [float(x) for x in probs]
    total = 0.0
    for i, x in enumerate(p):
        if x < 0.0:
            if x < -PROB_FLOOR:
                raise InternalInconsistency(f"negative branch probability: {p}")
            p[i] = 0.0
            x = 0.0
        total += x
    if not abs(total - 1.0) <= NORM_ATOL:
        raise InternalInconsistency(f"branch probabilities sum to {total}")
    u = rng.random() * total
    acc = 0.0
    for i, x in enumerate(p):
        acc += x
        if u < acc:
            return i
    return len(p) - 1


def born_sample_numpy(probs, rng):
    """``born_sample`` as it was on numpy arrays, kept as a second reference:
    ``np.add.accumulate`` sums in the same order as a list."""
    p = np.asarray(probs, dtype=float)
    low = p[p.argmin()]
    if low < 0.0:
        if low < -PROB_FLOOR:
            raise InternalInconsistency(f"negative branch probability: {p.tolist()}")
        p = np.maximum(p, 0.0)
    acc = np.add.accumulate(p)
    total = float(acc[-1])
    if abs(total - 1.0) > NORM_ATOL:
        raise InternalInconsistency(f"branch probabilities sum to {total}")
    u = rng.random() * total
    return min(bisect.bisect_right(acc, u), len(acc) - 1)


def boundary_draws(cdf):
    """Draws next to 0 and 1, and for each running sum ``x`` the draws
    within two ulps of ``x / total`` at which ``u = r * total`` is exactly
    ``x`` (or ``x / total`` itself where none is)."""
    total = cdf[-1]
    draws = [0.0, 1e-300, 1.0 - 2**-53]
    for x in cdf:
        r = x / total
        near = [r]
        for _ in range(2):
            near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], 2.0)]
        exact = [float(c) for c in near if c * total == x and c <= 1.0]
        draws += exact or [r]
    return draws


# -- draws taken ahead ---------------------------------------------------------------


def draw_program(rng, program, ahead):
    """Run ``program`` on ``rng`` and return every value it draws.  A step
    ``("random", k)`` takes k uniform draws, ahead in one call if
    ``ahead``, else one ``random()`` at a time; the other steps call the
    method they name."""
    out = []
    for name, arg in program:
        if name == "random":
            if ahead:
                source = rng.ahead(arg)
                out.append([source.random() for _ in range(arg)])
                source.done()
            else:
                out.append([rng.random() for _ in range(arg)])
        elif name == "integers":
            out.append(rng.integers(arg))
        elif name == "sample_positions":
            out.append(rng.sample_positions(*arg))
        else:
            out.append(rng.complex_normals(arg).tolist())
    return out


_OTHER_DRAWS = st.one_of(
    st.tuples(st.just("integers"), st.sampled_from([2, 4])),
    st.tuples(
        st.just("sample_positions"),
        st.integers(1, 9).flatmap(lambda total: st.tuples(st.just(total), st.integers(0, total))),
    ),
    st.tuples(st.just("complex_normals"), st.integers(1, 5)),
)


def draw_states(rng, program, batched):
    """Run ``program`` on ``rng`` as :func:`draw_program` does, a step
    ``("states", m)`` taking m draws of ``integers(4)``, in one
    ``integer_draws`` call if ``batched``, else one at a time."""
    out = []
    for name, arg in program:
        if name != "states":
            out += draw_program(rng, [(name, arg)], ahead=False)
        elif batched:
            out.append(rng.integer_draws(4, arg))
        else:
            out.append([rng.integers(4) for _ in range(arg)])
    return out


class TestDrawsAhead:
    """``RandomSource.ahead(k)`` serves the doubles k calls of ``random()``
    would, so a phase that draws ahead leaves the stream, and every draw
    after it, as it was.  This rests on numpy's PCG64 ``Generator``; a
    numpy that broke it fails here."""

    def test_serves_the_doubles_of_k_calls(self):
        for k in range(65):
            rng, want = RandomSource((k, 32)), RandomSource((k, 32))
            source = rng.ahead(k)
            got = [source.random() for _ in range(k)]
            source.done()
            assert got == [want.random() for _ in range(k)], k
            assert rng.random() == want.random(), k

    @given(
        st.lists(
            st.one_of(st.tuples(st.just("random"), st.integers(0, 64)), _OTHER_DRAWS),
            max_size=12,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_interleaved_with_every_other_draw(self, program, seed):
        # integers(2) reads half of a 64-bit output and keeps the other
        # half for the next such draw; the doubles taken ahead leave it.
        program = [("integers", 2), *program, ("random", 3), ("integers", 2)]
        want = draw_program(RandomSource(seed), program, ahead=False)
        assert draw_program(RandomSource(seed), program, ahead=True) == want

    def test_integer_draws_are_the_scalar_draws(self):
        # A decoy plan's M states in one call: the same values, and the
        # same half-word kept for the next integers(2).
        for m in range(65):
            rng, want = RandomSource((m, 33)), RandomSource((m, 33))
            got = rng.integer_draws(4, m)
            assert got == [want.integers(4) for _ in range(m)], m
            assert all(type(v) is int for v in got)
            assert rng.integers(2) == want.integers(2), m
            assert rng.random() == want.random(), m

    @given(
        st.lists(
            st.one_of(st.tuples(st.just("states"), st.integers(0, 64)), _OTHER_DRAWS),
            max_size=12,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_integer_draws_interleaved_with_every_other_draw(self, program, seed):
        program = [("integers", 2), *program, ("states", 3), ("integers", 2)]
        want = draw_states(RandomSource(seed), program, batched=False)
        assert draw_states(RandomSource(seed), program, batched=True) == want

    @pytest.mark.parametrize("k", [0, 1, 5, 64])
    def test_one_draw_fewer_or_more_raises(self, k):
        source = RandomSource(1).ahead(k)
        for _ in range(k - 1):
            source.random()
        if k:
            with pytest.raises(InternalInconsistency, match="served of"):
                source.done()
            source.random()
        source.done()
        with pytest.raises(InternalInconsistency, match=f"draw {k + 1} asked of {k}"):
            source.random()
        with pytest.raises(InternalInconsistency):
            source.done()


class TestBornSample:
    def vectors(self, count):
        """Random 2- and 4-outcome vectors, with exact zeros, ties and
        negatives inside and outside the clamp."""
        gen = np.random.default_rng(2026)
        for i in range(count):
            size = (2, 4)[i % 2]
            p = gen.dirichlet(np.ones(size))
            shape = i % 5
            if shape == 1:
                p[gen.integers(size)] = 0.0
                p /= p.sum()
            elif shape == 2:
                p[:] = 1.0 / size  # every boundary a tie
            elif shape == 3:
                j = gen.integers(size)
                p[j] = -gen.uniform(0.0, 2 * PROB_FLOOR)  # some clamp, some raise
            elif shape == 4:
                p *= 1.0 + gen.uniform(-2 * NORM_ATOL, 2 * NORM_ATOL)
            yield p

    def test_matches_loop_on_random_vectors(self):
        # and the numpy reference, which must agree with the loop
        outcomes = set()
        for i, p in enumerate(self.vectors(4000)):
            try:
                want = born_sample_loop(p, RandomSource(i))
            except InternalInconsistency as exc:
                for sample in (born_sample, born_sample_numpy):
                    with pytest.raises(InternalInconsistency) as got:
                        sample(p, RandomSource(i))
                    assert str(got.value) == str(exc)
                outcomes.add("raised")
                continue
            assert born_sample_numpy(p, RandomSource(i)) == want
            assert born_sample(p, RandomSource(i)) == want
            assert born_sample(list(p), RandomSource(i)) == want
            outcomes.add(want)
        assert outcomes == {0, 1, 2, 3, "raised"}

    @pytest.mark.parametrize(
        "probs",
        [[0.25] * 4, [0.5, 0.0, 0.5, 0.0], [0.0, 1.0], [1.0 - 5e-13, -5e-13, 0.0, 5e-13]],
    )
    def test_matches_loop_at_boundaries(self, probs):
        # u landing exactly on a running sum, and draws next to 0 and 1
        acc = np.add.accumulate(np.maximum(probs, 0.0))
        draws = [0.0, 1e-300, 1.0 - 2**-53] + [x / acc[-1] for x in acc]
        for r in draws:
            want = born_sample_loop(probs, ScriptedDraws(r))
            assert born_sample_numpy(probs, ScriptedDraws(r)) == want
            assert born_sample(np.array(probs), ScriptedDraws(r)) == want

    def test_import_time_running_sums_draw_as_born_sample(self, monkeypatch):
        # Rebuild the tap and pad tables, recording the probabilities each
        # running sum is built from; the teleport's are four exact quarters.
        # Every pinned table draws as born_sample, and as the loop, also
        # where u lands exactly on a running sum.
        seen = []

        def recording_cdf(probs):
            seen.append(np.array(probs, dtype=float))
            return born_cdf(probs)

        monkeypatch.setattr(qubits, "born_cdf", recording_cdf)
        monkeypatch.setattr(protocol, "born_cdf", recording_cdf)
        tap, pad = qubits._tap_tables(), protocol._pad_tables()
        monkeypatch.undo()
        rebuilt = [tap[b][0] for b in tap] + [pad[0], *pad[1]]
        pinned = [qubits._TAP[b][0] for b in tap] + [protocol._PAD[0], *protocol._PAD[1]]
        assert rebuilt == pinned and len(seen) == len(pinned) == 7
        seen.append([0.25] * 4)
        pinned.append(qubits._TELEPORT_CDF)
        for probs, cdf in zip(seen, pinned):
            assert cdf == born_cdf(probs)
            draws = boundary_draws(cdf)
            for r in draws:
                want = born_sample_loop(probs, ScriptedDraws(r))
                assert born_sample(probs, ScriptedDraws(r)) == want
                assert born_draw(cdf, ScriptedDraws(r)) == want

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("base", [[0.5, 0.5, 0.0, 0.0], [0.25] * 4,
                                      [1.0 - 5e-13, -5e-13, 0.0, 5e-13]])
    def test_nan_raises(self, base, position):
        probs = list(base)
        probs[position] = float("nan")
        for p in (probs, np.array(probs)):
            with pytest.raises(InternalInconsistency):
                born_sample(p, ScriptedDraws(0.5))


# -- invariants ------------------------------------------------------------------------


class TestInvariants:
    @given(st.integers(0, 2**32 - 1))
    def test_norm_preserved_under_random_programs(self, seed):
        rng = RandomSource(seed)
        reg = QuantumRegister()
        live = [reg.alloc_qubit(rng.integers(2)) for _ in range(2)]
        for _ in range(25):
            action = rng.integers(4)
            if action == 0 and reg.num_qubits < 10:
                qa, qb = reg.alloc_bell_pair(list(BellKind)[rng.integers(4)])
                live += [qa, qb]
            elif action == 1:
                q = live[rng.integers(len(live))]
                reg.apply_pauli(q, list(Pauli)[rng.integers(4)])
            elif action == 2 and reg.num_qubits >= 3:
                qa = live.pop(rng.integers(len(live)))
                qb = live.pop(rng.integers(len(live)))
                reg.bell_measure(qa, qb, rng)
            elif action == 3 and reg.num_qubits >= 2:
                q = live.pop(rng.integers(len(live)))
                basis = "Z" if rng.integers(2) == 0 else "X"
                reg.measure_single(q, basis, rng)
            assert abs(np.linalg.norm(reg.state_vector()) - 1.0) <= 1e-9

    @given(
        st.tuples(*(st.floats(-1, 1) for _ in range(4))),
        st.floats(0, 2 * np.pi),
    )
    def test_fidelity_global_phase_invariant(self, parts, theta):
        vec = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            return
        vec = vec / norm
        rotated = np.exp(1j * theta) * vec
        assert fidelity(vec, rotated) == pytest.approx(1.0, abs=1e-9)

    def test_born_sample_clamps_and_renormalizes(self):
        rng = RandomSource(12)
        assert born_sample([1.0 - 5e-13, -5e-13, 0.0, 5e-13], rng) == 0
        with pytest.raises(InternalInconsistency):
            born_sample([0.5, -1e-6, 0.5, 0.0], rng)
        with pytest.raises(InternalInconsistency):
            born_sample([0.7, 0.1, 0.1, 0.0], rng)


class TestReciprocalScaling:
    @pytest.mark.parametrize("size", [2**k for k in range(1, 17)])
    def test_scaling_by_reciprocal_equals_division(self, size):
        # The register normalizes by ``x * (1.0 / s)``; with a real ``s`` that
        # is the same finite floats as NumPy's ``x / s``, so no output byte
        # moved when the division went.
        gen = np.random.default_rng(size)
        x = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        for s in (np.sqrt(gen.uniform(PROB_FLOOR, 1.0)), float(np.linalg.norm(x))):
            want = x / s
            got = x * (1.0 / s)
            np.testing.assert_array_equal(got, want)
            scaled = x.copy()
            scaled *= 1.0 / s
            np.testing.assert_array_equal(scaled, want)


# Seeds on and around the 32-bit word boundaries numpy splits an int at.
_WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**100]


# uint32 words on and around the bit boundaries of the pool hash.
_POOL_EDGES = [0, 1, 2**16 - 1, 2**16, 2**31 - 1, 2**31, 2**32 - 1]


def numpy_seeded(entropy):
    """numpy's own generator for ``entropy``: ``SeedSequence`` reads it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(987)
        b = RandomSource(987)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
        assert a.sample_positions(10, 3) == b.sample_positions(10, 3)

    def test_trial_derivation_is_stable(self):
        first = RandomSource((5, 2)).random()
        RandomSource((5, 1))  # unrelated stream, consumed differently
        again = RandomSource((5, 2)).random()
        assert first == again

    def test_distinct_trials_distinct_streams(self):
        assert RandomSource((5, 0)).random() != RandomSource((5, 1)).random()

    def test_random_is_the_bare_generators_float_stream(self):
        # Generator.random() with no size is already a Python float, so the
        # source passes it on as it is.
        source = RandomSource((5, 3))
        bare = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 3))))
        draws = [source.random() for _ in range(200)]
        assert all(type(d) is float for d in draws)
        assert draws == [bare.random() for _ in range(200)]

    @given(st.one_of(
        st.sampled_from(_WORD_EDGES),
        st.lists(st.sampled_from(_WORD_EDGES), min_size=1, max_size=6).map(tuple),
    ))
    def test_words_seed_as_numpy_reads_the_entropy(self, entropy):
        # The words RandomSource builds give the very state SeedSequence
        # builds from the int or tuple itself, and so the same draws.
        rng, want = RandomSource(entropy), numpy_seeded(entropy)
        assert rng._gen.bit_generator.state == want.bit_generator.state
        assert [rng.random() for _ in range(4)] == want.random(4).tolist()
        assert rng.integer_draws(4, 5) == want.integers(4, size=5).tolist()

    @pytest.mark.parametrize("entropy", [
        -1, (3, -1), 1.5, (1, 2.0), True, (True, 7), np.int64(5), np.uint64(2**64 - 1),
        (np.uint32(3), 1), [1, 2**40], (), "7",
    ], ids=repr)
    def test_other_entropy_is_read_as_numpy_reads_it(self, entropy):
        # Anything but non-negative ints (and tuples of them) is numpy's to
        # read or refuse: the same error type, or the same state, as
        # SeedSequence gives it.
        try:
            want = numpy_seeded(entropy).bit_generator.state
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                RandomSource(entropy)
        else:
            assert RandomSource(entropy)._gen.bit_generator.state == want

    @given(
        st.lists(st.sampled_from(_POOL_EDGES), min_size=1, max_size=12),
        st.sampled_from([4, 5, 8]),
    )
    def test_the_pool_hash_is_numpys(self, words, pool_size):
        # 1 to 12 words, more than a pool of 4 holds, on word boundaries:
        # every request, the one hashed here (4 uint64 words of a 4-word
        # pool) and each that numpy answers, gives numpy's words.
        entropy = np.array(words, dtype=np.uint32)
        ours = qubits._PoolSeedSequence(entropy, pool_size=pool_size)
        theirs = np.random.SeedSequence(entropy, pool_size=pool_size)
        np.testing.assert_array_equal(ours.pool, theirs.pool)
        for n, dtype in itertools.product(range(1, 9), (np.uint32, np.uint64)):
            got, want = ours.generate_state(n, dtype), theirs.generate_state(n, dtype)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert np.random.PCG64(ours).state == np.random.PCG64(theirs).state

    def test_a_source_copies_into_a_process_that_built_none(self):
        # Importing cqss leaves numpy.random unimported, so it is first
        # imported by a source, outside a benchmark's set-up.  A source
        # still pickles: a fresh process that has built none reads it back
        # (the module defines the seed sequence's class on that lookup),
        # deep-copies it, and both go on with the original's draws.
        source = RandomSource((7, 11))
        source.random()
        blob = pickle.dumps(source)
        child = (
            "import copy, json, pickle, sys\n"
            "import cqss, cqss.harness\n"
            "unimported = 'numpy.random' not in sys.modules\n"
            "source = pickle.loads(sys.stdin.buffer.read())\n"
            "twin = copy.deepcopy(source)\n"
            "print(json.dumps([unimported,\n"
            "    type(source._gen.bit_generator.seed_seq).__qualname__,\n"
            "    [source.random() for _ in range(3)], twin.uniforms(3)]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child],
            input=blob,
            capture_output=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(qubits.__file__).parents[1])},
        )
        assert done.returncode == 0, done.stderr.decode()
        unimported, name, draws, twin_draws = json.loads(done.stdout)
        assert unimported and name == "_PoolSeedSequence"
        want = source.uniforms(3)
        assert draws == want and twin_draws == want
        assert copy.deepcopy(source).uniforms(5) == source.uniforms(5)


class TestDensityMatrixValidation:
    def test_validate_rejects_bad_trace(self):
        dm = DensityMatrix(np.eye(2, dtype=complex), (0,))
        with pytest.raises(InternalInconsistency):
            dm.validate()

    def test_validate_accepts_mixed(self):
        DensityMatrix(np.eye(2, dtype=complex) / 2, (0,)).validate()
