"""Register-level tests: allocation, gates, measurement, density metrics."""

import bisect
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    apply_single_qubit_channel,
    born_sample,
    fidelity,
    pure_density,
    sealed_mixture,
    trace_distance,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(width, seed):
    rng = RandomSource(seed)
    vec = rng.complex_normals(2**width)
    return vec / np.linalg.norm(vec)


# -- allocation ---------------------------------------------------------------


class TestAllocation:
    def test_alloc_zero(self):
        reg = QuantumRegister()
        reg.alloc_qubit(0)
        np.testing.assert_allclose(reg.state_vector(), [1, 0])

    def test_alloc_one(self):
        reg = QuantumRegister()
        reg.alloc_qubit(1)
        np.testing.assert_allclose(reg.state_vector(), [0, 1])

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
        before = [(list(blk.qubits), blk.amps.copy()) for blk in reg._blocks]
        with pytest.raises(CapacityError, match="25 qubits"):
            reg.bell_measure(a[0], b[0], RandomSource(3))
        # 25 live qubits cannot be multiplied out either, so compare blocks.
        after = reg._blocks
        assert [qubits for qubits, _ in before] == [blk.qubits for blk in after]
        for (_, amps), blk in zip(before, after):
            np.testing.assert_array_equal(amps, blk.amps)
        assert reg.num_qubits == 27 and reg.peak_block_qubits == 14

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


# -- bit encoding -----------------------------------------------------------------


class TestBellBits:
    def test_assignments(self):
        assert BellKind.PHI_MINUS.bits == (0, 0)
        assert BellKind.PHI_PLUS.bits == (0, 1)
        assert BellKind.VARPHI_MINUS.bits == (1, 0)
        assert BellKind.VARPHI_PLUS.bits == (1, 1)

    def test_bijection(self):
        for kind in BellKind:
            assert BellKind.from_bits(*kind.bits) is kind


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

    def test_position_validation(self):
        with pytest.raises(ValueError):
            sealed_mixture(random_state(2, 1), [2])
        with pytest.raises(ValueError):
            sealed_mixture(random_state(2, 1), [0, -1])

    def test_state_validation(self):
        with pytest.raises(DimensionMismatch):
            sealed_mixture(np.ones(3) / np.sqrt(3), [0])
        with pytest.raises(NotNormalized):
            sealed_mixture(2 * random_state(2, 1), [0])

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
        got = apply_single_qubit_channel(rho, position, superop)
        np.testing.assert_allclose(got, want, atol=1e-12)

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
                (block,) = branch._blocks
                assert block.qubits == order  # A's other qubits, then B's
                got = branch._phase * block.amps
            else:
                assert branch._blocks == []
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


class FixedDraw:
    """A stand-in random source whose draw is ``r``."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


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
            want = born_sample_loop(probs, FixedDraw(r))
            assert born_sample_numpy(probs, FixedDraw(r)) == want
            assert born_sample(np.array(probs), FixedDraw(r)) == want

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("base", [[0.5, 0.5, 0.0, 0.0], [0.25] * 4,
                                      [1.0 - 5e-13, -5e-13, 0.0, 5e-13]])
    def test_nan_raises(self, base, position):
        probs = list(base)
        probs[position] = float("nan")
        for p in (probs, np.array(probs)):
            with pytest.raises(InternalInconsistency):
                born_sample(p, FixedDraw(0.5))


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


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(987)
        b = RandomSource(987)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
        assert a.sample_positions(10, 3) == b.sample_positions(10, 3)

    def test_trial_derivation_is_stable(self):
        first = RandomSource.for_trial(5, 2).random()
        RandomSource.for_trial(5, 1)  # unrelated stream, consumed differently
        again = RandomSource.for_trial(5, 2).random()
        assert first == again

    def test_distinct_trials_distinct_streams(self):
        assert RandomSource.for_trial(5, 0).random() != RandomSource.for_trial(5, 1).random()


class TestDensityMatrixValidation:
    def test_validate_rejects_bad_trace(self):
        dm = DensityMatrix(np.eye(2, dtype=complex), (0,))
        with pytest.raises(InternalInconsistency):
            dm.validate()

    def test_validate_accepts_mixed(self):
        DensityMatrix(np.eye(2, dtype=complex) / 2, (0,)).validate()
