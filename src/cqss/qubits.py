"""Exact state-vector simulation of small qubit registers.

The register stores a dense complex amplitude vector over the live qubits
plus a label table mapping stable qubit ids to tensor positions.  Measured
qubits are compacted out of the vector immediately, so long protocols stay
within the hard cap of 24 live qubits.

Conventions
-----------
* Tensor position 0 is the most significant bit of the amplitude index:
  for qubits ``(q0, q1)`` at positions ``(0, 1)``, amplitude ``amps[0b10]``
  is the coefficient of ``|1_{q0} 0_{q1}>``.
* The four Bell states are, in ``|00>,|01>,|10>,|11>`` amplitude order::

      PHI_MINUS    (|01> - |10>)/sqrt(2)     bits 00   (the singlet / EPR state)
      PHI_PLUS     (|01> + |10>)/sqrt(2)     bits 01
      VARPHI_MINUS (|00> - |11>)/sqrt(2)     bits 10
      VARPHI_PLUS  (|00> + |11>)/sqrt(2)     bits 11

* Post-measurement global phase is whatever projection produces; compare
  states with :func:`fidelity` or :func:`trace_distance`, both of which are
  phase-insensitive.
* All arithmetic is complex128; tolerances below are stated relative to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatch,
    InternalInconsistency,
    NotNormalized,
    UnknownQubit,
)

MAX_LIVE_QUBITS = 24

# Norm / probability-sum drift beyond this signals an internal error.
NORM_ATOL = 1e-9

# Negative probabilities within this of zero are clamped; beyond it they are
# treated as corruption.  Also the threshold for "this branch is impossible".
PROB_FLOOR = 1e-12

QubitId = int

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class BellKind(Enum):
    """The four maximally entangled two-qubit states.

    Each kind doubles as a two-bit classical value: the enum value is the
    integer ``(x << 1) | y`` of its bit pair, so the kind <-> bits mapping is
    a fixed bijection (00, 01, 10, 11 in declaration order).
    """

    PHI_MINUS = 0
    PHI_PLUS = 1
    VARPHI_MINUS = 2
    VARPHI_PLUS = 3

    @property
    def bits(self) -> tuple[int, int]:
        return (self.value >> 1, self.value & 1)

    @classmethod
    def from_bits(cls, x: int, y: int) -> "BellKind":
        if x not in (0, 1) or y not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got ({x}, {y})")
        return cls((x << 1) | y)

    @property
    def label(self) -> str:
        return _BELL_LABELS[self]

    @property
    def vector(self) -> np.ndarray:
        """Amplitudes of this Bell state in |00>,|01>,|10>,|11> order."""
        return _BELL_MATRIX[self.value].copy()


_BELL_LABELS = {
    BellKind.PHI_MINUS: "phi-",
    BellKind.PHI_PLUS: "phi+",
    BellKind.VARPHI_MINUS: "varphi-",
    BellKind.VARPHI_PLUS: "varphi+",
}

# Row k = state vector of BellKind(k).
_BELL_MATRIX = np.array(
    [
        [0.0, 1.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
) * _INV_SQRT2
_BELL_MATRIX.setflags(write=False)


class Pauli(Enum):
    """Single-qubit correction operators; ZX means X first, then Z."""

    I = "I"  # noqa: E741 - conventional operator name
    X = "X"
    Z = "Z"
    ZX = "ZX"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self].copy()


_PAULI_MATRICES = {
    Pauli.I: np.eye(2, dtype=complex),
    Pauli.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Pauli.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    Pauli.ZX: np.array([[0, 1], [-1, 0]], dtype=complex),  # Z @ X
}
for _m in _PAULI_MATRICES.values():
    _m.setflags(write=False)

# Correction that a receiver applies to its half after the sender's Bell
# measurement, keyed by the sender's outcome.  Projecting the pair
# (source, sender-half-of-singlet) onto a Bell state leaves the receiver half
# carrying the source state twisted by the inverse of exactly this operator.
CORRECTION_FOR_OUTCOME = {
    BellKind.VARPHI_PLUS: Pauli.ZX,
    BellKind.VARPHI_MINUS: Pauli.X,
    BellKind.PHI_PLUS: Pauli.Z,
    BellKind.PHI_MINUS: Pauli.I,
}

# Measurement bases for single qubits.  Row 0 / row 1 = outcome 0 / 1.
BASIS_Z = "Z"
BASIS_X = "X"

_BASIS_MATRIX = {
    BASIS_Z: np.eye(2, dtype=complex),
    BASIS_X: np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
}
for _m in _BASIS_MATRIX.values():
    _m.setflags(write=False)

# Conjugated copies used in the measurement hot paths.
_BELL_CONJ = _BELL_MATRIX.conj()
_BELL_CONJ.setflags(write=False)
_BASIS_CONJ = {name: mat.conj() for name, mat in _BASIS_MATRIX.items()}
for _m in _BASIS_CONJ.values():
    _m.setflags(write=False)


def _check_basis(basis: str) -> str:
    if basis not in _BASIS_MATRIX:
        raise ValueError(f"unknown basis {basis!r}; expected 'Z' or 'X'")
    return basis


class RandomSource:
    """Deterministic uniform stream used for all Born-rule sampling.

    Identical seeds reproduce identical outcome sequences bit for bit.
    Per-trial sources are derived from ``(master_seed, trial_index)`` so a
    batch of trials gives the same per-trial results whether executed
    serially or in parallel.
    """

    def __init__(self, seed: int | tuple[int, ...]):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    @classmethod
    def for_trial(cls, master_seed: int, trial_index: int) -> "RandomSource":
        return cls((int(master_seed), int(trial_index)))

    def random(self) -> float:
        return float(self._gen.random())

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._gen.integers(n))

    def sample_positions(self, total: int, count: int) -> tuple[int, ...]:
        """Uniform sample of ``count`` distinct 1-based positions, ascending."""
        if count > total:
            raise ValueError(f"cannot sample {count} positions from {total}")
        picked = self._gen.choice(total, size=count, replace=False)
        return tuple(sorted(int(p) + 1 for p in picked))

    def complex_normals(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n) + 1j * self._gen.standard_normal(n)


def born_sample(probs: Sequence[float], rng: RandomSource) -> int:
    """Inverse-CDF sample from a computed probability vector.

    Negatives within ``PROB_FLOOR`` of zero are clamped; the vector is then
    renormalized provided its sum is within ``NORM_ATOL`` of one.  Larger
    deviations are not statistical noise and raise ``InternalInconsistency``.
    """
    p = [float(x) for x in probs]
    total = 0.0
    for i, x in enumerate(p):
        if x < 0.0:
            if x < -PROB_FLOOR:
                raise InternalInconsistency(f"negative branch probability: {p}")
            p[i] = 0.0
            x = 0.0
        total += x
    if abs(total - 1.0) > NORM_ATOL:
        raise InternalInconsistency(f"branch probabilities sum to {total}")
    u = rng.random() * total
    acc = 0.0
    for i, x in enumerate(p):
        acc += x
        if u < acc:
            return i
    return len(p) - 1


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over an ordered qubit subset.

    ``subset`` records which qubits (or protocol-level indices) the rows and
    columns refer to, in tensor order.
    """

    entries: np.ndarray
    subset: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def validate(self, atol: float = NORM_ATOL) -> None:
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix shape {m.shape}")
        if m.shape[0] != 2 ** len(self.subset):
            raise DimensionMismatch(
                f"dimension {m.shape[0]} does not match {len(self.subset)} qubits"
            )
        if not np.allclose(m, m.conj().T, atol=atol):
            raise InternalInconsistency("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > atol:
            raise InternalInconsistency(f"density matrix trace {tr}")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -atol:
            raise InternalInconsistency(f"negative eigenvalue {eigs.min()}")


class QuantumRegister:
    """Dense state vector over live qubits with stable integer handles.

    Qubit ids are never reused within one register's lifetime.  Every
    measurement helper exists in a forced-branch form (``project_*``), which
    collapses onto a chosen outcome and returns its exact probability, and a
    sampling form (``*_measure`` / ``measure_single``) built on top of it.
    """

    def __init__(self) -> None:
        self._amps = np.ones(1, dtype=complex)
        self._order: list[QubitId] = []
        self._pos: dict[QubitId, int] = {}
        self.owner: dict[QubitId, object] = {}
        self._next_id = 0
        # High-water mark of live qubits over the register's lifetime.
        self.peak_qubits = 0

    # -- introspection -------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self._order)

    def live_qubits(self) -> tuple[QubitId, ...]:
        return tuple(self._order)

    def is_live(self, q: QubitId) -> bool:
        return q in self._pos

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def state_vector(self, order: Sequence[QubitId] | None = None) -> np.ndarray:
        """Amplitudes, optionally permuted to put ``order[j]`` at position j."""
        if order is None:
            return self._amps.copy()
        if sorted(order) != sorted(self._order):
            raise UnknownQubit(f"order {order} is not a permutation of live qubits")
        perm = [self._pos[q] for q in order]
        return np.transpose(self._tensor(), perm).reshape(-1).copy()

    def copy(self) -> "QuantumRegister":
        dup = QuantumRegister()
        dup._amps = self._amps.copy()
        dup._order = list(self._order)
        dup._pos = dict(self._pos)
        dup.owner = dict(self.owner)
        dup._next_id = self._next_id
        dup.peak_qubits = self.peak_qubits
        return dup

    # -- allocation -----------------------------------------------------------

    def alloc_qubit(self, value: int, owner: object = None) -> QubitId:
        """Append one qubit in |0> or |1>."""
        if value not in (0, 1):
            raise ValueError(f"basis value must be 0 or 1, got {value}")
        vec = np.zeros(2, dtype=complex)
        vec[value] = 1.0
        return self._grow(vec, 1, (owner,))[0]

    def alloc_bell_pair(
        self, kind: BellKind, owners: tuple[object, object] = (None, None)
    ) -> tuple[QubitId, QubitId]:
        """Append two qubits in the exact Bell state of ``kind``."""
        ids = self._grow(kind.vector, 2, owners)
        return ids[0], ids[1]

    def alloc_state(
        self, vector: np.ndarray, owner: object = None
    ) -> tuple[QubitId, ...]:
        """Append a block of qubits carrying an arbitrary normalized state."""
        vec = np.asarray(vector, dtype=complex).reshape(-1)
        n = int(np.log2(vec.size))
        if 2**n != vec.size or vec.size < 2:
            raise DimensionMismatch(f"state length {vec.size} is not a power of two")
        if abs(np.linalg.norm(vec) - 1.0) > NORM_ATOL:
            raise NotNormalized(f"state norm {np.linalg.norm(vec)}")
        return self._grow(vec, n, (owner,) * n)

    def _grow(
        self, vec: np.ndarray, count: int, owners: tuple[object, ...]
    ) -> tuple[QubitId, ...]:
        if self.num_qubits + count > MAX_LIVE_QUBITS:
            raise CapacityError(
                f"register would hold {self.num_qubits + count} qubits "
                f"(cap {MAX_LIVE_QUBITS})"
            )
        self._amps = (self._amps[:, None] * vec[None, :]).reshape(-1)
        ids = []
        for owner in owners:
            q = self._next_id
            self._next_id += 1
            self._pos[q] = len(self._order)
            self._order.append(q)
            if owner is not None:
                self.owner[q] = owner
            ids.append(q)
        self.peak_qubits = max(self.peak_qubits, len(self._order))
        return tuple(ids)

    # -- unitaries ------------------------------------------------------------

    def apply_pauli(self, q: QubitId, op: Pauli) -> None:
        p = self._position(q)
        if op is Pauli.I:
            return
        t = self._amps.reshape(1 << p, 2, -1)
        # X, Z and ZX are signed permutations; slice instead of multiplying.
        if op is Pauli.X:
            self._amps = t[:, ::-1, :].reshape(-1)
        elif op is Pauli.Z:
            flipped = t.copy()
            flipped[:, 1, :] *= -1.0
            self._amps = flipped.reshape(-1)
        else:  # ZX: X first, then Z
            swapped = t[:, ::-1, :].copy()
            swapped[:, 1, :] *= -1.0
            self._amps = swapped.reshape(-1)

    # -- Bell-basis measurement -------------------------------------------------

    def bell_probabilities(self, qa: QubitId, qb: QubitId) -> np.ndarray:
        """Probabilities of the four Bell outcomes on the pair (qa, qb)."""
        comps = self._pair_components(qa, qb)
        return (np.abs(comps) ** 2).sum(axis=1)

    def project_bell(self, qa: QubitId, qb: QubitId, kind: BellKind) -> float:
        """Collapse (qa, qb) onto one Bell state; remove them; return the probability."""
        comps = self._pair_components(qa, qb)
        branch = comps[kind.value]
        prob = float(np.real(np.vdot(branch, branch)))
        if prob <= PROB_FLOOR:
            raise InternalInconsistency(
                f"projected onto a zero-probability branch ({kind.label}, p={prob})"
            )
        self._amps = (branch / np.sqrt(prob)).reshape(-1)
        self._drop(qa, qb)
        return prob

    def bell_measure(self, qa: QubitId, qb: QubitId, rng: RandomSource) -> BellKind:
        """Sample a Bell outcome on (qa, qb), collapse, and remove the pair."""
        comps = self._pair_components(qa, qb)
        probs = (np.abs(comps) ** 2).sum(axis=1)
        k = born_sample(probs, rng)
        prob = float(probs[k])
        if prob <= PROB_FLOOR:
            raise InternalInconsistency("sampled a zero-probability Bell branch")
        self._amps = (comps[k] / np.sqrt(prob)).reshape(-1)
        self._drop(qa, qb)
        return BellKind(k)

    def _pair_components(self, qa: QubitId, qb: QubitId) -> np.ndarray:
        if qa == qb:
            raise ValueError(f"need two distinct qubits, got {qa} twice")
        pa = self._position(qa)
        pb = self._position(qb)
        axes = (pa, pb) + tuple(
            i for i in range(self.num_qubits) if i != pa and i != pb
        )
        t = self._tensor().transpose(axes).reshape(4, -1)
        return _BELL_CONJ @ t

    # -- single-qubit measurement ------------------------------------------------

    def single_probabilities(self, q: QubitId, basis: str) -> np.ndarray:
        comps = self._single_components(q, basis)
        return (np.abs(comps) ** 2).sum(axis=1)

    def project_single(
        self, q: QubitId, basis: str, outcome: int, remove: bool = True
    ) -> float:
        """Collapse ``q`` onto one basis outcome and return its probability.

        With ``remove=False`` the qubit stays in the register in the
        post-measurement eigenstate (used to model an interceptor who
        forwards the collapsed qubit).
        """
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        comps = self._single_components(q, basis)
        return self._collapse_single(q, basis, comps, outcome, remove)

    def _collapse_single(
        self, q: QubitId, basis: str, comps: np.ndarray, outcome: int, remove: bool
    ) -> float:
        branch = comps[outcome]
        prob = float(np.real(np.vdot(branch, branch)))
        if prob <= PROB_FLOOR:
            raise InternalInconsistency(
                f"projected onto a zero-probability outcome ({basis}={outcome})"
            )
        residual = branch / np.sqrt(prob)
        if remove:
            self._amps = residual.reshape(-1)
            self._drop(q)
        else:
            p = self._position(q)
            pre = 1 << p
            basis_vec = _BASIS_MATRIX[basis][outcome]
            full = basis_vec[:, None] * residual[None, :]
            self._amps = full.reshape(2, pre, -1).transpose(1, 0, 2).reshape(-1)
        return prob

    def measure_single(
        self, q: QubitId, basis: str, rng: RandomSource, remove: bool = True
    ) -> int:
        """Sample a Z- or X-basis outcome for ``q`` and collapse."""
        comps = self._single_components(q, basis)
        probs = (np.abs(comps) ** 2).sum(axis=1)
        outcome = born_sample(probs, rng)
        self._collapse_single(q, basis, comps, outcome, remove)
        return outcome

    def _single_components(self, q: QubitId, basis: str) -> np.ndarray:
        _check_basis(basis)
        p = self._position(q)
        t = self._amps.reshape(1 << p, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        return _BASIS_CONJ[basis] @ t

    # -- density matrices ----------------------------------------------------------

    def reduced_density(self, subset: Sequence[QubitId]) -> DensityMatrix:
        """Partial trace over the complement of ``subset`` (given order kept)."""
        ids = list(subset)
        if not ids:
            raise ValueError("subset must be nonempty")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate qubit ids in subset {ids}")
        keep = [self._position(q) for q in ids]
        rest = [i for i in range(self.num_qubits) if i not in keep]
        mat = np.transpose(self._tensor(), keep + rest).reshape(2 ** len(keep), -1)
        rho = mat @ mat.conj().T
        return DensityMatrix(rho, tuple(ids))

    # -- internals -------------------------------------------------------------

    def _tensor(self) -> np.ndarray:
        return self._amps.reshape((2,) * self.num_qubits)

    def _position(self, q: QubitId) -> int:
        try:
            return self._pos[q]
        except KeyError:
            raise UnknownQubit(f"qubit {q} is not live in this register") from None

    def _drop(self, *qs: QubitId) -> None:
        dead = set(qs)
        self._order = [q for q in self._order if q not in dead]
        self._pos = {q: i for i, q in enumerate(self._order)}
        for q in dead:
            self.owner.pop(q, None)


# -- state comparison metrics ----------------------------------------------------


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``|<a|b>|**2`` for pure-state vectors; global-phase insensitive."""
    va = np.asarray(a, dtype=complex).reshape(-1)
    vb = np.asarray(b, dtype=complex).reshape(-1)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"state dimensions {va.size} vs {vb.size}")
    return float(abs(np.vdot(va, vb)) ** 2)


def trace_distance(
    r: DensityMatrix | np.ndarray, s: DensityMatrix | np.ndarray
) -> float:
    """Half the sum of absolute eigenvalues of ``r - s``."""
    mr = r.entries if isinstance(r, DensityMatrix) else np.asarray(r, dtype=complex)
    ms = s.entries if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
    if mr.shape != ms.shape:
        raise DimensionMismatch(f"density dimensions {mr.shape} vs {ms.shape}")
    eigs = np.linalg.eigvalsh(mr - ms)
    return float(0.5 * np.abs(eigs).sum())


def pure_density(vector: np.ndarray) -> np.ndarray:
    vec = np.asarray(vector, dtype=complex).reshape(-1)
    return np.outer(vec, vec.conj())


# -- withheld-record predictions ---------------------------------------------------


def replace_with_mixed(rho: np.ndarray, position: int) -> np.ndarray:
    """Trace out one qubit and put a maximally mixed qubit back in its slot."""
    dim = rho.shape[0]
    n = int(np.log2(dim))
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range for {n} qubits")
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    rest = np.trace(t, axis1=position, axis2=n + position).reshape(dim // 2, dim // 2)
    full = np.kron(np.eye(2, dtype=complex) / 2.0, rest).reshape((2,) * (2 * n))
    return np.moveaxis(full, (0, n), (position, n + position)).reshape(dim, dim)


def apply_single_qubit_channel(
    rho: np.ndarray, position: int, kraus: Sequence[np.ndarray]
) -> np.ndarray:
    """Apply the channel ``rho -> sum_k K rho K^dagger`` to one qubit.

    The 2x2 Kraus operators ``kraus`` act on tensor position ``position``;
    they need not be trace preserving.  The channel is applied as one
    superoperator ``S = sum_k K (x) conj(K)`` on the (row, column) index pair
    of that qubit, a single (4, 4) x (4, 4**(n-1)) matrix product.
    """
    dim = rho.shape[0]
    n = int(np.log2(dim))
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range for {n} qubits")
    sup = sum(np.kron(k, np.conj(k)) for k in kraus)
    axes = (position, n + position)
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    t = np.moveaxis(t, axes, (0, 1))
    out = (sup @ t.reshape(4, -1)).reshape(t.shape)
    return np.moveaxis(out, (0, 1), axes).reshape(dim, dim)


def sealed_mixture(psi: np.ndarray, positions: Iterable[int]) -> np.ndarray:
    """Knowledge state when the records for ``positions`` are all withheld.

    Starting from the pure projector of ``psi``, each withheld slot is
    replaced by a maximally mixed qubit tensored with the partial trace over
    that slot; the replacements commute, so the order does not matter.
    """
    rho = pure_density(psi)
    for p in sorted(set(positions)):
        rho = replace_with_mixed(rho, p)
    return rho


def expected_withheld_density(psi: np.ndarray, withheld_position: int) -> DensityMatrix:
    """Prediction for a single withheld slot: :func:`sealed_mixture` of
    ``psi`` over that one slot, as a density matrix over all its qubits."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    n = int(np.log2(vec.size))
    if 2**n != vec.size:
        raise DimensionMismatch(f"state length {vec.size} is not a power of two")
    if abs(np.linalg.norm(vec) - 1.0) > NORM_ATOL:
        raise NotNormalized(f"state norm {np.linalg.norm(vec)}")
    if not 0 <= withheld_position < n:
        raise ValueError(f"position {withheld_position} out of range for {n} qubits")
    return DensityMatrix(sealed_mixture(vec, [withheld_position]), tuple(range(n)))


def insert_product_qubits(
    state: np.ndarray,
    placements: Sequence[int],
    factors: Sequence[np.ndarray],
) -> np.ndarray:
    """Tensor extra single-qubit factors into ``state`` at given 0-based slots.

    The original qubits keep their relative order and fill the remaining
    slots; ``placements`` must be distinct and inside the extended width.
    """
    vec = np.asarray(state, dtype=complex).reshape(-1)
    n = int(np.log2(vec.size))
    m = len(placements)
    if len(factors) != m:
        raise ValueError(f"{m} placements but {len(factors)} factors")
    total = n + m
    if len(set(placements)) != m or any(not 0 <= p < total for p in placements):
        raise ValueError(f"placements {placements} invalid for width {total}")
    ext = vec
    for f in factors:
        factor = np.asarray(f, dtype=complex).reshape(2)
        ext = (ext[:, None] * factor[None, :]).reshape(-1)
    src_of_dest: list[int] = []
    inserted = {int(p): n + j for j, p in enumerate(placements)}
    original = iter(range(n))
    for dest in range(total):
        src_of_dest.append(inserted.get(dest, -1))
        if src_of_dest[-1] == -1:
            src_of_dest[-1] = next(original)
    return np.transpose(ext.reshape((2,) * total), src_of_dest).reshape(-1)
