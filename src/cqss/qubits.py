"""Exact state-vector simulation of small qubit registers.

The register stores its state as a product of blocks: each block is a
complex amplitude vector over its own ordered qubits.  The map from each
live qubit to its block is the one index of live blocks: a block is live
exactly while some live qubit maps to it, so retiring one costs nothing.
Allocation adds a block; a measurement shrinks one block, and a block
measured down to no qubits folds its leftover scalar into a register phase.
A Bell measurement whose pair spans two blocks never multiplies them out:
the outcome probabilities come from each block's 2x2 Gram matrix over its
measured qubit, and only the kept branch is built, as one block over both
blocks' other qubits (n_A + n_B - 2).

Paulis are not applied when they are asked for.  Each block carries a
pending Pauli frame, two bitmasks over its tensor positions: ``Z^z X^x``
(X first) is owed on the positions set in ``zmask`` and ``xmask``, and
:meth:`QuantumRegister.apply_pauli` only XORs the masks, folding the sign
of the composition into the register phase (Knill, Nature 434, 39, 2005;
Aaronson and Gottesman, PRA 70, 052328, 2004).  Before anything reads a
block's amplitudes (a measurement, ``reduced_density``, ``state_vector``)
the whole frame is applied in one flush, :func:`_flushed`: every pending
X in one permuting copy (a plain copy if only Zs are owed), then each
pending Z as a sign flip in that copy.  A Pauli is a signed permutation,
so the flushed block is the one that applying each Pauli at once would
have left, up to an exact sign that the phase already holds, and every
draw keeps its bytes.  The whole block is flushed, not only the read
qubit: a pending X on a neighbour permutes the order in which sums over
the block run.  Teleporting a qubit over a fresh singlet needs no link:
every outcome has probability 1/4 and leaves the far half with the
qubit's state twisted by a known signed Pauli, so
:meth:`QuantumRegister.teleport` adds the twist to the frame and relabels
the qubit's tensor position, touching no array.  The receiver's correction
is the same Pauli, so a released qubit's frame cancels and its amplitudes
never move.  A swap of a secret qubit therefore leaves the secret's block
at its width, and qubits that never meet the secret (decoys, split-record
halves) never multiply its vector.  A link that an eavesdropper taps is
not built either: after her measurement it is one of two constant states,
so :meth:`QuantumRegister.tapped_teleport` reads it from a table.  A
constant block (a decoy, tapped or checked, or a split record's Bell pair)
is measured from what the general path computed once, at import: one
table, ``_KNOWN`` (:func:`_known_table`), keyed by amplitude bytes, frame
and measurement, holds the running sums and each outcome's scalar, kept
branch or error, and one reader, :meth:`QuantumRegister._measure_known`,
applies it; any other block takes the general path.  Draws from constant
probabilities read running sums built at import (:func:`born_draw`).
Fresh qubits that are measured out
whole, whose outcome probabilities and leftover scalar are therefore
constants, need no block: :meth:`QuantumRegister.fold_measured_out` spends
their ids and folds the scalar.  ``state_vector`` and ``reduced_density``
multiply blocks out on demand.

One memory rule bounds every array: none may span more than
``MAX_ARRAY_QUBITS`` (24) qubits, where a density matrix over k qubits spans
2k.  :func:`check_array_qubits` applies it before anything is allocated, to
a new block, to a product of blocks and to a density matrix, so 2**24
complex entries (256 MiB) bound both a block and a 2**12 x 2**12 matrix.
A second rule keeps each array once: nothing writes the array a block
holds.  Every step that changes a block installs a new array, and the
flush writes only the copy it makes.  So a block may hold a read-only
array, shared with whoever else reads it: a row of a basis or Bell table,
a kept branch of ``_KNOWN``, or a run's one copy of its secret.

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
* A sampled measurement is the forced collapse onto a drawn outcome.  Every
  kept branch is normalized by its own norm (:func:`_normalize`), scaling by
  the reciprocal, ``x * (1.0 / s)``: NumPy's complex-by-real division gives
  the same finite floats at several times the cost.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatch,
    InternalInconsistency,
    NotNormalized,
    UnknownQubit,
)

MAX_ARRAY_QUBITS = 24

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

    A kind hashes by identity, in C: members are singletons and compare by
    identity, and ``Enum.__hash__`` is Python code.  The hash differs from
    process to process, so nothing iterates a set of kinds into output.
    """

    PHI_MINUS = 0
    PHI_PLUS = 1
    VARPHI_MINUS = 2
    VARPHI_PLUS = 3

    __hash__ = object.__hash__

    # These read ``_value_``: the ``value`` property costs ten times as much.

    @property
    def bits(self) -> tuple[int, int]:
        return _BELL_BITS[self._value_]

    @property
    def label(self) -> str:
        return _BELL_LABELS[self._value_]

    @property
    def vector(self) -> np.ndarray:
        """Amplitudes of this Bell state in |00>,|01>,|10>,|11> order."""
        return _BELL_MATRIX[self._value_].copy()


# Indexed by value; a tuple index is cheaper than BellKind(k).
_BELL_KINDS = tuple(BellKind)
_BELL_BITS = tuple((k >> 1, k & 1) for k in range(4))
# The same pairs as a transcript writes them.
_BIT_TEXT = ("00", "01", "10", "11")
_BELL_LABELS = ("phi-", "phi+", "varphi-", "varphi+")

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
# The same indexed by the outcome's value: ``Enum.__hash__`` is Python code.
_CORRECTIONS = tuple(CORRECTION_FOR_OUTCOME[kind] for kind in _BELL_KINDS)
# The bits ``(z, x)`` of each Pauli ``Z^z X^x``, keyed by its value.
_PAULI_FRAME = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "ZX": (1, 1)}

# Teleporting a qubit over a fresh PHI_MINUS singlet (mu, nu), in closed
# form.  Projecting (q, mu) onto outcome k leaves nu carrying
# ``(W_k L)^T`` applied to q's state, where W_k is outcome k's row of
# ``_BELL_W`` and L = [[0, 1], [-1, 0]] / sqrt(2) the singlet's amplitudes
# (rows mu, columns nu).  ``2 (W_k L)^T`` is ``sign * P.matrix`` for the
# Pauli ``P = CORRECTION_FOR_OUTCOME[k]``, its own inverse up to sign, so
# every outcome has probability exactly 1/4 (Bennett et al., PRL 70, 1895,
# 1993).  Row k holds P's frame bits and the sign, ``(z, x, sign)``: -I,
# -Z, X and -ZX in outcome order.
_TWIST = tuple(
    _PAULI_FRAME[op.value] + (sign,)
    for op, sign in zip(_CORRECTIONS, (-1.0, -1.0, 1.0, -1.0))
)

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
# Row k as a 2x2 matrix W_k[i, j] = conj(Bell_k[2i + j]): across two blocks
# with their measured qubits as rows, A (2 x r_A) and B (2 x r_B), outcome
# k's branch is A^T W_k B.
_BELL_W = _BELL_CONJ.reshape(4, 2, 2)
# The same contraction against the blocks' Gram matrices: with
# rho_a = A A^dagger and rho_b = B B^dagger, the four Bell probabilities
# <Bell_k| rho_a (x) rho_b |Bell_k> are the real part of
# ``_BELL_GRAM @ outer(rho_a, rho_b).reshape(16)``.
_BELL_GRAM = np.einsum(
    "kij,kIJ->kiIjJ", _BELL_W, _BELL_MATRIX.reshape(4, 2, 2)
).reshape(4, 16)
_BELL_GRAM.setflags(write=False)
_BASIS_CONJ = {name: mat.conj() for name, mat in _BASIS_MATRIX.items()}
for _m in _BASIS_CONJ.values():
    _m.setflags(write=False)


def check_array_qubits(qubits: int, what: str) -> None:
    """Raise :class:`CapacityError` if ``what`` would span more than
    ``MAX_ARRAY_QUBITS`` qubits; called before the array is allocated."""
    if qubits > MAX_ARRAY_QUBITS:
        raise CapacityError(
            f"{what} would span {qubits} qubits (cap {MAX_ARRAY_QUBITS})"
        )


def _as_state(vector: np.ndarray) -> tuple[np.ndarray, int]:
    """A flat complex copy of ``vector`` and its qubit count, checked to be a
    normalized vector of power-of-two length (at least two), its length and
    the memory rule (:func:`check_array_qubits`) checked before the copy."""
    vec = np.asarray(vector)
    size = vec.size
    n = size.bit_length() - 1
    if size < 2 or size != 1 << n:
        raise DimensionMismatch(f"state length {size} is not a power of two")
    check_array_qubits(n, "a state")
    vec = np.array(vec, dtype=complex).reshape(-1)
    norm = math.sqrt(np.vdot(vec, vec).real)
    if abs(norm - 1.0) > NORM_ATOL:
        raise NotNormalized(f"state norm {norm}")
    return vec, n


def _entropy_words(seed: object) -> object:
    """``seed`` as the ``uint32`` words that ``SeedSequence`` builds from it:
    each non-negative int's 32-bit words, least significant first (0 as
    one word), a tuple's entries one after another.  NEP 19 fixes that
    coercion and the mixing after it, so the stream keeps its bytes, and
    numpy's own coercion runs in Python, at more than the cost of the rest
    of ``SeedSequence``.  Anything else (a negative int, a bool, a numpy
    integer, a float, a list) is returned unchanged, for numpy to read or
    refuse as it does."""
    words: list[int] = []
    for value in seed if type(seed) is tuple else (seed,):
        if type(value) is not int or value < 0:
            return seed
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return np.array(words, dtype=np.uint32)


class RandomSource:
    """Deterministic uniform stream used for all Born-rule sampling.

    Identical seeds reproduce identical outcome sequences bit for bit.
    Per-trial sources are derived from ``(master_seed, trial_index)`` so a
    batch of trials gives the same per-trial results whether executed
    serially or in parallel.

    A phase whose every draw is a :meth:`random` may take them all at once
    with :meth:`ahead`: for PCG64, ``Generator.random(k)`` fills its k
    doubles one after another from the same 64-bit outputs that k calls of
    ``random()`` read, so the stream, and every draw after the phase, keeps
    its bytes.  An untapped distribution (one draw per slot) and a record
    transport (two per record) draw ahead.  A tapped distribution cannot:
    the eavesdropper's basis draw, ``integers(2)``, reads half of a 64-bit
    output and keeps the other half for the next such draw, so moving the
    doubles past it would change which outputs each draw reads.
    """

    def __init__(self, seed: int | tuple[int, ...]):
        entropy = _entropy_words(seed)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def random(self) -> float:
        return self._gen.random()

    def uniforms(self, k: int) -> list[float]:
        """The next ``k`` draws of :meth:`random`, taken in one call."""
        return self._gen.random(k).tolist()

    def ahead(self, k: int) -> "_Ahead":
        """The next ``k`` draws of :meth:`random`, taken now in one call,
        served in order by the returned source's ``random``; its ``done``
        checks that exactly ``k`` were served."""
        return _Ahead(self.uniforms(k))

    def integers(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._gen.integers(n))

    def integer_draws(self, n: int, count: int) -> list[int]:
        """The next ``count`` draws of :meth:`integers`, in one call: numpy
        reads the same half-words of the stream for both."""
        return self._gen.integers(n, size=count).tolist()

    def sample_positions(self, total: int, count: int) -> tuple[int, ...]:
        """Uniform sample of ``count`` distinct 1-based positions, ascending."""
        if count > total:
            raise ValueError(f"cannot sample {count} positions from {total}")
        picked = self._gen.choice(total, size=count, replace=False).tolist()
        return tuple([p + 1 for p in sorted(picked)])

    def complex_normals(self, n: int) -> np.ndarray:
        """``a + 1j * b`` for ``n`` draws of ``a`` and then of ``b``."""
        out = np.empty(n, dtype=complex)
        out.real = self._gen.standard_normal(n)
        out.imag = self._gen.standard_normal(n)
        return out


class _Ahead:
    """Uniform draws taken ahead by :meth:`RandomSource.ahead`, served in
    order by :meth:`random`.  Serving more than were taken, or finishing
    (:meth:`done`) with some unserved, raises ``InternalInconsistency``: a
    phase that draws a different number than it took has moved the stream."""

    __slots__ = ("_draws", "_served")

    def __init__(self, draws: list[float]):
        self._draws = draws
        self._served = 0

    def random(self) -> float:
        i = self._served
        self._served = i + 1
        try:
            return self._draws[i]
        except IndexError:
            raise InternalInconsistency(
                f"draw {i + 1} asked of {len(self._draws)} taken ahead"
            ) from None

    def done(self) -> None:
        if self._served != len(self._draws):
            raise InternalInconsistency(
                f"{self._served} draws served of {len(self._draws)} taken ahead"
            )


def born_cdf(probs: Sequence[float] | np.ndarray) -> tuple[float, ...]:
    """Running sums of a computed probability vector, for :func:`born_draw`.

    Negatives within ``PROB_FLOOR`` of zero are clamped; the draw then
    renormalizes, provided the sum is within ``NORM_ATOL`` of one.  Larger
    deviations, and a NaN anywhere, are not statistical noise and raise
    ``InternalInconsistency``.
    """
    p = np.asarray(probs, dtype=float).tolist()
    low = min(p)
    if low < 0.0:
        if low < -PROB_FLOOR:
            raise InternalInconsistency(f"negative branch probability: {p}")
        p = [0.0 if x < 0.0 else x for x in p]  # keeps a NaN
    acc = tuple(itertools.accumulate(p))
    total = acc[-1]
    if not abs(total - 1.0) <= NORM_ATOL:
        raise InternalInconsistency(f"branch probabilities sum to {total}")
    return acc


def born_draw(cdf: Sequence[float], rng: RandomSource) -> int:
    """Inverse-CDF sample: the first branch whose running sum exceeds
    ``u = r * total``, ``total`` being the last running sum, or the last
    branch should rounding put ``u`` at the total.  It reads one draw,
    ``rng.random()``, so ``rng`` may be the source of draws a phase took
    ahead (:meth:`RandomSource.ahead`), which serves the same doubles."""
    k = bisect.bisect_right(cdf, rng.random() * cdf[-1])
    return k if k < len(cdf) else len(cdf) - 1


def born_sample(probs: Sequence[float] | np.ndarray, rng: RandomSource) -> int:
    """``born_draw(born_cdf(probs), rng)``."""
    return born_draw(born_cdf(probs), rng)


# Teleporting over a fresh singlet draws from four exact quarters, each
# outcome forced by the draw at which its quarter starts.
_TELEPORT_CDF = born_cdf((0.25, 0.25, 0.25, 0.25))
_TELEPORT_FORCED = (0.0, *_TELEPORT_CDF[:-1])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over an ordered qubit subset.

    ``subset`` records which qubits (or protocol-level indices) the rows and
    columns refer to, in tensor order.
    """

    entries: np.ndarray
    subset: tuple[int, ...]

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


@dataclass(eq=False, slots=True)
class _Block:
    """One factor of the register's product state: ``amps`` over ``qubits``,
    tensor position j holding ``qubits[j]``, with ``Z^z X^x`` still owed on
    it, bit j of ``zmask`` and ``xmask`` standing for position j.  Read the
    amplitudes through :func:`_flushed`.  Nothing writes ``amps``: a change
    installs a new array, so ``amps`` may be read-only and shared.
    Compared by identity."""

    amps: np.ndarray
    qubits: list[QubitId]
    xmask: int = 0
    zmask: int = 0


def _flushed(block: _Block) -> np.ndarray:
    """``block``'s amplitudes with its pending frame applied, which leaves
    the frame empty.  With anything owed, the block's array is replaced by
    one new array: the pending Xs permute into it, or it is a plain copy,
    then each pending Z flips the signs of its half there.  This writes
    only the array it allocates, never the one the block held.  Both steps
    are exact, so the result differs from applying the Paulis one by one
    at most by a sign, the one the phase took."""
    x, z = block.xmask, block.zmask
    if not (x or z):
        return block.amps
    n = len(block.qubits)
    t = block.amps.reshape((2,) * n)
    if x:
        t = np.flip(t, tuple(p for p in range(n) if x >> p & 1))
    t = t.copy().reshape(-1)
    for p in range(n):
        if z >> p & 1:
            t.reshape(1 << p, 2, -1)[:, 1, :] *= -1.0
    block.amps = t
    block.xmask = block.zmask = 0
    return t


def _product(blocks: Collection[_Block]) -> tuple[np.ndarray, list[QubitId]]:
    """Tensor product of ``blocks`` and its qubit order (for one block, that
    block's own array)."""
    qubits = [q for block in blocks for q in block.qubits]
    check_array_qubits(len(qubits), "a product of blocks")
    amps = None
    for block in blocks:
        block_amps = _flushed(block)
        amps = block_amps if amps is None else (amps[:, None] * block_amps).reshape(-1)
    return (np.ones(1, dtype=complex) if amps is None else amps), qubits


def _qubit_rows(amps: np.ndarray, p: int) -> np.ndarray:
    """``amps`` as a (2, rest) matrix whose row is tensor position ``p``'s
    index and whose column runs over the other positions in order."""
    if p == 0:
        return amps.reshape(2, -1)
    return amps.reshape(1 << p, 2, -1).transpose(1, 0, 2).reshape(2, -1)


def _cross_branch(ma: np.ndarray, mb: np.ndarray, k: int) -> np.ndarray:
    """Outcome ``k``'s unnormalized branch of a pair split across two blocks
    (see :func:`_bell_probabilities`): ``ma^T W_k mb``, rows over ``ma``'s
    other qubits and columns over ``mb``'s, the order a merged block would
    give them."""
    return ma.T.dot(_BELL_W[k].dot(mb))


def _bell_probabilities(
    a: _Block, ma: np.ndarray, b: _Block, mb: np.ndarray | None
) -> np.ndarray:
    """Bell probabilities from :meth:`QuantumRegister._bell_operands`: in one
    block the squared row norms of the Bell components; across two, each
    block's 2x2 Gram matrix over its measured qubit contracted with
    ``_BELL_GRAM`` (:func:`_gram_probabilities`), so no branch is built."""
    if a is b:
        return (np.abs(ma) ** 2).sum(axis=1)
    return _gram_probabilities(ma, mb.dot(mb.conj().T))


def _gram_probabilities(ma: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Cross-block Bell probabilities from ``ma`` and the other Gram matrix."""
    rho_a = ma.dot(ma.conj().T)
    return _BELL_GRAM.dot((rho_a.reshape(4, 1) * rho_b.reshape(4)).reshape(16)).real


def _normalize(branch: np.ndarray, what: str, outcome: object) -> float:
    """Scale ``branch``, which nothing else reads, in place to unit norm and
    return its probability; one at most ``PROB_FLOOR`` raises instead."""
    prob = float(np.vdot(branch, branch).real)
    if prob <= PROB_FLOOR:
        raise InternalInconsistency(
            f"projected onto a zero-probability branch ({what}={outcome}, p={prob})"
        )
    branch *= 1.0 / math.sqrt(prob)
    return prob


class QuantumRegister:
    """Product of blocks over live qubits with stable integer handles.

    Qubit ids are never reused within one register's lifetime.  Every
    measurement has a forced form (``project_*``), which collapses onto a
    chosen outcome and returns its exact probability, and a sampled form
    (``bell_measure`` / ``measure_single``), which is the same collapse onto
    a drawn outcome and so leaves the same state bit for bit.

    The qubit -> block map is the one index of live blocks; a reader that
    needs each block once takes ``dict.fromkeys`` of its values, which
    orders the blocks by their earliest live qubit.
    """

    def __init__(self) -> None:
        self._block_of: dict[QubitId, _Block] = {}
        # Scalars of blocks measured down to no qubits: the global phase.
        self._phase = 1.0 + 0.0j
        self._next_id = 0
        # High-water mark of the largest block.
        self.peak_block_qubits = 0

    # -- introspection -------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self._block_of)

    def live_qubits(self) -> tuple[QubitId, ...]:
        """Live qubit ids in allocation order."""
        return tuple(sorted(self._block_of))

    def state_vector(self, order: Sequence[QubitId] | None = None) -> np.ndarray:
        """Amplitudes over all live qubits, ``order[j]`` at position j
        (allocation order by default); the blocks are flushed and multiplied
        out here, and transposed unless they are in ``order`` already."""
        if order is None:
            order = self.live_qubits()
        elif len(order) != len(self._block_of) or self._block_of.keys() != set(order):
            raise UnknownQubit(f"order {order} is not a permutation of live qubits")
        amps, qubits = _product(dict.fromkeys(self._block_of.values()))
        amps = self._phase * amps  # a new array, never a block's own
        if qubits == list(order):
            return amps
        perm = [qubits.index(q) for q in order]
        return np.transpose(amps.reshape((2,) * len(qubits)), perm).reshape(-1)

    def copy(self) -> "QuantumRegister":
        dup = type(self)()
        dups = {
            b: _Block(b.amps.copy(), list(b.qubits), b.xmask, b.zmask)
            for b in dict.fromkeys(self._block_of.values())
        }
        dup._block_of = {q: dups[b] for q, b in self._block_of.items()}
        dup._phase = self._phase
        dup._next_id = self._next_id
        dup.peak_block_qubits = self.peak_block_qubits
        return dup

    # -- allocation -----------------------------------------------------------

    def alloc_qubit(self, value: int) -> QubitId:
        """Add one qubit in |0> or |1>, as its own block."""
        if value not in (0, 1):
            raise ValueError(f"basis value must be 0 or 1, got {value}")
        return self._grow(_BASIS_MATRIX[BASIS_Z][operator.index(value)], 1)[0]

    def alloc_bell_pair(self, kind: BellKind) -> tuple[QubitId, QubitId]:
        """Add two qubits in the exact Bell state of ``kind``, as one block."""
        ids = self._grow(_BELL_MATRIX[kind._value_], 2)
        return ids[0], ids[1]

    def alloc_state(self, vector: np.ndarray) -> tuple[QubitId, ...]:
        """Add qubits carrying an arbitrary state, as one block.  The vector
        must be normalized (``NotNormalized``) and of power-of-two length
        (``DimensionMismatch``)."""
        vec, n = _as_state(vector)
        return self._grow(vec, n)

    def _grow(self, vec: np.ndarray, count: int) -> tuple[QubitId, ...]:
        """Add a new block of ``count`` qubits over fresh ids."""
        check_array_qubits(count, "a new block")
        ids = list(range(self._next_id, self._next_id + count))
        self._next_id += count
        block = _Block(vec, ids)
        for q in ids:
            self._block_of[q] = block
        self.peak_block_qubits = max(self.peak_block_qubits, count)
        return tuple(ids)

    def fold_measured_out(self, count: int, scalar: complex) -> None:
        """Account for ``count`` fresh qubits allocated and measured out whole
        without building them: their ids are spent, as :meth:`_grow` would
        spend them, and ``scalar``, what their emptied blocks would leave,
        folds into the phase as :meth:`_shrink` would fold it.  No array is
        made, so ``peak_block_qubits`` does not move."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._next_id += count
        self._phase *= scalar

    # -- unitaries ------------------------------------------------------------

    def apply_pauli(self, q: QubitId, op: Pauli) -> None:
        """:meth:`apply_paulis` of the one qubit ``q``."""
        self.apply_paulis((q,), (op,))

    def apply_paulis(self, qubits: Iterable[QubitId], ops: Iterable[Pauli]) -> None:
        """Owe each op on its qubit in turn, in one pass, touching no array:
        ``Z^z X^x`` over a pending ``Z^a X^b`` in the block's frame gives
        ``(-1)^(x a) Z^(z xor a) X^(x xor b)``, the sign negating the phase
        as applying the Paulis one by one would negate the block."""
        block_of, frame, phase = self._block_of, _PAULI_FRAME, self._phase
        try:
            for q, op in zip(qubits, ops, strict=True):
                block = block_of.get(q) or self._locate(q)[0]
                if type(op) is not Pauli:
                    raise ValueError(f"not a Pauli: {op!r}")
                p = block.qubits.index(q)
                z, x = frame[op._value_]
                if x and block.zmask >> p & 1:
                    phase = -phase
                block.xmask ^= x << p
                block.zmask ^= z << p
        finally:
            self._phase = phase

    # -- Bell-basis measurement -------------------------------------------------

    def bell_probabilities(self, qa: QubitId, qb: QubitId) -> np.ndarray:
        """Probabilities of the four Bell outcomes on the pair (qa, qb)."""
        return _bell_probabilities(*self._bell_operands(qa, qb))

    def project_bell(self, qa: QubitId, qb: QubitId, kind: BellKind) -> float:
        """Collapse (qa, qb) onto one Bell state; remove them; return the probability."""
        return self._collapse_bell(qa, qb, self._bell_operands(qa, qb), kind._value_)

    def bell_measure(self, qa: QubitId, qb: QubitId, rng: RandomSource) -> BellKind:
        """Sample a Bell outcome on (qa, qb), collapse, and remove the pair.

        The collapse of :meth:`project_bell`, onto an outcome that
        :func:`born_sample` draws from :meth:`bell_probabilities`.  A pair
        that is its whole block and a key of ``_KNOWN`` under its positions
        (a split record's Bell pair) is measured from what the general path
        computed once at import (:meth:`_measure_known`); any other pair
        takes the general path.
        """
        block = self._block_of.get(qa)
        if block is not None and self._block_of.get(qb) is block:
            order = block.qubits
            k = self._measure_known(block, (order.index(qa), order.index(qb)), rng)
            if k is not None:
                return _BELL_KINDS[k]
        operands = self._bell_operands(qa, qb)
        k = born_sample(_bell_probabilities(*operands), rng)
        self._collapse_bell(qa, qb, operands, k)
        return _BELL_KINDS[k]

    def project_teleport(self, q: QubitId, kind: BellKind) -> tuple[QubitId, float]:
        """Bell-measure ``q`` against half of a fresh PHI_MINUS singlet,
        forced onto ``kind``; return the singlet's far half, which now
        carries ``q``'s state, and the probability, exactly 1/4.

        The same collapse as ``mu, nu = alloc_bell_pair(PHI_MINUS)`` then
        ``project_bell(q, mu, kind)``, with the same two ids spent, in
        closed form: :meth:`teleport_all` on the draw at which ``kind``'s
        quarter starts.  The twist of ``_TWIST`` joins the frame of ``q``'s
        own tensor position, which ``nu`` takes over, and its sign folds
        into the phase.  No block is allocated, merged, renormalized or read
        (a signed permutation keeps the norm exactly), so no array is
        touched and ``peak_block_qubits`` does not move.
        """
        ((nu, _),) = self.teleport_all((q,), (_TELEPORT_FORCED[kind._value_],))
        return nu, 0.25

    def teleport(self, q: QubitId, rng: RandomSource) -> tuple[QubitId, BellKind]:
        """:meth:`teleport_all` of the one qubit ``q`` on one draw of
        ``rng``, taken once ``q`` is found live."""
        if q not in self._block_of:
            self._locate(q)  # raises before the draw
        return self.teleport_all((q,), (rng.random(),))[0]

    def teleport_all(self, qubits: Iterable[QubitId], draws: Iterable[float]) -> list:
        """Teleport each qubit in turn, in one pass, onto the outcome k that
        :func:`born_draw` reads off its draw (below 1, so never past the
        last quarter); return each far half and outcome.  ``_TWIST[k]``
        joins the frame of the qubit's position, its sign folds into the
        phase and the far half takes over the position, as
        :meth:`_hand_over` does.  No array is touched, and the phase's sign
        flips in the order of one teleport after another: no float moves."""
        block_of, cdf, twist, kinds = self._block_of, _TELEPORT_CDF, _TWIST, _BELL_KINDS
        phase, nu = self._phase, self._next_id - 1
        moved = []
        try:
            for q, r in zip(qubits, draws, strict=True):
                block = block_of.get(q) or self._locate(q)[0]
                p = block.qubits.index(q)
                k = bisect.bisect_right(cdf, r)
                z, x, sign = twist[k]
                if x and block.zmask >> p & 1:
                    phase = -phase
                block.xmask ^= x << p
                block.zmask ^= z << p
                phase *= sign
                nu += 2
                block.qubits[p] = nu
                del block_of[q]
                block_of[nu] = block
                moved.append((nu, kinds[k]))
        finally:
            self._phase, self._next_id = phase, nu + 1
        return moved

    def _hand_over(self, q: QubitId, block: _Block, p: int) -> QubitId:
        """Spend a singlet link's two ids, as allocating it would, and put
        its far half ``nu`` in ``q``'s place, position ``p`` of ``block``;
        return ``nu``."""
        nu = self._next_id + 1
        self._next_id += 2
        block.qubits[p] = nu
        del self._block_of[q]
        self._block_of[nu] = block
        return nu

    def project_tapped_teleport(
        self, q: QubitId, basis: str, bit: int, kind: BellKind
    ) -> tuple[QubitId, float, float]:
        """``mu, nu = alloc_bell_pair(PHI_MINUS)``, then
        ``project_single(nu, basis, bit, remove=False)`` (an eavesdropper's
        tap) and ``project_bell(q, mu, kind)``, with the same ids spent and
        the same floats, but no link built: ``mu``'s rows come from
        ``_TAP``.  Returns ``nu`` and the two probabilities."""
        if bit not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {bit}")
        block, p = self._locate(q)
        eve_prob, rows, _ = _tap_table(basis)[1][bit]
        ma = _qubit_rows(_flushed(block), p)
        nu, prob = self._tapped_collapse(q, block, ma, rows, kind._value_)
        return nu, eve_prob, prob

    def tapped_teleport(
        self, q: QubitId, basis: str, rng: RandomSource
    ) -> tuple[QubitId, int, BellKind]:
        """The collapse of :meth:`project_tapped_teleport` onto the drawn
        bit and outcome; returns ``nu``, the bit and the outcome.  After
        the bit is drawn, a block that is a key of ``_KNOWN`` under
        ``(basis, bit)`` (a decoy with nothing owed) is measured from what
        the general path computed once at import (:meth:`_measure_known`)
        and handed over to ``nu`` as a plain teleport is; any other block
        takes the general path."""
        block, p = self._locate(q)  # a qubit that is not live raises first
        cdf, links = _tap_table(basis)
        bit = born_draw(cdf, rng)
        k = self._measure_known(block, (basis, bit), rng)
        if k is not None:
            return self._hand_over(q, block, p), bit, _BELL_KINDS[k]
        _, rows, gram = links[bit]
        ma = _qubit_rows(_flushed(block), p)
        k = born_sample(_gram_probabilities(ma, gram), rng)
        nu, _ = self._tapped_collapse(q, block, ma, rows, k)
        return nu, bit, _BELL_KINDS[k]

    def _tapped_collapse(
        self, q: QubitId, block: _Block, ma: np.ndarray, rows: np.ndarray, k: int
    ) -> tuple[QubitId, float]:
        """Keep Bell outcome ``k`` of ``q`` (``ma``) against a link's
        ``rows``, as ``block`` less ``q`` plus ``nu`` last, where a merge
        would put it; return ``nu`` and the probability."""
        branch = _cross_branch(ma, rows, k)
        prob = _normalize(branch, "Bell", _BELL_LABELS[k])
        block.amps = branch.reshape(-1)
        block.qubits.remove(q)
        block.qubits.append(q)
        return self._hand_over(q, block, -1), prob

    def _bell_operands(
        self, qa: QubitId, qb: QubitId
    ) -> tuple[_Block, np.ndarray, _Block, np.ndarray | None]:
        """What a Bell measurement on (qa, qb) reads, as ``(a, ma, b, mb)``.

        In one block ``a is b``, ``ma`` holds its Bell components (row k is
        outcome k's branch over the other qubits) and ``mb`` is None.
        Across blocks, ``ma`` and ``mb`` are the two blocks with the measured
        qubit's index as rows (2 x rest); the residual over both blocks'
        other qubits is checked against the memory rule first.
        """
        if qa == qb:
            raise ValueError(f"need two distinct qubits, got {qa} twice")
        a, pa = self._locate(qa)
        b, pb = self._locate(qb)
        if a is b:
            n = len(a.qubits)
            axes = (pa, pb) + tuple(i for i in range(n) if i != pa and i != pb)
            t = _flushed(a).reshape((2,) * n).transpose(axes).reshape(4, -1)
            return a, _BELL_CONJ @ t, a, None
        check_array_qubits(
            len(a.qubits) + len(b.qubits) - 2, "a Bell measurement's residual"
        )
        return a, _qubit_rows(_flushed(a), pa), b, _qubit_rows(_flushed(b), pb)

    def _collapse_bell(self, qa: QubitId, qb: QubitId, operands: tuple, k: int) -> float:
        """Keep Bell outcome ``k`` of ``operands = (a, ma, b, mb)``, scaled to
        unit norm, as the state of ``a``'s qubits followed by ``b``'s, less
        the pair (qa, qb); ``b`` folds into ``a``.  Return its probability."""
        a, ma, b, mb = operands
        # In one block, a row of this call's component matrix: free to scale.
        branch = ma[k] if a is b else _cross_branch(ma, mb, k)
        prob = _normalize(branch, "Bell", _BELL_LABELS[k])
        if a is not b:
            a.qubits += b.qubits
            for q in b.qubits:
                self._block_of[q] = a
            self.peak_block_qubits = max(self.peak_block_qubits, len(a.qubits) - 2)
        self._shrink(a, branch, qa, qb)
        return prob

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
        residual = comps[outcome]  # a row of a matrix built for this call
        prob = _normalize(residual, basis, outcome)
        block, p = self._locate(q)
        if remove:
            self._shrink(block, residual, q)
        else:
            pre = 1 << p
            basis_vec = _BASIS_MATRIX[basis][outcome]
            full = basis_vec[:, None] * residual[None, :]
            block.amps = full.reshape(2, pre, -1).transpose(1, 0, 2).reshape(-1)
        return prob

    def measure_single(
        self, q: QubitId, basis: str, rng: RandomSource, remove: bool = True
    ) -> int:
        """Sample a Z- or X-basis outcome for ``q`` and collapse.  A removed
        qubit whose block is a key of ``_KNOWN`` under ``basis`` (a decoy,
        tapped or not) is measured from what the general path computed once
        at import (:meth:`_measure_known`); every other qubit takes the
        general path."""
        block = self._block_of.get(q)
        if remove and block is not None:
            outcome = self._measure_known(block, basis, rng)
            if outcome is not None:
                return outcome
        comps = self._single_components(q, basis)
        outcome = born_sample((np.abs(comps) ** 2).sum(axis=1), rng)
        self._collapse_single(q, basis, comps, outcome, remove)
        return outcome

    def _measure_known(
        self, block: _Block, what: object, rng: RandomSource
    ) -> int | None:
        """Measurement ``what`` of ``block`` from its ``_KNOWN`` entry, or
        None, drawing nothing, if the block is not a key there (only blocks
        of at most two qubits are looked up).  The drawn outcome's emptied
        block folds its scalar into the phase, or its kept branch, read-only
        and shared with the table, becomes the block's array (a kept branch
        is held only under a key with nothing owed); a branch the general
        path refuses raises its error with the block flushed, as the general
        path leaves it."""
        if len(block.qubits) > 2:
            return None
        entry = _KNOWN.get((block.amps.tobytes(), block.xmask, block.zmask, what))
        if entry is None:
            return None
        cdf, results = entry
        outcome = born_draw(cdf, rng)
        result = results[outcome]
        if type(result) is complex:
            for q in block.qubits:
                del self._block_of[q]
            self._phase *= result
        elif type(result) is str:
            _flushed(block)
            raise InternalInconsistency(result)
        else:
            block.amps = result
        return outcome

    def _single_components(self, q: QubitId, basis: str) -> np.ndarray:
        if basis not in _BASIS_MATRIX:
            raise ValueError(f"unknown basis {basis!r}; expected 'Z' or 'X'")
        block, p = self._locate(q)
        return _BASIS_CONJ[basis] @ _qubit_rows(_flushed(block), p)

    # -- density matrices ----------------------------------------------------------

    def reduced_density(self, subset: Sequence[QubitId]) -> DensityMatrix:
        """Partial trace over the complement of ``subset`` (given order kept).

        Only the blocks holding ``subset`` are flushed and multiplied out;
        every other block is normalized and traces out to 1, whatever its
        frame.
        """
        ids = list(subset)
        if not ids:
            raise ValueError("subset must be nonempty")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate qubit ids in subset {ids}")
        check_array_qubits(2 * len(ids), f"a density matrix over {len(ids)} qubits")
        amps, qubits = _product(dict.fromkeys(self._locate(q)[0] for q in ids))
        keep = [qubits.index(q) for q in ids]
        rest = [i for i in range(len(qubits)) if i not in keep]
        mat = np.transpose(amps.reshape((2,) * len(qubits)), keep + rest)
        mat = mat.reshape(2 ** len(keep), -1)
        rho = mat @ mat.conj().T
        return DensityMatrix(rho, tuple(ids))

    # -- internals -------------------------------------------------------------

    def _locate(self, q: QubitId) -> tuple[_Block, int]:
        """The block holding ``q`` and its tensor position there."""
        try:
            block = self._block_of[q]
        except KeyError:
            raise UnknownQubit(f"qubit {q} is not live in this register") from None
        return block, block.qubits.index(q)

    def _shrink(self, block: _Block, residual: np.ndarray, *qs: QubitId) -> None:
        """Set ``block``, which was flushed to compute ``residual``, to
        ``residual`` over its qubits other than ``qs``, which leave the
        register; an emptied block folds into the phase."""
        block.amps = residual.reshape(-1)
        for q in qs:
            block.qubits.remove(q)
            del self._block_of[q]
        if not block.qubits:
            self._phase *= complex(block.amps[0])


def _tap_tables() -> dict[str, tuple[tuple[float, ...], tuple]]:
    """Per basis, an eavesdropper's tap of a fresh link read off the
    general path at import: the running sums of her bit as
    ``measure_single`` draws it and, per bit, ``(prob, rows, gram)``: what
    ``project_single`` returns, the collapsed link's rows over ``mu`` and
    their Gram matrix (Bennett and Brassard, 1984)."""
    tables = {}
    for basis in _BASIS_MATRIX:
        reg = QuantumRegister()
        _, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        cdf = born_cdf(reg.single_probabilities(nu, basis))
        links = []
        for bit in (0, 1):
            reg = QuantumRegister()
            mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            prob = reg.project_single(nu, basis, bit, remove=False)
            block, p = reg._locate(mu)
            rows = _qubit_rows(_flushed(block), p)
            gram = rows.dot(rows.conj().T)
            rows.setflags(write=False)
            gram.setflags(write=False)
            links.append((prob, rows, gram))
        tables[basis] = (cdf, tuple(links))
    return tables


_TAP = _tap_tables()


def _tap_table(basis: str) -> tuple[tuple[float, ...], tuple]:
    try:
        return _TAP[basis]
    except KeyError:
        raise ValueError(f"unknown basis {basis!r}; expected 'Z' or 'X'") from None


def _known_entry(amps: np.ndarray, what: object) -> tuple[tuple[float, ...], tuple]:
    """Measurement ``what`` of a block holding ``amps`` with nothing owed,
    read off the general path: the running sums of its outcome and, per
    outcome, what the forced projection leaves on a copy of the register:
    the emptied block's scalar, the kept branch (read-only), or the error
    message.  ``what`` is a basis (``measure_single`` removing the lone
    qubit), ``(basis, bit)`` (``tapped_teleport`` once the eavesdropper's
    bit is drawn) or two tensor positions (``bell_measure`` of the pair)."""
    reg = QuantumRegister()  # holds amps itself; no projection writes it
    ids = reg._grow(amps, amps.size.bit_length() - 1)
    outcomes = _BELL_KINDS
    if isinstance(what, str):
        args, project, outcomes = (ids[0], what), QuantumRegister.project_single, (0, 1)
        probs = reg.single_probabilities(*args)
    elif isinstance(what[0], str):
        basis, bit = what
        args, project = (ids[0], basis, bit), QuantumRegister.project_tapped_teleport
        probs = _gram_probabilities(_qubit_rows(amps, 0), _TAP[basis][1][bit][2])
    else:
        args, project = tuple(ids[p] for p in what), QuantumRegister.project_bell
        probs = reg.bell_probabilities(*args)
    results = []
    for outcome in outcomes:
        fork = reg.copy()
        block = fork._block_of[ids[0]]
        try:
            project(fork, *args, outcome)
        except InternalInconsistency as exc:
            results.append(str(exc))
        else:
            if block.qubits:
                block.amps.setflags(write=False)
                results.append(block.amps)
            else:
                results.append(complex(block.amps[0]))
    return born_cdf(probs), tuple(results)


def _known_table() -> dict:
    """Every constant block's measurement, keyed by ``(amplitude bytes,
    xmask, zmask, what)`` and read off the general path by
    :func:`_known_entry`:

    * a tap of each decoy (a row of ``_BASIS_MATRIX``) with nothing owed,
      per eavesdropper basis and bit;
    * a check of each decoy and each branch a tap keeps (ten vectors),
      under each pending frame, in each basis;
    * the joint measurement of each Bell pair with nothing owed, at
      positions (0, 1).

    The general path flushes a frame before it reads anything, so each
    flushed vector is measured once, on a block with nothing owed."""
    table, vectors, flushed = {}, {}, {}
    for row in itertools.chain.from_iterable(_BASIS_MATRIX.values()):
        vectors[row.tobytes()] = row
        for what in itertools.product(_BASIS_MATRIX, (0, 1)):
            table[(row.tobytes(), 0, 0, what)] = entry = _known_entry(row, what)
            for b in entry[1]:
                if type(b) is not str:
                    vectors.setdefault(b.tobytes(), b)
    for key, vec in vectors.items():
        for x, z in itertools.product((0, 1), (0, 1)):
            amps = _flushed(_Block(vec, [0], x, z))
            for basis in _BASIS_MATRIX:
                once = (amps.tobytes(), basis)
                if once not in flushed:
                    flushed[once] = _known_entry(amps, basis)
                table[(key, x, z, basis)] = flushed[once]
    for vec in _BELL_MATRIX:
        table[(vec.tobytes(), 0, 0, (0, 1))] = _known_entry(vec, (0, 1))
    return table


# Nothing writes it after import; a MappingProxyType would cost every lookup
# about 100 ns, as much again as the dict's own.
_KNOWN = _known_table()


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
    n = (vec.size - 1).bit_length()  # qubits, rounded up
    check_array_qubits(2 * n, f"a density matrix over {n} qubits")
    return np.outer(vec, vec.conj())


# -- withheld-record predictions ---------------------------------------------------


def _position(position: object, n: int) -> int:
    """``position`` read with ``operator.index``, one of ``n`` qubits'."""
    try:
        if 0 <= (p := operator.index(position)) < n:
            return p
    except TypeError:
        pass
    raise ValueError(f"position {position!r} out of range for {n} qubits")


def _channel(rho: np.ndarray, position: int, superop: np.ndarray) -> np.ndarray:
    """A one-qubit channel applied to tensor position ``position`` of the
    square ``rho``, unchecked.  ``superop`` is ``sum_k K (x) conj(K)`` for
    the channel ``rho -> sum_k K rho K^dagger`` (it need not be trace
    preserving), acting on the qubit's (row, column) index pair.  ``rho``
    is viewed as (L, 2, R, L, 2, R) with ``L = 2**position``, one transpose
    moves the qubit's index pair to the front, and one (4, 4) x
    (4, 4**(n-1)) matrix product writes a new array."""
    dim = rho.shape[0]
    left = 2**position
    right = dim // (2 * left)
    t = rho.reshape(left, 2, right, left, 2, right).transpose(1, 4, 0, 2, 3, 5)
    out = (superop @ t.reshape(4, -1)).reshape(t.shape)
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(dim, dim)


def sealed_mixture(psi: np.ndarray, positions: Iterable[int]) -> np.ndarray:
    """Knowledge state when the records for ``positions`` are all withheld.

    Starting from the pure projector of ``psi``, each withheld slot is
    replaced by a maximally mixed qubit tensored with the partial trace over
    that slot (:func:`_seal`).  Before the projector is built, a ``psi`` of
    no power-of-two length raises ``DimensionMismatch``, an unnormalized one
    ``NotNormalized``, and a position not an index of its qubits ``ValueError``.
    """
    vec, n = _as_state(psi)
    positions = sorted({_position(p, n) for p in positions})
    return _seal(pure_density(vec), positions)


def _seal(rho: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """The one rule of the sealed state: ``rho`` with a maximally mixed
    qubit at each ascending, unchecked tensor position, tensored with the
    partial trace over them, in new arrays (``rho`` itself, never written,
    with no positions).  Each position in turn is reduced to half the sum
    of its two diagonal blocks, on the (L, 2, R L, 2, R) view of the block
    so far; the block is then put on the diagonal of each position in
    turn, +0.0 elsewhere."""
    block = rho
    for gone, p in enumerate(positions):
        side = block.shape[0]
        left = 2 ** (p - gone)
        right = side // (2 * left)
        t = block.reshape(left, 2, right * left, 2, right)
        block = t[:, 0, :, 0] + t[:, 1, :, 1]
        block *= 0.5
        block = block.reshape(side // 2, side // 2)
    for p in positions:  # every qubit below p is in place
        side = 2 * block.shape[0]
        out = np.zeros((side, side), dtype=complex)
        t = out.reshape(2**p, 2, -1, 2, side >> (p + 1))
        t[:, 0, :, 0] = t[:, 1, :, 1] = block.reshape(2**p, -1, side >> (p + 1))
        block = out
    return block
