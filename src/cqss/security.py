"""Decoy-state checking, an intercept-resend eavesdropper, and sealing audits.

The dealer can hide known single-qubit decoy states among the distributed
qubits.  After distribution she opens the decoy slots, the holding players
correct and measure them in the announced bases, and any report that
disagrees with her private record exposes channel tampering.  An
intercept-resend attacker measuring every in-flight qubit in a random Z/X
basis disturbs each decoy with probability 1/4, so it escapes M decoys with
probability (3/4)^M.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import IncompleteRun, PolicyError, ProtocolError
from .qubits import (
    BASIS_X,
    BASIS_Z,
    _BASIS_MATRIX,
    _CORRECTIONS,
    RandomSource,
    _seal_in_place,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import ProtocolRun

AUDIT_TOLERANCE = 1e-10


class DecoyState(Enum):
    """Known single-qubit states inserted among the distributed qubits."""

    ZERO = "0"
    ONE = "1"
    PLUS_X = "+x"
    MINUS_X = "-x"

    @property
    def basis(self) -> str:
        return BASIS_Z if self in (DecoyState.ZERO, DecoyState.ONE) else BASIS_X

    @property
    def expected_bit(self) -> int:
        return 0 if self in (DecoyState.ZERO, DecoyState.PLUS_X) else 1

    @property
    def vector(self) -> np.ndarray:
        return _DECOY_VECTORS[self].copy()


# A decoy is its basis's measurement row for its bit, read-only: the very
# vectors whose taps and checks the register measures from what the general
# path computed once at import (``cqss.qubits._KNOWN``).
_DECOY_VECTORS = {
    state: _BASIS_MATRIX[state.basis][state.expected_bit] for state in DecoyState
}
# Indexed by the state draw of DecoyPlan.random.
_DECOY_STATES = tuple(DecoyState)


@dataclass(frozen=True)
class DecoyPlan:
    """Dealer-private plan: which slots hide decoys and in which states.

    ``placements`` are 1-based slot positions among the ``N + M`` distributed
    qubits, ascending; ``states[j]`` is the decoy hidden at ``placements[j]``.
    """

    placements: tuple[int, ...] = ()
    states: tuple[DecoyState, ...] = ()

    @property
    def count(self) -> int:
        return len(self.placements)

    @property
    def record(self) -> dict[int, DecoyState]:
        return dict(zip(self.placements, self.states))

    def validate(self, secret_width: int) -> None:
        if len(self.states) != len(self.placements):
            raise PolicyError(
                f"decoy plan has {len(self.placements)} placements "
                f"but {len(self.states)} states"
            )
        total = secret_width + self.count
        if len(set(self.placements)) != self.count:
            raise PolicyError(f"duplicate decoy placements {self.placements}")
        if any(not 1 <= p <= total for p in self.placements):
            raise PolicyError(
                f"decoy placements {self.placements} outside 1..{total}"
            )
        if tuple(sorted(self.placements)) != self.placements:
            raise PolicyError("decoy placements must be ascending")

    @classmethod
    def random(cls, secret_width: int, count: int, rng: RandomSource) -> "DecoyPlan":
        """Uniform placements without replacement over the extended width."""
        if count == 0:
            return cls()
        slots = rng.sample_positions(secret_width + count, count)
        states = tuple(_DECOY_STATES[rng.integers(4)] for _ in slots)
        return cls(slots, states)


_EVE_STRATEGIES = ("none", "intercept-resend")


@dataclass(frozen=True)
class EveModel:
    """Attacker on the qubit distribution channel.

    The only implemented strategy measures each in-flight qubit, with the
    given probability, in a uniformly random Z or X basis and forwards the
    collapsed state.
    """

    strategy: str = "none"  # one of _EVE_STRATEGIES
    intercept_probability: float = 0.0

    def __post_init__(self) -> None:
        # Each message starts with the scenario key at fault.
        if self.strategy not in _EVE_STRATEGIES:
            raise PolicyError(
                f"eve: must be one of {_EVE_STRATEGIES}, got {self.strategy!r}"
            )
        if not 0.0 <= self.intercept_probability <= 1.0:
            raise PolicyError(
                f"eve_probability: outside [0, 1]: {self.intercept_probability}"
            )

    @classmethod
    def off(cls) -> "EveModel":
        return cls()

    @classmethod
    def intercept_resend(cls, probability: float = 1.0) -> "EveModel":
        return cls("intercept-resend", probability)


@dataclass(frozen=True)
class DetectionReport:
    decoys_checked: int
    mismatches: int

    @property
    def verdict(self) -> str:
        return "eve-detected" if self.mismatches > 0 else "clean"

    @property
    def clean(self) -> bool:
        return self.mismatches == 0


def eve_tap(model: EveModel | None, rng: RandomSource) -> str | None:
    """Whether the attacker taps the next in-flight qubit: the basis she
    measures it in, or None.

    The draws come before the swap: the probability draw, then the basis
    draw.  A tapped qubit is the receiver-side half of a fresh singlet
    link, which she measures in that basis and forwards before the dealer's
    swap measurement; for detection statistics this is equivalent to
    attacking the teleported qubit itself.  Neither kind of slot builds its
    link: a tapped one runs in closed form
    (:meth:`~cqss.qubits.QuantumRegister.tapped_teleport`), a decoy's tap
    measured from what the general path computed once at import
    (``_KNOWN``), an untapped one as a plain teleport
    (:meth:`~cqss.qubits.QuantumRegister.teleport`).
    """
    if model is None or model.strategy == "none":
        return None
    if rng.random() >= model.intercept_probability:
        return None
    return BASIS_Z if rng.integers(2) == 0 else BASIS_X


def verify_decoys(run: "ProtocolRun", plan: DecoyPlan) -> DetectionReport:
    """Open the decoy slots, have the holders correct and measure, and count
    reports that contradict the dealer's private record.

    The dealer releases the decoy-slot two-bit records herself (controllers
    only ever hold records for true secret slots), so each holder can apply
    its correction immediately and measure in the announced basis.  A run
    is verified once: a second call raises ``ProtocolError`` before it
    logs or measures anything.

    Each decoy is still a qubit of its own, a basis state under a known
    frame (tapped or not): a constant block, so its check
    (:meth:`~cqss.qubits.QuantumRegister.measure_single`) is measured from
    what the general path computed once at import (``_KNOWN``), with the
    same bytes.
    """
    if not run.distribution_complete:
        raise IncompleteRun("decoy verification requires a completed distribution")
    if run.detection is not None:
        raise ProtocolError("decoys already verified")
    if plan != run.decoy_plan:
        raise PolicyError("plan does not match the one used at setup")
    if plan.count == 0:
        report = DetectionReport(0, 0)
        run.detection = report
        return report

    from .protocol import _BIT_TEXT, Message  # protocol imports this module

    log = run.transcript.messages.append
    slots = ",".join(str(s) for s in plan.placements)
    log(Message("dealer", "public", f"decoy-positions slots={slots}"))
    mismatches = 0
    for slot, state in zip(plan.placements, plan.states):
        value = run.transcript.decoy_record[slot]._value_
        opened = f"decoy-open slot={slot} bits={_BIT_TEXT[value]} basis={state.basis}"
        log(Message("dealer", "public", opened))
        qubit = run.slot_qubits[slot]
        player = run.slot_receiver[slot]
        run.register.apply_pauli(qubit, _CORRECTIONS[value])
        bit = run.register.measure_single(qubit, state.basis, run.rng)
        log(Message(f"player-{player}", "dealer", f"decoy-report slot={slot} bit={bit}"))
        if bit != state.expected_bit:
            mismatches += 1
    report = DetectionReport(plan.count, mismatches)
    run.detection = report
    return report


@dataclass(frozen=True)
class AuditReport:
    withheld: tuple[int, ...]
    distance: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.distance <= self.tolerance


def no_information_audit(run: "ProtocolRun", withheld: Iterable[int]) -> AuditReport:
    """Compare the players' exact knowledge state under withheld records with
    the closed-form prediction (each withheld slot maximally mixed, the rest
    the partial trace of the original state): the prediction of
    :func:`~cqss.qubits.sealed_mixture`, sealed in place on a copy of the
    run's :attr:`~cqss.protocol.ProtocolRun.secret_projector` (itself when
    nothing is withheld), so a sweep builds the projector once.

    The distance is computed on the unsealed factor.  When the withheld
    slots' channel, ``cqss.protocol._WITHHELD_SUPEROP`` as it is at the
    call, has the sealing form (:func:`_sealing_form`: it leaves every input
    a multiple of the identity), both states are I ⊗ (their
    block with every withheld position at 0) over the withheld positions W,
    so their difference is I ⊗ D and its trace norm 2^|W| times that of D.
    One ``eigvalsh`` of the 2^(N−|W|)-square D then replaces the 2^N-square
    one, and the multiply by 2^|W| is exact.  With nothing withheld, or a
    channel without the form, D is the whole difference and the distance is
    :func:`~cqss.qubits.trace_distance`'s, bit for bit."""
    indices = _record_indices(withheld)
    actual = run._withheld_state(indices)
    expected = run.secret_projector
    positions = [i - 1 for i in indices]
    if positions:
        from . import protocol  # protocol imports this module

        expected = _seal_in_place(expected.copy(), positions)
        if not _sealing_form(protocol._WITHHELD_SUPEROP):
            positions = []
    distance = _factored_distance(actual.entries, expected, positions)
    return AuditReport(indices, distance, AUDIT_TOLERANCE)


def noinfo_sweep(width: int) -> list[tuple[int, ...]]:
    """The withheld sets ``cqss noinfo`` audits at ``width``, in its order:
    none, each record, then every record if there are two or more."""
    sweep = [(), *((i,) for i in range(1, width + 1))]
    return sweep + [tuple(range(1, width + 1))] if width > 1 else sweep


def _sealing_form(superop: np.ndarray) -> bool:
    """Whether the 4x4 one-qubit ``superop`` maps every matrix to a multiple
    of the identity: rows 1 and 2 (the output's off-diagonal entries) zero
    and rows 0 and 3 (its diagonal) the same bytes.  Cached on the bytes of
    its complex entries, so each distinct superoperator, a replaced table
    too, is decided once."""
    return _entries_seal(np.asarray(superop, dtype=complex).tobytes())


@lru_cache(maxsize=64)
def _entries_seal(entries: bytes) -> bool:
    rows = np.frombuffer(entries, dtype=complex).reshape(4, 4)
    return not rows[1:3].any() and rows[0].tobytes() == rows[3].tobytes()


def _factored_distance(r: np.ndarray, s: np.ndarray, positions: list[int]) -> float:
    """Trace distance of the 2^N-square ``r`` and ``s`` when their
    difference is I ⊗ D over the ascending tensor ``positions``: 2^k times
    the trace distance of their blocks with every one of the k positions at
    0 in row and column.  Each side is viewed as (L0, 2, L1, 2, ..., Lk),
    the L's spanning the positions between, so with no positions the block
    is the whole matrix."""
    n = r.shape[0].bit_length() - 1
    side, corner, start = [], [], 0
    for p in positions:
        side += [1 << (p - start), 2]
        corner += [slice(None), 0]
        start = p + 1
    side.append(1 << (n - start))
    corner.append(slice(None))
    view, block = (*side, *side), (*corner, *corner)
    delta = r.reshape(view)[block] - s.reshape(view)[block]
    rest = 1 << (n - len(positions))
    eigs = np.linalg.eigvalsh(delta.reshape(rest, rest))
    return float(0.5 * np.abs(eigs).sum()) * (1 << len(positions))


def _record_indices(indices: Iterable[int]) -> tuple[int, ...]:
    """``indices`` as sorted distinct record indices; anything that
    ``operator.index`` rejects (a float, a string) raises ``ProtocolError``
    instead of being rounded or parsed."""
    try:
        return tuple(sorted(set(map(operator.index, indices))))
    except TypeError as exc:
        raise ProtocolError(f"record indices must be integers: {exc}") from None


def _record_index(index: object) -> int:
    """One record or secret index, read as :func:`_record_indices` reads it."""
    if type(index) is int:
        return index
    (i,) = _record_indices((index,))
    return i
