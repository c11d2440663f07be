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
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import IncompleteRun, PolicyError, ProtocolError
from .qubits import (
    BASIS_X,
    BASIS_Z,
    _BASIS_MATRIX,
    _CORRECTIONS,
    RandomSource,
    _seal,
    _sealed_block,
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
    """Compare the players' exact knowledge state under withheld records
    (:meth:`~cqss.protocol.ProtocolRun.withheld_state`) with the closed-form
    prediction of :func:`~cqss.qubits.sealed_mixture`: each withheld slot
    maximally mixed, the rest the partial trace of the original state.

    When the withheld slots' channel seals (``cqss.protocol._WITHHELD`` as
    it is at the call), both states are I ⊗ (their block with every
    withheld position at 0) over the withheld positions, so the prediction
    is computed as its block alone: the run's read-only
    :attr:`~cqss.protocol.ProtocolRun.secret_projector` goes straight to
    :func:`~cqss.qubits._sealed_block`, and :func:`_factored_distance`
    eigensolves the difference of the blocks.  A channel that does not seal
    is audited dense, on the whole :func:`~cqss.qubits._seal`.  With nothing
    withheld either way is :func:`~cqss.qubits.trace_distance`'s, bit for
    bit.  A non-integer index raises ``ProtocolError`` before an incomplete
    run raises."""
    from . import protocol  # protocol imports this module

    indices = _record_indices(withheld)
    actual = run.withheld_state(indices)
    positions = [i - 1 for i in indices]
    if protocol._WITHHELD.seals:
        expected = _sealed_block(run.secret_projector, positions)
    else:
        expected, positions = _seal(run.secret_projector, positions), []
    distance = _factored_distance(actual.entries, expected, positions)
    return AuditReport(indices, distance, AUDIT_TOLERANCE)


def noinfo_sweep(width: int) -> list[tuple[int, ...]]:
    """The withheld sets ``cqss noinfo`` audits at ``width``, in its order:
    none, each record, then every record if there are two or more."""
    sweep = [(), *((i,) for i in range(1, width + 1))]
    return sweep + [tuple(range(1, width + 1))] if width > 1 else sweep


def _factored_distance(r: np.ndarray, block: np.ndarray, positions: list[int]) -> float:
    """Trace distance of the 2^N-square ``r`` and a state that differs from
    it by I ⊗ D over the ascending tensor ``positions``, given as its sealed
    ``block``: 2^k times that of ``block`` and ``r``'s block with each of
    the k positions at 0, read on the (L0, 2, L1, 2, ..., Lk) view of ``r``.
    With no positions both blocks are whole."""
    n = r.shape[0].bit_length() - 1
    side, corner, start = [], [], 0
    for p in positions:
        side += [1 << (p - start), 2]
        corner += [slice(None), 0]
        start = p + 1
    side.append(1 << (n - start))
    corner.append(slice(None))
    unsealed = r.reshape(*side, *side)[(*corner, *corner)]
    delta = unsealed - block.reshape(unsealed.shape)
    rest = block.shape[0]
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
