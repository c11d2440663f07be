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
    CORRECTION_FOR_OUTCOME,
    RandomSource,
    _seal_in_place,
    trace_distance,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import ProtocolRun

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

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


_DECOY_VECTORS = {
    DecoyState.ZERO: np.array([1.0, 0.0], dtype=complex),
    DecoyState.ONE: np.array([0.0, 1.0], dtype=complex),
    DecoyState.PLUS_X: np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
    DecoyState.MINUS_X: np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
}
for _v in _DECOY_VECTORS.values():
    _v.setflags(write=False)
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


@dataclass(frozen=True)
class EveModel:
    """Attacker on the qubit distribution channel.

    The only implemented strategy measures each in-flight qubit, with the
    given probability, in a uniformly random Z or X basis and forwards the
    collapsed state.
    """

    strategy: str = "none"  # "none" | "intercept-resend"
    intercept_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy not in ("none", "intercept-resend"):
            raise PolicyError(f"unknown eavesdropper strategy {self.strategy!r}")
        if not 0.0 <= self.intercept_probability <= 1.0:
            raise PolicyError(
                f"intercept probability {self.intercept_probability} outside [0, 1]"
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
    link: a tapped one runs in closed form from tables read off that
    general path (:meth:`~cqss.qubits.QuantumRegister.tapped_teleport`),
    an untapped one as a plain teleport
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
    its correction immediately and measure in the announced basis.
    """
    if not run.distribution_complete:
        raise IncompleteRun("decoy verification requires a completed distribution")
    if plan != run.decoy_plan:
        raise PolicyError("plan does not match the one used at setup")
    if plan.count == 0:
        report = DetectionReport(0, 0)
        run.detection = report
        return report

    run.log_message(
        "dealer",
        "public",
        "decoy-positions slots=" + ",".join(str(s) for s in plan.placements),
    )
    mismatches = 0
    for slot, state in zip(plan.placements, plan.states):
        outcome = run.transcript.decoy_record[slot]
        x, y = outcome.bits
        run.log_message(
            "dealer", "public", f"decoy-open slot={slot} bits={x}{y} basis={state.basis}"
        )
        qubit = run.slot_qubits[slot]
        player = run.slot_receiver[slot]
        run.register.apply_pauli(qubit, CORRECTION_FOR_OUTCOME[outcome])
        bit = run.register.measure_single(qubit, state.basis, run.rng)
        run.log_message(
            f"player-{player}", "dealer", f"decoy-report slot={slot} bit={bit}"
        )
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
    run's :attr:`~cqss.protocol.ProtocolRun.secret_projector`, so a sweep
    builds the secret's projector once."""
    indices = _record_indices(withheld)
    actual = run.withheld_state(indices)
    expected = _seal_in_place(run.secret_projector.copy(), [i - 1 for i in indices])
    distance = trace_distance(actual.entries, expected)
    return AuditReport(indices, distance, AUDIT_TOLERANCE)


def _record_indices(indices: Iterable[int]) -> tuple[int, ...]:
    """``indices`` as sorted distinct record indices; anything that
    ``operator.index`` rejects (a float, a string) raises ``ProtocolError``
    instead of being rounded or parsed."""
    try:
        return tuple(sorted(set(map(operator.index, indices))))
    except TypeError as exc:
        raise ProtocolError(f"record indices must be integers: {exc}") from None
