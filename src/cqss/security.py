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

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import IncompleteRun, PolicyError
from .qubits import (
    BASIS_X,
    BASIS_Z,
    CORRECTION_FOR_OUTCOME,
    BellKind,
    QuantumRegister,
    QubitId,
    RandomSource,
    insert_product_qubits,
    sealed_mixture,
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
        states = tuple(list(DecoyState)[rng.integers(4)] for _ in slots)
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

    @property
    def active(self) -> bool:
        return self.strategy != "none" and self.intercept_probability > 0.0

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


def insert_decoys(secret: np.ndarray, plan: DecoyPlan) -> np.ndarray:
    """Product of the secret state with the decoy qubits, decoys sitting at
    the planned slots and the secret qubits filling the rest in order."""
    vec = np.asarray(secret, dtype=complex).reshape(-1)
    if plan.count == 0:
        return vec.copy()
    plan.validate(int(np.log2(vec.size)))
    return insert_product_qubits(
        vec,
        [p - 1 for p in plan.placements],
        [s.vector for s in plan.states],
    )


def eve_tap(
    register: QuantumRegister,
    qubit: QubitId,
    model: EveModel | None,
    rng: RandomSource,
) -> tuple[str, int] | None:
    """Let the attacker at an in-flight qubit; returns her (basis, bit) or None.

    The tapped qubit is the receiver-side half of a fresh entangled link,
    attacked before the dealer's swap measurement; for detection statistics
    this is equivalent to attacking the teleported qubit itself.
    """
    if model is None or model.strategy == "none":
        return None
    if rng.random() >= model.intercept_probability:
        return None
    basis = BASIS_Z if rng.integers(2) == 0 else BASIS_X
    bit = register.measure_single(qubit, basis, rng, remove=False)
    return basis, bit


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
    for slot in plan.placements:
        state = plan.record[slot]
        outcome = run.transcript.decoy_record[slot]
        x, y = outcome.bits
        run.log_message(
            "dealer", "public", f"decoy-open slot={slot} bits={x}{y} basis={state.basis}"
        )
        qubit = run.slot_qubits[slot]
        holder = run.register.owner.get(qubit, "player")
        run.register.apply_pauli(qubit, CORRECTION_FOR_OUTCOME[outcome])
        bit = run.register.measure_single(qubit, state.basis, run.rng)
        run.log_message(str(holder), "dealer", f"decoy-report slot={slot} bit={bit}")
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
    the partial trace of the original state)."""
    indices = tuple(sorted(set(int(i) for i in withheld)))
    actual = run.withheld_state(set(indices))
    expected = sealed_mixture(run.secret, [i - 1 for i in indices])
    distance = trace_distance(actual.entries, expected)
    return AuditReport(indices, distance, AUDIT_TOLERANCE)


def controller_channel_check(
    decoys: int,
    model: EveModel,
    master_seed: int,
) -> DetectionReport:
    """The same decoy mechanism pointed at a dealer-to-controller link.

    Runs in isolation: each round teleports one random decoy through a fresh
    singlet link to a controller, who corrects, measures in the announced
    basis and reports.  Provided as an optional extra check; it is not part
    of the standard run pipeline and does not touch link accounting.
    """
    rng = RandomSource((int(master_seed), 0x0C))
    mismatches = 0
    for _ in range(decoys):
        state = list(DecoyState)[rng.integers(4)]
        reg = QuantumRegister()
        (source,) = reg.alloc_state(state.vector)
        alpha, beta = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        eve_tap(reg, beta, model, rng)
        outcome = reg.bell_measure(source, alpha, rng)
        reg.apply_pauli(beta, CORRECTION_FOR_OUTCOME[outcome])
        bit = reg.measure_single(beta, state.basis, rng)
        if bit != state.expected_bit:
            mismatches += 1
    return DetectionReport(decoys, mismatches)
