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

import math
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
    _BIT_TEXT,
    _CORRECTIONS,
    RandomSource,
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
    Placements are kept as ints read with ``operator.index``, and states
    must be :class:`DecoyState` members (``PolicyError`` otherwise).
    """

    placements: tuple[int, ...] = ()
    states: tuple[DecoyState, ...] = ()

    def __post_init__(self) -> None:
        try:
            placements = tuple(map(operator.index, self.placements))
        except TypeError as exc:
            raise PolicyError(f"decoy placements must be integers: {exc}") from None
        for state in self.states:
            if type(state) is not DecoyState:
                raise PolicyError(f"decoy states must be DecoyState members, got {state!r}")
        object.__setattr__(self, "placements", placements)

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
        """Uniform placements without replacement over the extended width.
        A count that ``operator.index`` rejects, or a negative one, raises
        ``PolicyError`` before anything is drawn; a count of 0 draws nothing
        and returns the one shared empty plan."""
        try:
            count = operator.index(count)
        except TypeError as exc:
            raise PolicyError(f"decoy count must be an integer: {exc}") from None
        if count < 0:
            raise PolicyError(f"decoy count must be non-negative, got {count}")
        if count == 0:
            return _NO_PLAN
        slots = rng.sample_positions(secret_width + count, count)
        states = tuple([_DECOY_STATES[k] for k in rng.integer_draws(4, count)])
        return cls(slots, states)


# The plan with no decoys: a frozen value, so every decoy-free run shares it.
_NO_PLAN = DecoyPlan()


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


# The report of a plan with no decoys: a value, so every run shares it.
_NO_DECOYS = DetectionReport(0, 0)


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
    if plan is not run.decoy_plan and plan != run.decoy_plan:
        raise PolicyError("plan does not match the one used at setup")
    if plan.count == 0:
        run.detection = _NO_DECOYS
        return _NO_DECOYS

    send = run.transcript.send
    slots = ",".join(str(s) for s in plan.placements)
    send("dealer", "public", f"decoy-positions slots={slots}")
    mismatches = 0
    for slot, state in zip(plan.placements, plan.states):
        value = run.transcript.decoy_record[slot]._value_
        opened = f"decoy-open slot={slot} bits={_BIT_TEXT[value]} basis={state.basis}"
        send("dealer", "public", opened)
        qubit = run.slot_qubits[slot]
        player = run.decoy_receiver[slot]
        run.register.apply_pauli(qubit, _CORRECTIONS[value])
        bit = run.register.measure_single(qubit, state.basis, run.rng)
        send(f"player-{player}", "dealer", f"decoy-report slot={slot} bit={bit}")
        if bit != state.expected_bit:
            mismatches += 1
    report = DetectionReport(plan.count, mismatches)
    run.detection = report
    return report


@dataclass(frozen=True)
class AuditReport:
    """One sealing audit: the sorted record indices ``withheld``, a bound
    ``distance`` on the trace distance between the players' state and the
    sealed prediction for every secret (0.0 when each slot's channel is
    exactly its prediction, ``inf`` when nothing can be bounded), and the
    ``tolerance`` it passes under."""

    withheld: tuple[int, ...]
    distance: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.distance <= self.tolerance


def no_information_audit(run: "ProtocolRun", withheld: Iterable[int]) -> AuditReport:
    """Certify that the players' exact knowledge state under withheld
    records (:meth:`~cqss.protocol.ProtocolRun.withheld_state`) is the
    closed-form prediction of :func:`~cqss.qubits.sealed_mixture`: each
    withheld slot maximally mixed, the rest the partial trace of the
    original state.

    Both are tensor products of one-qubit maps applied to the secret, the
    model renormalized at the end.  Each slot's swap channel
    (:meth:`~cqss.protocol.ProtocolRun._swap_channels`) is compared with its
    prediction, the depolarizer on a withheld slot and the identity
    elsewhere, through delta, a bound on their diamond distance that was
    decided when the channel was built (:func:`~cqss.protocol._swap_channel`).
    The diamond norm is subadditive over tensor products, so
    eps = prod(1 + delta) - 1 bounds the two products' diamond distance,
    and the trace distance is at most eps / (1 - eps) for every secret,
    the renormalization included; eps >= 1 gives ``inf``.  The product is
    taken as a sum of ``log1p`` terms, so that no small delta is lost to
    rounding.  An audit thus reads N floats and builds no matrix, at every
    width a run accepts; on the import-time tables every delta, and so the
    distance, is exactly 0.0.  A non-integer index raises ``ProtocolError``
    before an incomplete run raises ``IncompleteRun``."""
    indices = _record_indices(withheld)
    _, deviations = run._swap_channels(indices)
    excess = math.expm1(math.fsum(map(math.log1p, deviations)))
    distance = excess / (1.0 - excess) if excess < 1.0 else math.inf
    return AuditReport(indices, distance, AUDIT_TOLERANCE)


def noinfo_sweep(width: int) -> list[tuple[int, ...]]:
    """The withheld sets ``cqss noinfo`` audits at ``width``, in its order:
    none, each record, then every record if there are two or more."""
    sweep = [(), *((i,) for i in range(1, width + 1))]
    return sweep + [tuple(range(1, width + 1))] if width > 1 else sweep


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
