"""Controller-gated distribution of an entangled multi-qubit secret.

One dealer holds an N-qubit state carrying secret quantum information.  Each
qubit is handed to a player by entanglement swapping: the dealer shares a
singlet with the player, Bell-measures the secret qubit against her half,
and the player's half takes over the secret qubit's role, twisted by a Pauli
that depends on the two-bit measurement outcome.  Those two-bit records are
the protocol's lever: instead of telling the players, the dealer routes each
record to controllers, either

* classically, one-time padded by the shared outcome of Bell measurements on
  a pair of singlet links (``send_bits_classical``), or
* quantum mechanically, by preparing a fresh Bell pair in the recorded state
  and teleporting one half to each of two controllers, who must later
  cooperate in a joint Bell measurement to read it
  (``split_bell_between_controllers`` / ``joint_identify``).

Reconstruction applies the recorded corrections; it succeeds only if enough
controllers release their records to cover the qubits of at least
``threshold_k`` cooperating players.  Corrections are deferred to
reconstruction time: the per-branch algebra is unchanged because
corrections on distinct qubits commute, and deferral matches the fact that
players do not know the records until controllers release them.

Qubit indices, record indices, slot numbers and parties (players 1..n,
controllers 1..m) are 1-based throughout this module; tensor positions
inside :mod:`cqss.qubits` are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    ControllerRefusal,
    IncompleteRun,
    PolicyError,
    ProtocolError,
    ResourceAccountingError,
)
from .qubits import (
    _BELL_KINDS,
    _CORRECTIONS,
    BellKind,
    DensityMatrix,
    Pauli,
    QuantumRegister,
    QubitId,
    RandomSource,
    _channel,
    born_cdf,
    born_draw,
    check_array_qubits,
    pure_density,
)
from .security import (
    _DECOY_VECTORS,
    DecoyPlan,
    DetectionReport,
    EveModel,
    _record_index,
    _record_indices,
    eve_tap,
)


def peak_block_qubits(width: int) -> int:
    """Qubits of a ``width``-qubit secret's block, checked against the
    memory rule (:func:`~cqss.qubits.check_array_qubits`); a run holds no
    larger array but a two-qubit pair at width 1.

    Every swap, tapped or not, and a split record's teleports run in
    closed form (:meth:`~cqss.qubits.QuantumRegister.teleport`,
    :meth:`~cqss.qubits.QuantumRegister.tapped_teleport`) and keep the
    qubit's block at its width; a classical pad allocates no block; and
    decoys and split-record halves never join the secret's block.  The only
    other block is two-qubit: a split record's Bell pair.  So the
    register's ``peak_block_qubits`` after ``distribute_all`` and
    ``transport_all`` is this width, or 2 for a one-qubit secret with a
    split record; two qubits are always within the rule.
    """
    check_array_qubits(width, f"a {width}-qubit secret's largest block")
    return width


class _ReadOnlyDict(dict):
    """A dict whose mutators raise; it pickles and deep-copies as itself, and
    hashes as the frozenset of its items, computed once."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("policy maps are read-only; use dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return _ReadOnlyDict, (dict(self),)


# Each policy container field, and how one of another type is frozen.
_FREEZE = (
    ("qubit_to_player", _ReadOnlyDict),
    ("record_to_controller",
     lambda holders: _ReadOnlyDict((i, tuple(h)) for i, h in holders.items())),
    ("release", _ReadOnlyDict),
    ("cooperating_players", frozenset),
)


def _freeze_policy_fields(obj) -> None:
    """Freeze the policy containers of the frozen dataclass ``obj``, once: a
    container already frozen is kept, so ``dataclasses.replace`` copies
    none."""
    for name, freeze in _FREEZE:
        value = getattr(obj, name)
        if type(value) is not _ReadOnlyDict and type(value) is not frozenset:
            object.__setattr__(obj, name, freeze(value))


@dataclass(frozen=True)
class AccessPolicy:
    """Who holds what, and who has agreed to what.

    A party is its 1-based index and the field it sits in says its role:
    players in ``qubit_to_player`` and ``cooperating_players``, controllers
    in ``record_to_controller`` and ``release``.  ``record_to_controller``
    maps each record index to one controller (classical transport) or an
    ordered pair of controllers (split transport).  ``release`` marks each
    controller as releasing or withholding; ``cooperating_players`` lists
    the players willing to take part in reconstruction.

    A policy is a value.  Plain dicts and sets are accepted and frozen at
    construction, so nothing reachable from a policy can be edited; a
    changed policy is a new one, made with :func:`dataclasses.replace`.
    """

    qubit_to_player: Mapping[int, int]
    record_to_controller: Mapping[int, tuple[int, ...]]
    threshold_k: int
    release: Mapping[int, bool]
    cooperating_players: frozenset[int]

    __post_init__ = _freeze_policy_fields

    def validate(self, n: int, m: int, width: int) -> None:
        """Check the policy against ``n`` players, ``m`` controllers and a
        ``width``-qubit secret.  Each message starts with the field at fault."""

        def bad(fieldname: str, message: str) -> PolicyError:
            return PolicyError(f"{fieldname}: {message}")

        if n < 1 or m < 1 or width < 1:
            raise PolicyError("need at least one player, one controller and one "
                              f"qubit (got n={n}, m={m}, width={width})")
        players = set(range(1, n + 1))
        controllers = set(range(1, m + 1))
        if not 1 <= self.threshold_k <= n:
            raise bad("threshold_k", f"{self.threshold_k} outside 1..{n}")
        if sorted(self.qubit_to_player) != list(range(1, width + 1)):
            raise bad(
                "qubit_to_player",
                f"must map exactly 1..{width}, got {sorted(self.qubit_to_player)}",
            )
        assigned = set(self.qubit_to_player.values())
        if not assigned <= players:
            raise bad("qubit_to_player", f"references players outside 1..{n}")
        if assigned != players:
            raise bad("qubit_to_player", "every player must hold at least one qubit")
        if sorted(self.record_to_controller) != list(range(1, width + 1)):
            raise bad(
                "record_to_controller",
                f"must map exactly 1..{width}, got {sorted(self.record_to_controller)}",
            )
        holding = set()
        for i, holders in self.record_to_controller.items():
            if len(holders) not in (1, 2) or len(set(holders)) != len(holders):
                raise bad(
                    "record_to_controller",
                    f"record {i} must name one or two distinct controllers",
                )
            if not controllers.issuperset(holders):
                raise bad(
                    "record_to_controller",
                    f"record {i} references controllers outside 1..{m}",
                )
            holding.update(holders)
        if holding != controllers:
            raise bad(
                "record_to_controller", "every controller must hold at least one share"
            )
        if set(self.release) != controllers:
            raise bad("release", f"must flag every controller 1..{m} exactly once")
        if not self.cooperating_players <= players:
            raise bad("cooperating_players", f"references players outside 1..{n}")

    def record_released(self, index: int) -> bool:
        """Whether every holder of record ``index`` releases it."""
        return all(map(self.release.__getitem__, self.record_to_controller[index]))

    def eligible_players(self, available: Iterable[int]) -> list[int]:
        """Cooperating players whose qubits all have a record in ``available``,
        sorted.  Reconstruction needs at least ``threshold_k`` of them.  One
        pass over ``qubit_to_player`` drops every holder of a qubit with no
        record, so the cost grows with the qubits, not with players times
        qubits."""
        have = set(available)
        unread = {p for i, p in self.qubit_to_player.items() if i not in have}
        return sorted(self.cooperating_players - unread)

    @classmethod
    def round_robin(
        cls,
        n: int,
        m: int,
        width: int,
        threshold_k: int | None = None,
        split_all: bool = False,
    ) -> "AccessPolicy":
        """Qubits dealt out to players 1..n and records to controllers 1..m
        in turn (two consecutive controllers per record if ``split_all``),
        everything released, everyone cooperating.  With no players or no
        controllers the matching map is empty, for ``validate`` to reject."""
        indices = range(1, width + 1)
        controllers = itertools.cycle(range(1, m + 1))
        # zip(c, c) takes two consecutive turns of the same cycle per record.
        holders = zip(controllers, controllers) if split_all else zip(controllers)
        return cls(
            qubit_to_player=dict(zip(indices, itertools.cycle(range(1, n + 1)))),
            record_to_controller=dict(zip(indices, holders)),
            threshold_k=n if threshold_k is None else threshold_k,
            release=dict.fromkeys(range(1, m + 1), True),
            cooperating_players=frozenset(range(1, n + 1)),
        )


class Message(NamedTuple):
    sender: str
    receiver: str
    payload: str

    def line(self) -> str:
        return f"{self.sender} -> {self.receiver}: {self.payload}"


# A two-bit value as the transcript writes it, indexed by the value.
_BIT_TEXT = ("00", "01", "10", "11")


@dataclass
class Transcript:
    """Full classical record of one protocol run."""

    bell_record: dict[int, BellKind] = field(default_factory=dict)
    decoy_record: dict[int, BellKind] = field(default_factory=dict)
    epr_player: int = 0
    epr_controller: int = 0
    dealer_distribution_measurements: int = 0
    dealer_transport_measurements: int = 0
    controller_measurements: int = 0
    messages: list[Message] = field(default_factory=list)
    corrections: list[tuple[QubitId, Pauli]] = field(default_factory=list)

    @property
    def dealer_measurements(self) -> int:
        return (
            self.dealer_distribution_measurements
            + self.dealer_transport_measurements
        )

    def to_text(self) -> str:
        lines = ["transcript v1"]
        lines.append(
            "bell-record: "
            + " ".join(
                f"{i}:{_BIT_TEXT[k._value_]}"
                for i, k in sorted(self.bell_record.items())
            )
        )
        if self.decoy_record:
            lines.append(
                "decoy-record: "
                + " ".join(
                    f"{s}:{_BIT_TEXT[k._value_]}"
                    for s, k in sorted(self.decoy_record.items())
                )
            )
        lines.append(f"epr-player: {self.epr_player}")
        lines.append(f"epr-controller: {self.epr_controller}")
        lines.append(
            f"dealer-measurements: {self.dealer_measurements} "
            f"(distribution {self.dealer_distribution_measurements}, "
            f"transport {self.dealer_transport_measurements})"
        )
        lines.append(f"controller-measurements: {self.controller_measurements}")
        lines.append(
            "corrections: "
            + " ".join(f"q{q}:{op._value_}" for q, op in self.corrections)
        )
        lines.append("messages:")
        lines.extend("  " + msg.line() for msg in self.messages)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Recovered:
    """Reconstruction succeeded for at least one authorized player set.

    On full recovery (every secret qubit covered and nothing else live) the
    original state is restored exactly: ``state_vector`` holds it over all
    secret qubits in index order and is the one fact, so ``share_state`` is
    None; its projector is ``pure_density(state_vector)``.  Otherwise
    ``state_vector`` is None and ``share_state`` is the corrected register
    restricted to the covered qubits (labelled by secret index).  That
    density matrix is computed from the run's register when first read, so
    a caller that never reads it never pays for it; read it before
    measuring that register any further.

    Recovered means covered: the covered qubits can be decoded only when
    the secret is a threshold encoding.  A Haar secret under
    ``round_robin(3, 3, 3, threshold_k=2)`` recovers a mixed share (purity
    0.53 to 0.77 on five Haar secrets) from which nothing can be decoded.
    """

    state_vector: np.ndarray | None
    covered_qubits: tuple[int, ...]
    players: tuple[int, ...]
    _reduced_density: Callable[[], DensityMatrix] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def share_state(self) -> DensityMatrix | None:
        if self._reduced_density is None:
            return None
        return DensityMatrix(self._reduced_density().entries, self.covered_qubits)


@dataclass(frozen=True)
class Sealed:
    reason: str


@dataclass(frozen=True)
class ResourceReport:
    """Consumed-resource counts, as :meth:`ProtocolRun.resource_report`
    returns them after checking each against its closed form."""

    decoys: int
    epr_player: int
    epr_controller: int
    dealer_measurements: int
    controller_measurements: int
    dealer_distribution_measurements: int
    dealer_transport_measurements: int

    def to_lines(self) -> list[str]:
        return [
            f"epr_player={self.epr_player}",
            f"epr_controller={self.epr_controller}",
            f"dealer_measurements={self.dealer_measurements}",
            f"dealer_distribution_measurements={self.dealer_distribution_measurements}",
            f"dealer_transport_measurements={self.dealer_transport_measurements}",
            f"controller_measurements={self.controller_measurements}",
            f"decoy_overhead={self.decoys}",
        ]


class ProtocolRun:
    """Mutable state of one protocol execution.

    Construct via :func:`setup`, which validates the roster, policy and
    decoy plan that a run trusts.  A run is single-threaded; parallel trials
    use independent runs with per-trial random sources.
    """

    def __init__(
        self,
        n: int,
        m: int,
        secret_width: int,
        secret: np.ndarray,
        policy: AccessPolicy,
        rng: RandomSource,
        decoy_plan: DecoyPlan | None = None,
        eve: EveModel | None = None,
    ):
        peak_block_qubits(secret_width)
        secret = np.asarray(secret, dtype=complex).reshape(-1)
        if secret.size != 2**secret_width:
            raise PolicyError(
                f"secret has {secret.size} amplitudes, expected {2 ** secret_width}"
            )
        plan = decoy_plan if decoy_plan is not None else DecoyPlan()
        total = secret_width + plan.count

        self.secret_width = secret_width
        self._secret = secret.copy()
        self._secret.setflags(write=False)
        self.policy = policy
        self.rng = rng
        self.eve = eve if eve is not None else EveModel.off()
        self.decoy_plan = plan

        # Slot layout: decoys sit at the planned slots, each its own block
        # over a copy of its checked constant row (the flush writes a block's
        # array in place); secret qubits fill the remaining slots in index
        # order.  Secret qubit i goes to the player the policy names; the
        # decoys go to players 1..n in turn.
        self.register = QuantumRegister()
        secret_ids = self.register.alloc_state(secret)
        decoys = plan.record
        decoy_players = itertools.cycle(range(1, n + 1))
        self._slot_of_secret: dict[int, int] = {}
        self._secret_of_slot: dict[int, int] = {}
        self.slot_qubits: dict[int, QubitId] = {}
        self.slot_receiver: dict[int, int] = {}
        for slot in range(1, total + 1):
            if slot in decoys:
                (self.slot_qubits[slot],) = self.register._grow(
                    _DECOY_VECTORS[decoys[slot]].copy(), 1
                )
                self.slot_receiver[slot] = next(decoy_players)
            else:
                index = len(self._slot_of_secret) + 1
                self._slot_of_secret[index] = slot
                self._secret_of_slot[slot] = index
                self.slot_qubits[slot] = secret_ids[index - 1]
                self.slot_receiver[slot] = policy.qubit_to_player[index]

        self.transcript = Transcript()
        # Each record once read: a classical one when its controller strips
        # the pad, a split one when its two controllers identify it jointly.
        self.decoded: dict[int, BellKind] = {}
        # The two controllers' halves of each split record not yet identified.
        self.split_halves: dict[int, tuple[QubitId, QubitId]] = {}
        self.detection: DetectionReport | None = None
        self._undistributed = set(range(1, total + 1))
        self._outcome: Recovered | Sealed | None = None

    # -- bookkeeping helpers ---------------------------------------------------

    @property
    def secret(self) -> np.ndarray:
        """The secret's amplitudes as given at setup; read-only."""
        return self._secret

    @cached_property
    def secret_projector(self) -> np.ndarray:
        """``pure_density(secret)``, read-only, built when an audit first
        needs it: every withheld set of a sweep starts from this one matrix."""
        rho = pure_density(self._secret)
        rho.setflags(write=False)
        return rho

    @property
    def total_slots(self) -> int:
        return self.secret_width + self.decoy_plan.count

    @property
    def distribution_complete(self) -> bool:
        return not self._undistributed

    @property
    def decoys_verified(self) -> bool:
        return self.decoy_plan.count == 0 or self.detection is not None

    # -- distribution ------------------------------------------------------------

    def distribute_qubit(self, secret_index: int) -> BellKind:
        """Swap one secret qubit over to its assigned player.

        A fresh singlet link to the player is consumed; the dealer's Bell
        outcome is appended to the record list.  No correction is applied
        yet: the record first has to travel to controllers and come back.
        The link is never built: the swap is a closed-form teleport
        (:meth:`~cqss.qubits.QuantumRegister.teleport`), or, if the
        eavesdropper taps the link (:func:`~cqss.security.eve_tap`), a
        closed-form tapped teleport
        (:meth:`~cqss.qubits.QuantumRegister.tapped_teleport`), with the
        same draws, qubit ids and floats as building and measuring it.
        """
        secret_index = _record_index(secret_index)
        if secret_index not in self._slot_of_secret:
            raise ProtocolError(
                f"secret index {secret_index} outside 1..{self.secret_width}"
            )
        return self._distribute_slot(self._slot_of_secret[secret_index])

    def distribute_all(self) -> None:
        """Distribute every slot (secret qubits and decoys) in slot order."""
        for slot in range(1, self.total_slots + 1):
            if slot in self._undistributed:
                self._distribute_slot(slot)

    def _distribute_slot(self, slot: int) -> BellKind:
        if slot not in self._undistributed:
            raise ProtocolError(f"slot {slot} already distributed")
        basis = eve_tap(self.eve, self.rng)
        source = self.slot_qubits[slot]
        if basis is None:
            nu, kind = self.register.teleport(source, self.rng)
        else:
            # Eve measures the link's far half in flight, before the swap.
            nu, _bit, kind = self.register.tapped_teleport(source, basis, self.rng)
        self.transcript.epr_player += 1
        self.transcript.dealer_distribution_measurements += 1
        if slot in self._secret_of_slot:
            self.transcript.bell_record[self._secret_of_slot[slot]] = kind
        else:
            self.transcript.decoy_record[slot] = kind
        self.slot_qubits[slot] = nu
        self._undistributed.discard(slot)
        return kind

    # -- record transport ----------------------------------------------------------

    def send_bits_classical(
        self, controller: int, index: int, bits: tuple[int, int]
    ) -> None:
        """Deliver two bits about record ``index`` to its one controller,
        one-time padded; what the controller decodes lands in ``decoded``.

        Dealer and controller consume a pair of singlet links; each
        Bell-measures its two halves, obtaining the same uniformly random
        two bits.  The dealer publicly announces ``bits`` XORed with her
        draw; only the controller can strip the pad.  ``transport_record``
        sends the recorded bits; any others may be sent to test the pad.
        Each bit must be the int 0 or 1 (``ProtocolError`` otherwise),
        checked before anything is spent.  The links are never built: the
        pad is sampled in closed form (:func:`_pad_tables`), with the same
        draws, qubit ids and register phase as measuring them.
        """
        if len(bits) != 2 or any(type(b) is not int or b not in (0, 1) for b in bits):
            raise ProtocolError(f"bits must be two ints, each 0 or 1, got {bits!r}")
        index = _record_index(index)
        self._check_transport(index, (controller,))
        self._send_bits(index, bits[0] << 1 | bits[1])

    def _send_bits(self, index: int, value: int) -> None:
        """:meth:`send_bits_classical` once the record has been checked, its
        bits ``(x, y)`` given as the value ``(x << 1) | y``.  Each draw is
        a Bell kind's value, which is its bit pair, so the pad XORs values."""
        dealer_cdf, controller_cdfs, scalars = _PAD
        t = self.transcript
        t.epr_controller += 2
        k = born_draw(dealer_cdf, self.rng)
        t.dealer_transport_measurements += 1
        c = born_draw(controller_cdfs[k], self.rng)
        t.controller_measurements += 1
        # The two links' four qubits, measured out whole.
        self.register.fold_measured_out(4, scalars[k])
        announced = value ^ k
        payload = f"announce record={index} bits={_BIT_TEXT[announced]}"
        t.messages.append(Message("dealer", "public", payload))
        self.decoded[index] = _BELL_KINDS[announced ^ c]

    def split_bell_between_controllers(
        self, ca: int, cb: int, record_index: int
    ) -> None:
        """Encode a record as a fresh Bell pair and split it between two
        controllers, one teleported half each; the halves wait in
        ``split_halves`` until :meth:`joint_identify` reads them.

        Each half is teleported over a singlet link, in closed form
        (:meth:`~cqss.qubits.QuantumRegister.teleport`: the link is counted
        and its ids spent, but never built); the dealer sends the
        teleportation correction to the receiving controller, who applies
        it immediately.  Afterwards the pair jointly holds the Bell state
        named by the record, and neither half alone carries any of it.
        """
        record_index = _record_index(record_index)
        self._check_transport(record_index, (ca, cb))
        kind = self.transcript.bell_record[record_index]
        g, h = self.register.alloc_bell_pair(kind)
        qa = self._teleport_to_controller(g, ca, record_index)
        qb = self._teleport_to_controller(h, cb, record_index)
        self.split_halves[record_index] = (qa, qb)

    def _transported(self, index: int) -> bool:
        return index in self.decoded or index in self.split_halves

    def _check_transport(self, index: int, holders: tuple[int, ...]) -> None:
        """Record ``index`` must be assigned to exactly ``holders``, produced
        by distribution, and not transported yet."""
        assigned = tuple(self.policy.record_to_controller.get(index, ()))
        if assigned != holders:
            raise PolicyError(
                f"record {index} is assigned to "
                f"{', '.join(f'controller-{c}' for c in assigned) or 'no controller'}, "
                f"not {', '.join(f'controller-{c}' for c in holders)}"
            )
        if index not in self.transcript.bell_record:
            raise IncompleteRun(f"record {index} has not been produced yet")
        if self._transported(index):
            raise ProtocolError(f"record {index} already transported")

    def _teleport_to_controller(
        self, qubit: QubitId, controller: int, record_index: int
    ) -> QubitId:
        beta, outcome = self.register.teleport(qubit, self.rng)
        self.transcript.epr_controller += 1
        self.transcript.dealer_transport_measurements += 1
        correction = _CORRECTIONS[outcome._value_]
        self.transcript.messages.append(
            Message(
                "dealer",
                f"controller-{controller}",
                f"correction record={record_index} pauli={correction._value_}",
            )
        )
        self.register.apply_pauli(beta, correction)
        return beta

    def transport_record(self, record_index: int) -> None:
        """Send one record the way the policy assigns it.  An index outside
        the secret raises ``ProtocolError``, a record not yet distributed
        ``IncompleteRun``."""
        record_index = _record_index(record_index)
        holders = self.policy.record_to_controller.get(record_index)
        if holders is None:
            raise ProtocolError(
                f"record index {record_index} outside 1..{self.secret_width}"
            )
        if len(holders) == 1:
            self._check_transport(record_index, holders)
            kind = self.transcript.bell_record[record_index]
            self._send_bits(record_index, kind._value_)
        else:
            self.split_bell_between_controllers(holders[0], holders[1], record_index)

    def transport_all(self) -> None:
        for index in range(1, self.secret_width + 1):
            if not self._transported(index):
                self.transport_record(index)

    # -- identification and reconstruction ------------------------------------------

    def joint_identify(
        self, ca: int, cb: int, record_index: int | None = None
    ) -> BellKind:
        """Two controllers read a split record of theirs by a joint Bell
        measurement, moving it from ``split_halves`` to ``decoded``.

        Without ``record_index`` the pair must hold exactly one unread split
        record.  Refuses (raising :class:`ControllerRefusal`) when either
        controller withholds; a lone cooperative controller learns nothing,
        since its half alone is maximally mixed.  Halves holding their Bell
        pair as prepared, with nothing owed, are a constant block, which
        :meth:`~cqss.qubits.QuantumRegister.bell_measure` measures from
        what the general path computed once at import (``_KNOWN``); halves
        in any other state take the general path.
        """
        holders = self.policy.record_to_controller
        if record_index is None:
            candidates = [
                i for i in sorted(self.split_halves) if set(holders[i]) == {ca, cb}
            ]
            if len(candidates) != 1:
                raise ProtocolError(
                    f"controller-{ca} and controller-{cb} hold "
                    f"{len(candidates)} unread split shares; "
                    f"pass record_index"
                )
            record_index = candidates[0]
        else:
            record_index = _record_index(record_index)
            if (
                record_index not in self.split_halves
                or set(holders[record_index]) != {ca, cb}
            ):
                raise ProtocolError(
                    f"record {record_index} is not an unread split share of "
                    f"controller-{ca}, controller-{cb}"
                )
        if not self.policy.record_released(record_index):
            refusers = [c for c in (ca, cb) if not self.policy.release[c]]
            raise ControllerRefusal(
                f"{', '.join(f'controller-{c}' for c in refusers)} "
                f"withheld cooperation"
            )
        pa, pb = holders[record_index]
        qa, qb = self.split_halves.pop(record_index)
        kind = self.register.bell_measure(qa, qb, self.rng)
        self.transcript.controller_measurements += 1
        self.decoded[record_index] = kind
        self.transcript.messages.append(
            Message(
                f"controller-{pa}+controller-{pb}",
                "public",
                f"identify record={record_index} bits={_BIT_TEXT[kind._value_]}",
            )
        )
        return kind

    def available_records(self) -> dict[int, BellKind]:
        """Transported records whose holders have all released, as the
        players see them.  A classical record's controller announces its
        decoded bits; a split record not yet identified is identified now."""
        available: dict[int, BellKind] = {}
        release, messages = self.policy.release, self.transcript.messages
        for index in sorted(self.decoded.keys() | self.split_halves.keys()):
            holders = self.policy.record_to_controller[index]
            if not all(map(release.__getitem__, holders)):
                continue
            if len(holders) == 1:
                bits = _BIT_TEXT[self.decoded[index]._value_]
                payload = f"release record={index} bits={bits}"
                messages.append(Message(f"controller-{holders[0]}", "public", payload))
            elif index not in self.decoded:
                self.joint_identify(*holders, index)
            available[index] = self.decoded[index]
        return available

    def reconstruct(self) -> Recovered | Sealed:
        """Gather released records, check coverage, apply corrections.

        Succeeds when the released records cover every qubit held by some
        set of at least ``threshold_k`` cooperating players; the corrections
        are then applied to exactly those qubits.  Otherwise the secret
        stays sealed and the register is left untouched.  Coverage is one
        pass over ``qubit_to_player`` for the eligible players
        (:meth:`AccessPolicy.eligible_players`) and one for the qubits they
        hold, in index order; each correction is read off the record's
        value.
        """
        if self._outcome is not None:
            return self._outcome
        if not self.distribution_complete:
            raise IncompleteRun("reconstruction requires a completed distribution")
        if not self.decoys_verified:
            raise IncompleteRun("decoy verification is still pending")
        available = self.available_records()
        k = self.policy.threshold_k
        eligible = self.policy.eligible_players(available)
        if len(eligible) < k:
            self._outcome = Sealed(
                f"released records cover only {len(eligible)} cooperating "
                f"players (threshold {k})"
            )
            return self._outcome
        players = set(eligible)
        covered = [
            i for i, p in sorted(self.policy.qubit_to_player.items()) if p in players
        ]
        share_ids = [self.slot_qubits[self._slot_of_secret[i]] for i in covered]
        corrections = self.transcript.corrections
        for index, qubit in zip(covered, share_ids):
            op = _CORRECTIONS[available[index]._value_]
            self.register.apply_pauli(qubit, op)
            corrections.append((qubit, op))
        # The corrected qubits are live, so with all of them covered the
        # register holds exactly the secret's qubits iff it holds N.
        if len(covered) == self.register.num_qubits == self.secret_width:
            self._outcome = Recovered(
                self.register.state_vector(order=share_ids),
                tuple(covered),
                tuple(eligible),
            )
        else:
            self._outcome = Recovered(
                None,
                tuple(covered),
                tuple(eligible),
                partial(self.register.reduced_density, share_ids),
            )
        return self._outcome

    # -- exact knowledge-state computation --------------------------------------------

    def withheld_state(self, withheld_indices: Iterable[int]) -> DensityMatrix:
        """Players' exact state when the given records never arrive.

        Each swap of the distribution is an exact one-qubit channel from the
        secret qubit to the player's link half, whose Kraus operators are
        read off forced ``project_bell`` branches of the swap gadget (see
        :func:`_swap_kraus`).  Withheld slots get the sum over all four
        uncorrected branches (``_WITHHELD``); every other slot gets the
        single branch actually recorded, followed by its correction
        (``_CORRECTED``), so a wrong correction table shows up here.  Both
        are built, their forms decided, at import (:func:`_swap_channel`).
        No sampling is involved.  The start is a copy of the run's
        :attr:`secret_projector`.  A released slot's channel is a real
        scalar c times the identity: one multiply in place.  A withheld slot
        is one product through :func:`~cqss.qubits._channel`.  Each run of
        released slots then gets one ``+= 0.0``: multiplying by c keeps every
        nonzero entry's value whatever the signs of the zeros beside it and
        every zero a zero, and the add turns -0.0 into the product's +0.0.
        """
        if not self.distribution_complete:  # before the indices are read
            raise IncompleteRun("distribution must complete first")
        withheld = _record_indices(withheld_indices)
        width = self.secret_width
        for i in withheld:
            if not 1 <= i <= width:
                raise ProtocolError(f"withheld index {i} outside 1..{width}")
        rho = self.secret_projector.copy()
        record = self.transcript.bell_record
        multiplied = False  # since the last += 0.0
        for index in range(1, width + 1):
            channel = _WITHHELD if index in withheld else _CORRECTED[record[index]]
            scalar = channel.scalar
            if scalar is None:
                if multiplied:
                    rho += 0.0
                rho = _channel(rho, index - 1, channel.superop)
            else:
                rho *= scalar
            multiplied = scalar is not None
        if multiplied:
            rho += 0.0
        # The trace is the total probability of the forced branches.
        rho /= rho.trace().real
        return DensityMatrix(rho, tuple(range(1, width + 1)))

    # -- accounting ---------------------------------------------------------------------

    def resource_report(self) -> ResourceReport:
        """Resource counts, checked against the closed-form expectations:
        N + M player links, 2N controller links, N + M distribution
        measurements, and one or two transport measurements per record for
        classical or split delivery respectively."""
        if not self.distribution_complete:
            raise IncompleteRun("distribution incomplete")
        missing = [
            i for i in range(1, self.secret_width + 1) if not self._transported(i)
        ]
        if missing:
            raise IncompleteRun(f"records not transported yet: {missing}")
        width = self.secret_width
        decoys = self.decoy_plan.count
        t = self.transcript
        n_classical = sum(
            1 for h in self.policy.record_to_controller.values() if len(h) == 1
        )
        n_split = width - n_classical
        expectations = {
            "epr_player": (t.epr_player, width + decoys),
            "epr_controller": (t.epr_controller, 2 * width),
            "dealer_distribution_measurements": (
                t.dealer_distribution_measurements,
                width + decoys,
            ),
            "dealer_transport_measurements": (
                t.dealer_transport_measurements,
                n_classical + 2 * n_split,
            ),
            "controller_measurements": (t.controller_measurements, len(self.decoded)),
        }
        bad = [
            f"{name}: counted {got}, expected {want}"
            for name, (got, want) in expectations.items()
            if got != want
        ]
        if bad:
            raise ResourceAccountingError("; ".join(bad))
        return ResourceReport(
            decoys=decoys,
            epr_player=t.epr_player,
            epr_controller=t.epr_controller,
            dealer_measurements=t.dealer_measurements,
            controller_measurements=t.controller_measurements,
            dealer_distribution_measurements=t.dealer_distribution_measurements,
            dealer_transport_measurements=t.dealer_transport_measurements,
        )


def _swap_kraus() -> tuple[dict[BellKind, np.ndarray], dict[BellKind, np.ndarray]]:
    """Kraus operators of one distribution swap, per dealer outcome.

    Each operator maps the source qubit to the receiving link half.  It is
    read off its Choi state: a reference qubit maximally entangled with the
    source goes through the swap gadget (fresh singlet link, ``project_bell``
    forced onto the outcome), and the normalized state over (reference,
    link half) is ``vec(K^T) / sqrt(2 p)``.  Returns the uncorrected
    operators and the ones followed by ``CORRECTION_FOR_OUTCOME``.

    The operators are constants: this runs once per process, at import,
    to build ``_WITHHELD`` and ``_CORRECTED``.
    """
    uncorrected: dict[BellKind, np.ndarray] = {}
    corrected: dict[BellKind, np.ndarray] = {}
    for kind in BellKind:
        reg = QuantumRegister()
        reference, source = reg.alloc_bell_pair(BellKind.VARPHI_PLUS)
        mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        scale = np.sqrt(2.0 * reg.project_bell(source, mu, kind))
        uncorrected[kind] = scale * reg.state_vector([reference, nu]).reshape(2, 2).T
        reg.apply_pauli(nu, _CORRECTIONS[kind._value_])
        corrected[kind] = scale * reg.state_vector([reference, nu]).reshape(2, 2).T
    return uncorrected, corrected


def _superoperator(kraus: Iterable[np.ndarray]) -> np.ndarray:
    """``sum_k K (x) conj(K)``: the channel ``rho -> sum_k K rho K^dagger``
    acting on the flattened (row, column) index pair of one qubit.  The
    Kronecker product is spelled as an outer product, which gives the same
    floats at a fifth of ``np.kron``'s call cost."""
    return sum(
        np.multiply.outer(k, k.conj()).transpose(0, 2, 1, 3).reshape(4, 4)
        for k in kraus
    )


class _SwapChannel(NamedTuple):
    superop: np.ndarray  # read-only, 4x4
    scalar: float | None  # c when the entries are exactly c * I4, c real
    seals: bool  # every output a multiple of the identity


def _swap_channel(superop: np.ndarray) -> _SwapChannel:
    """A read-only complex copy of the 4x4 ``superop``, its form decided
    once: it seals when rows 1 and 2 (the output's off-diagonal entries)
    are zero and rows 0 and 3 (its diagonal) the same bytes."""
    superop = np.array(superop, dtype=complex)
    superop.setflags(write=False)
    c = complex(superop[0, 0])
    scalar = c.real if (superop == c * np.eye(4)).all() and not c.imag else None
    seals = not superop[1:3].any() and superop[0].tobytes() == superop[3].tobytes()
    return _SwapChannel(superop, scalar, seals)


def _swap_superoperators() -> tuple[_SwapChannel, Mapping[BellKind, _SwapChannel]]:
    uncorrected, corrected = _swap_kraus()
    return _swap_channel(_superoperator(uncorrected.values())), MappingProxyType(
        {kind: _swap_channel(_superoperator([k])) for kind, k in corrected.items()}
    )


# The swap channel of a withheld record (all four uncorrected branches) and
# of a released one (its recorded branch, then its correction).
_WITHHELD, _CORRECTED = _swap_superoperators()


def _pad_tables() -> tuple[
    tuple[float, ...], tuple[tuple[float, ...], ...], tuple[complex, ...]
]:
    """The classical pad in closed form, read off the register's general path.

    A pad is two fresh singlet links (a1, b1) and (a2, b2): the dealer
    Bell-measures (a1, a2) and the controller (b1, b2), and entanglement
    swapping makes the controller's outcome match the dealer's (Zukowski et
    al., PRL 71, 4287, 1993).  The links are the same every time, so is
    everything the two measurements compute.  Returns the running sums
    (:func:`~cqss.qubits.born_cdf`) of the dealer's four probabilities as
    ``bell_probabilities`` gives them; for each dealer outcome, those of the
    controller's four; and for each dealer outcome, the scalar the emptied
    (b1, b2) block folds into the register phase.  ``bell_measure`` draws
    from the same running sums, so a pad makes the same draws.

    The tables are constants: this runs once per process, at import, to
    build ``_PAD``.
    """
    controller: list[np.ndarray] = []
    scalars: list[complex] = []
    for kind in BellKind:
        reg = QuantumRegister()
        a1, b1 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        a2, b2 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        dealer = reg.bell_probabilities(a1, a2)
        reg.project_bell(a1, a2, kind)
        after = reg.bell_probabilities(b1, b2)
        controller.append(after)
        # Swapping leaves the controller one possible outcome.
        reg.project_bell(b1, b2, _BELL_KINDS[int(np.argmax(after))])
        # An empty register's state is its phase alone.
        scalars.append(complex(reg.state_vector()[0]))
    return born_cdf(dealer), tuple(map(born_cdf, controller)), tuple(scalars)


_PAD = _pad_tables()


def setup(
    n: int,
    m: int,
    secret_width: int,
    secret: np.ndarray,
    policy: AccessPolicy,
    rng: RandomSource,
    decoy_plan: DecoyPlan | None = None,
    eve: EveModel | None = None,
) -> ProtocolRun:
    """Validate the roster, policy and decoy plan and stage a run.

    No link is ever built.  Every swap, tapped or not, and a split record's
    teleports run in closed form and a classical pad is sampled, so none of
    them allocates a block; a split record's Bell pair is a two-qubit block
    of its own, so no block outgrows the secret's own or a pair
    (:func:`peak_block_qubits`).
    """
    policy.validate(n, m, secret_width)
    if decoy_plan is not None:
        decoy_plan.validate(secret_width)
    return ProtocolRun(
        n, m, secret_width, secret, policy, rng, decoy_plan=decoy_plan, eve=eve
    )
