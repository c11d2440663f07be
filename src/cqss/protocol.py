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
  cooperate in a joint Bell measurement to read it (``transport_record`` /
  ``joint_identify``).  Each step takes a record index: the policy names
  every party.

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
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
    _BIT_TEXT,
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
    _NO_PLAN,
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

    # What the policy fixes, each computed once per policy when first read,
    # as ``_ReadOnlyDict._hash`` is: a policy is a value, and a changed one
    # (``dataclasses.replace``) is a new object that computes its own.

    @cached_property
    def released_records(self) -> tuple[int, ...]:
        """The records every holder releases, in index order."""
        return tuple(
            i for i in sorted(self.record_to_controller) if self.record_released(i)
        )

    @cached_property
    def players(self) -> tuple[int, ...]:
        """The players holding a qubit, in order."""
        return tuple(sorted(set(self.qubit_to_player.values())))

    @cached_property
    def record_counts(self) -> tuple[int, int]:
        """How many records travel classically (one holder) and how many
        split (two)."""
        holders = self.record_to_controller.values()
        classical = sum(1 for h in holders if len(h) == 1)
        return classical, len(holders) - classical

    def coverage(
        self, available: Iterable[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The :meth:`eligible_players` of the records ``available`` and
        the qubits those players hold, in index order; computed once per
        set of records."""
        key = frozenset(available)
        memo = self._coverage
        if key not in memo:
            eligible = tuple(self.eligible_players(key))
            chosen = set(eligible)
            covered = tuple(
                i for i, p in sorted(self.qubit_to_player.items()) if p in chosen
            )
            memo[key] = eligible, covered
        return memo[key]

    @cached_property
    def _coverage(self) -> dict:
        """:meth:`coverage` of each record set asked for, by its frozenset."""
        return {}

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
    """One classical message; parties are named without spaces."""
    sender: str
    receiver: str
    payload: str

    def line(self) -> str:
        return f"{self.sender} -> {self.receiver}: {self.payload}"


@dataclass
class Transcript:
    """Full classical record of one protocol run.  Each message is kept as
    its line, formatted once by :meth:`send`, and :attr:`messages` reads
    the lines back."""

    bell_record: dict[int, BellKind] = field(default_factory=dict)
    decoy_record: dict[int, BellKind] = field(default_factory=dict)
    corrections: list[tuple[QubitId, Pauli]] = field(default_factory=list)
    _lines: list[str] = field(default_factory=list, repr=False)
    # The last counts and the three lengths they were read at.
    _counted: tuple = field(default=((), ()), repr=False, compare=False)

    def send(self, sender: str, receiver: str, payload: str) -> None:
        """Write one message: the one place a line's format is kept."""
        self._lines.append(f"{sender} -> {receiver}: {payload}")

    @property
    def messages(self) -> tuple[Message, ...]:
        """Every message sent, in order, read back from its line."""
        split = (line.split(" -> ", 1) for line in self._lines)
        return tuple(Message(sender, *rest.split(": ", 1)) for sender, rest in split)

    def counts(self) -> tuple[int, int, int, int, int]:
        """Player links, controller links, the dealer's distribution and
        transport measurements and the controllers' measurements, read off
        the records and messages: a slot's record is a link and a dealer
        measurement, an ``announce`` (a pad) two links and a measurement on
        each side, a ``correction`` (a split half's teleport) a link and a
        dealer measurement, and an ``identify`` a controller measurement.
        :meth:`send` only appends, so while the number of lines and of
        records is unchanged the last counts are returned again."""
        key = (len(self._lines), len(self.bell_record), len(self.decoy_record))
        if self._counted[0] == key:
            return self._counted[1]
        text = "\n".join(self._lines)
        pads = text.count(": announce ")
        halves = text.count(": correction ")
        identified = text.count(": identify ")
        slots = key[1] + key[2]
        counts = slots, 2 * pads + halves, slots, pads + halves, pads + identified
        self._counted = key, counts
        return counts

    def to_text(self) -> str:
        bell = _record_text(self.bell_record)
        decoys = ""
        if self.decoy_record:
            decoys = f"decoy-record: {_record_text(self.decoy_record)}\n"
        corrections = " ".join([f"q{q}:{op._value_}" for q, op in self.corrections])
        player, links, distribution, transport, controller = self.counts()
        head = (
            f"transcript v1\nbell-record: {bell}\n{decoys}"
            f"epr-player: {player}\n"
            f"epr-controller: {links}\n"
            f"dealer-measurements: {distribution + transport} "
            f"(distribution {distribution}, transport {transport})\n"
            f"controller-measurements: {controller}\n"
            f"corrections: {corrections}\nmessages:"
        )
        # Each message line, indented under the heading.
        return "\n  ".join([head, *self._lines]) + "\n"


def _record_text(record: Mapping[int, BellKind]) -> str:
    """Each ``index:bits`` of ``record``, in index order."""
    return " ".join([f"{i}:{_BIT_TEXT[k._value_]}" for i, k in sorted(record.items())])


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


class ResourceReport(NamedTuple):
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
    decoy plan that a run trusts, and which fixes every party and the width.
    A run is single-threaded; parallel trials use independent runs with
    per-trial random sources.
    """

    def __init__(
        self,
        secret: np.ndarray,
        policy: AccessPolicy,
        rng: RandomSource,
        decoy_plan: DecoyPlan | None = None,
        eve: EveModel | None = None,
    ):
        secret_width = len(policy.qubit_to_player)
        peak_block_qubits(secret_width)
        secret = np.asarray(secret, dtype=complex).reshape(-1)
        if secret.size != 2**secret_width:
            raise PolicyError(
                f"secret has {secret.size} amplitudes, expected {2 ** secret_width}"
            )
        plan = decoy_plan if decoy_plan is not None else _NO_PLAN
        total = secret_width + plan.count

        self.secret_width = secret_width
        self.policy = policy
        self.rng = rng
        self.eve = eve if eve is not None else EveModel.off()
        self.decoy_plan = plan

        # Slot layout: decoys sit at the planned slots, each its own block
        # over its checked constant row; secret qubits fill the remaining
        # slots (every slot, with no decoys) in index order, each map built
        # by one zip.  Secret qubit i goes to the player the policy
        # names; the decoys go to the policy's players 1..n in turn.
        self.register = QuantumRegister()
        secret_ids = self.register.alloc_state(secret)
        # The run's one copy of the secret is the array its block holds:
        # nothing writes a block's array (cqss.qubits), so it is read-only.
        self._secret = self.register._block_of[secret_ids[0]].amps
        self._secret.setflags(write=False)
        decoys = plan.record
        indices = range(1, secret_width + 1)
        slots = [s for s in range(1, total + 1) if s not in decoys] if decoys else indices
        self._slot_of_secret = dict(zip(indices, slots))
        self._secret_of_slot = dict(zip(slots, indices))
        self.slot_qubits: dict[int, QubitId] = dict(zip(slots, secret_ids))
        self.decoy_receiver: dict[int, int] = {}
        for slot, player in zip(sorted(decoys), itertools.cycle(policy.players)):
            vector = _DECOY_VECTORS[decoys[slot]]
            (self.slot_qubits[slot],) = self.register._grow(vector, 1)
            self.decoy_receiver[slot] = player

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
        """The secret's amplitudes as given at setup, read-only: one
        checked copy of the caller's vector, the very array the secret's
        block held at setup."""
        return self._secret

    @cached_property
    def secret_projector(self) -> np.ndarray:
        """``pure_density(secret)``, read-only, built when the model first
        needs it: every withheld set's :meth:`withheld_state` starts from
        this one matrix."""
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
        """Swap one secret qubit over to its assigned player: the pass of
        :meth:`distribute_all` over its one slot.

        A fresh singlet link to the player is consumed; the dealer's Bell
        outcome is appended to the record list.  No correction is applied
        yet: the record first has to travel to controllers and come back.
        The link is never built: the swap is a closed-form teleport
        (:meth:`~cqss.qubits.QuantumRegister.teleport_all`), or, if the
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
        slot = self._slot_of_secret[secret_index]
        if slot not in self._undistributed:
            raise ProtocolError(f"slot {slot} already distributed")
        return self._distribute((slot,))[0][1]

    def distribute_all(self) -> None:
        """Distribute every slot not yet distributed (secret qubits and
        decoys) in slot order, in one pass (:meth:`distribute_qubit` runs
        it on one slot).

        With no eavesdropper the phase takes one draw per slot in one call
        (:meth:`~cqss.qubits.RandomSource.uniforms`), which leaves the
        stream as it was, and teleports every slot in one register call
        (:meth:`~cqss.qubits.QuantumRegister.teleport_all`), whose exact
        sign flips keep slot order.  Eve's basis draw reads half of a 64-bit
        output (:func:`~cqss.security.eve_tap`), so tapped slots draw and
        swap one by one."""
        self._distribute(sorted(self._undistributed))

    def _distribute(self, slots: Sequence[int]) -> list[tuple[QubitId, BellKind]]:
        """Swap each undistributed slot of ``slots``; return (qubit, outcome)s."""
        register, rng, qubits = self.register, self.rng, self.slot_qubits
        sources = [qubits[slot] for slot in slots]
        if self.eve.strategy == "none":
            moved = register.teleport_all(sources, rng.uniforms(len(sources)))
        else:
            moved = []
            for q in sources:
                basis = eve_tap(self.eve, rng)
                # Eve measures the link's far half in flight, before the swap;
                # her bit, the middle of three, is hers alone.
                moved.append(register.teleport(q, rng) if basis is None
                             else register.tapped_teleport(q, basis, rng)[::2])
        t = self.transcript
        index_of = self._secret_of_slot
        for slot, (nu, kind) in zip(slots, moved):
            if slot in index_of:
                t.bell_record[index_of[slot]] = kind
            else:
                t.decoy_record[slot] = kind
            qubits[slot] = nu
        self._undistributed.difference_update(slots)
        return moved

    # -- record transport ----------------------------------------------------------

    def send_bits_classical(self, index: int, bits: tuple[int, int]) -> None:
        """Deliver two bits about record ``index`` to its one controller,
        one-time padded; what the controller decodes lands in ``decoded``.

        Dealer and controller consume a pair of singlet links; each
        Bell-measures its two halves, obtaining the same uniformly random
        two bits.  The dealer publicly announces ``bits`` XORed with her
        draw; only the controller can strip the pad.  ``transport_record``
        sends the recorded bits through the same pad step; any others may
        be sent to test the pad.  Each bit must be the int 0 or 1
        (``ProtocolError`` otherwise), and the record one that
        :meth:`transport_record` could send, but not a split one
        (``PolicyError``), checked before anything is spent.  The links are
        never built: the pad is sampled in closed form (:func:`_pad_tables`),
        with the same draws, qubit ids and register phase as measuring them.
        """
        if len(bits) != 2 or any(type(b) is not int or b not in (0, 1) for b in bits):
            raise ProtocolError(f"bits must be two ints, each 0 or 1, got {bits!r}")
        index = _record_index(index)
        if len(self._check_transport(index)) != 1:
            raise PolicyError(f"record {index} is split; transport_record sends it")
        self._send_bits(index, bits[0] << 1 | bits[1], self.rng)

    def _send_bits(self, index: int, value: int, rng: RandomSource) -> None:
        """The pad step: :meth:`send_bits_classical` once the record has
        been checked, its bits ``(x, y)`` given as the value
        ``(x << 1) | y``, with the dealer's and then the controller's draw
        from ``rng``.  Each draw is a Bell kind's value, which is its bit
        pair, so the pad XORs values."""
        dealer_cdf, controller_cdfs, scalars = _PAD
        k = born_draw(dealer_cdf, rng)
        c = born_draw(controller_cdfs[k], rng)
        # The two links' four qubits, measured out whole.
        self.register.fold_measured_out(4, scalars[k])
        payload = f"announce record={index} bits={_BIT_TEXT[value ^ k]}"
        self.transcript.send("dealer", "public", payload)
        self.decoded[index] = _BELL_KINDS[value ^ k ^ c]

    def _check_transport(self, index: int) -> tuple[int, ...]:
        """The policy's holders of record ``index``, once the record is
        checked to be one of the secret's (``ProtocolError``), produced by
        distribution (``IncompleteRun``) and not transported yet
        (``ProtocolError``)."""
        holders = self.policy.record_to_controller.get(index)
        if holders is None:
            raise ProtocolError(f"record index {index} outside 1..{self.secret_width}")
        if index not in self.transcript.bell_record:
            raise IncompleteRun(f"record {index} has not been produced yet")
        if index in self.decoded or index in self.split_halves:
            raise ProtocolError(f"record {index} already transported")
        return holders

    def transport_record(self, record_index: int) -> None:
        """Send one record to the controllers the policy assigns it: the
        pass of :meth:`transport_all` over one record.

        A classical record's bits are padded to its controller (the pad
        step of :meth:`send_bits_classical`).  A split record is encoded as
        a fresh Bell pair, whose halves are teleported to its two
        controllers in policy order and wait in ``split_halves`` until
        :meth:`joint_identify` reads them.  Each teleport runs in closed
        form (:meth:`~cqss.qubits.QuantumRegister.teleport`: the link is
        counted and its ids spent, but never built), and the dealer sends
        its correction to the receiving controller, who applies it at once.
        Neither half alone carries any of the record.  An index outside the
        secret or a record already sent raises ``ProtocolError``, one not
        yet distributed ``IncompleteRun``, before anything is spent.
        """
        record_index = _record_index(record_index)
        self._check_transport(record_index)
        self._transport_records((record_index,))

    def transport_all(self) -> None:
        """Transport every record not yet transported, in index order, in
        one pass (:meth:`transport_record` runs it on one record), once
        every one of them has passed its checks, so a refused record spends
        nothing.

        Each record takes exactly two draws: a classical record's pad one
        for its dealer and one for its controller, a split record one for
        each of its two teleports.  So the phase takes them all ahead in one
        call (:meth:`~cqss.qubits.RandomSource.ahead`), which leaves the
        stream as it was.  Each pad's +-1 scalar and each teleport's sign
        reach the phase in record order, as one by one: no float moves."""
        decoded, halves = self.decoded, self.split_halves
        pending = [i for i in range(1, self.secret_width + 1)
                   if i not in decoded and i not in halves]
        for index in pending:
            if index not in self.transcript.bell_record:
                self._check_transport(index)  # raises IncompleteRun
        self._transport_records(pending)

    def _transport_records(self, indices: Sequence[int]) -> None:
        """Transport the checked records ``indices`` in order, on two draws
        each, taken ahead in one call: a classical record by the pad step
        (:meth:`_send_bits`), a split one by :meth:`_transport`."""
        rng = self.rng.ahead(2 * len(indices))
        holders_of = self.policy.record_to_controller
        record = self.transcript.bell_record
        send_bits, transport = self._send_bits, self._transport
        for index in indices:
            holders = holders_of[index]
            if len(holders) == 1:
                send_bits(index, record[index]._value_, rng)
            else:
                transport(index, holders, rng)
        rng.done()

    def _transport(self, index: int, holders: tuple[int, ...], rng: RandomSource):
        """Split record ``index``'s Bell pair, each half teleported to one
        of its ``holders`` in turn, drawing from ``rng``, and corrected by
        that controller once the dealer has sent the correction."""
        register, t = self.register, self.transcript
        pair = register.alloc_bell_pair(t.bell_record[index])
        halves = []
        for half, controller in zip(pair, holders):
            beta, outcome = register.teleport(half, rng)
            correction = _CORRECTIONS[outcome._value_]
            payload = f"correction record={index} pauli={correction._value_}"
            t.send("dealer", f"controller-{controller}", payload)
            register.apply_pauli(beta, correction)
            halves.append(beta)
        self.split_halves[index] = tuple(halves)

    # -- identification and reconstruction ------------------------------------------

    def joint_identify(self, record_index: int) -> BellKind:
        """The two controllers of split record ``record_index`` read it by a
        joint Bell measurement, moving it from ``split_halves`` to
        ``decoded``.

        A record that is no unread split share raises ``ProtocolError``; a
        refusal raises :class:`ControllerRefusal`, naming the withholding
        controllers in policy order.  Neither spends anything.  A lone
        cooperative controller learns nothing: its half alone is maximally
        mixed.  Halves holding their Bell pair as prepared, with nothing
        owed, are a constant block, which
        :meth:`~cqss.qubits.QuantumRegister.bell_measure` measures from
        what the general path computed once at import (``_KNOWN``); halves
        in any other state take the general path.
        """
        record_index = _record_index(record_index)
        if record_index not in self.split_halves:
            raise ProtocolError(f"record {record_index} is not an unread split share")
        holders = self.policy.record_to_controller[record_index]
        if not self.policy.record_released(record_index):
            refusers = [c for c in holders if not self.policy.release[c]]
            raise ControllerRefusal(
                f"{', '.join(f'controller-{c}' for c in refusers)} "
                f"withheld cooperation"
            )
        qa, qb = self.split_halves.pop(record_index)
        kind = self.register.bell_measure(qa, qb, self.rng)
        self.decoded[record_index] = kind
        self.transcript.send(
            "+".join(f"controller-{c}" for c in holders),
            "public",
            f"identify record={record_index} bits={_BIT_TEXT[kind._value_]}",
        )
        return kind

    def _release(self) -> dict[int, BellKind]:
        """Transported records whose holders have all released, as the
        players see them.  A classical record's controller announces its
        decoded bits; a split record not yet identified is identified now.
        Each call sends its messages again, so only :meth:`reconstruct`,
        which caches its outcome, calls it: once per run."""
        available: dict[int, BellKind] = {}
        holders_of = self.policy.record_to_controller
        decoded, send = self.decoded, self.transcript.send
        for index in self.policy.released_records:
            kind = decoded.get(index)
            if kind is not None:
                holders = holders_of[index]
                if len(holders) == 1:
                    payload = f"release record={index} bits={_BIT_TEXT[kind._value_]}"
                    send(f"controller-{holders[0]}", "public", payload)
            elif index in self.split_halves:
                kind = self.joint_identify(index)
            else:
                continue
            available[index] = kind
        return available

    def reconstruct(self) -> Recovered | Sealed:
        """Gather released records, check coverage, apply corrections.

        Succeeds when the released records cover every qubit held by some
        set of at least ``threshold_k`` cooperating players; the corrections
        are then applied to exactly those qubits.  Otherwise the secret
        stays sealed and the register is left untouched.  Coverage, the
        eligible players and the qubits they hold, is the policy's
        (:meth:`AccessPolicy.coverage`), computed once per set of available
        records.  The corrections, read off the records' values, are owed
        in index order in one call (:meth:`~cqss.qubits.QuantumRegister.apply_paulis`):
        exact sign flips of the phase, in the order one by one gives."""
        if self._outcome is not None:
            return self._outcome
        if not self.distribution_complete:
            raise IncompleteRun("reconstruction requires a completed distribution")
        if not self.decoys_verified:
            raise IncompleteRun("decoy verification is still pending")
        available = self._release()
        k = self.policy.threshold_k
        eligible, covered = self.policy.coverage(available)
        if len(eligible) < k:
            self._outcome = Sealed(
                f"released records cover only {len(eligible)} cooperating "
                f"players (threshold {k})"
            )
            return self._outcome
        slot_qubits, slot_of = self.slot_qubits, self._slot_of_secret
        share_ids = [slot_qubits[slot_of[i]] for i in covered]
        ops = [_CORRECTIONS[available[i]._value_] for i in covered]
        self.register.apply_paulis(share_ids, ops)
        self.transcript.corrections += zip(share_ids, ops)
        # The corrected qubits are live, so with all of them covered the
        # register holds exactly the secret's qubits iff it holds N.
        if len(covered) == self.register.num_qubits == self.secret_width:
            self._outcome = Recovered(
                self.register.state_vector(order=share_ids), covered, eligible
            )
        else:
            self._outcome = Recovered(
                None,
                covered,
                eligible,
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
        are built at import (:func:`_swap_channel`).  No sampling is
        involved: the model is one loop, each slot's channel applied once,
        in index order, to the read-only :attr:`secret_projector` with
        :func:`~cqss.qubits._channel`, then divided by its trace, the total
        probability of the forced branches.  It is the dense 4^N oracle that
        the tests check the audit's certificate against.  A non-integer
        index raises ``ProtocolError`` before an incomplete run raises
        ``IncompleteRun``, as in the audit.
        """
        channels, _ = self._swap_channels(_record_indices(withheld_indices))
        rho = self.secret_projector
        for position, channel in enumerate(channels):
            rho = _channel(rho, position, channel.superop)
        rho /= float(np.real(np.trace(rho)))
        return DensityMatrix(rho, tuple(range(1, self.secret_width + 1)))

    def _swap_channels(
        self, withheld: tuple[int, ...]
    ) -> tuple[list[_SwapChannel], list[float]]:
        """Each record's swap channel, in index order, and its deviation
        from its prediction: for a record in ``withheld``, ``_WITHHELD`` and
        its ``off_depolarizer``, else ``_CORRECTED`` of its recorded outcome
        and its ``off_identity`` (both tables as they are at the call).  The
        model and the sealing audit read the slots from here alone."""
        if self._undistributed:
            raise IncompleteRun("distribution must complete first")
        width = self.secret_width
        for i in withheld:
            if not 1 <= i <= width:
                raise ProtocolError(f"withheld index {i} outside 1..{width}")
        record, corrected, held = self.transcript.bell_record, _CORRECTED, _WITHHELD
        channels = [
            held if i in withheld else corrected[record[i]] for i in range(1, width + 1)
        ]
        deviations = [channel.off_identity for channel in channels]
        for i in withheld:
            deviations[i - 1] = held.off_depolarizer
        return channels, deviations

    # -- accounting ---------------------------------------------------------------------

    def resource_report(self) -> ResourceReport:
        """:meth:`Transcript.counts`, checked against the closed forms (N + M
        player links and distribution measurements, 2N controller links, one
        or two transport measurements per classical or split record, one
        controller measurement per record read), and the register's spent
        qubit ids against the counts: every id past the secret's and the
        decoys' is half of a Bell pair, a link's or a split record's.
        ``ResourceAccountingError`` names each count at fault."""
        if not self.distribution_complete:
            raise IncompleteRun("distribution incomplete")
        width = self.secret_width
        decoded, halves = self.decoded, self.split_halves
        # Each record is decoded or held in halves, never both.
        if len(decoded) + len(halves) != width:
            missing = [
                i for i in range(1, width + 1) if i not in decoded and i not in halves
            ]
            raise IncompleteRun(f"records not transported yet: {missing}")
        decoys = self.decoy_plan.count
        n_classical, n_split = self.policy.record_counts
        counts = self.transcript.counts()
        player, links, distribution, transport, controller = counts
        allocated = width + decoys
        counted = (*counts, self.register._next_id)
        expected = (
            allocated, 2 * width, allocated, n_classical + 2 * n_split, len(decoded),
            allocated + 2 * (player + links + n_split),
        )
        if counted != expected:
            raise ResourceAccountingError("; ".join(
                f"{name}: counted {got}, expected {want}"
                for name, got, want in zip(_CHECKED, counted, expected)
                if got != want
            ))
        return ResourceReport(
            decoys, player, links, distribution + transport, controller,
            distribution, transport,
        )


# What ``resource_report`` checks, in its order: the counts, then the ids.
_CHECKED = (
    "epr_player", "epr_controller", "dealer_distribution_measurements",
    "dealer_transport_measurements", "controller_measurements", "qubit_ids",
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
    off_identity: float  # diamond-norm bound: normalized map vs the identity
    off_depolarizer: float  # the same vs the depolarizer (a sealed slot)


# The superoperator of rho -> tr(rho) I / 2: what a withheld slot should be.
_DEPOLARIZER = np.outer([1.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5])


def _swap_channel(superop: np.ndarray) -> _SwapChannel:
    """A read-only complex copy of the 4x4 ``superop`` and its two
    deviations, decided once.

    Rows 0 plus 3 are the map's trace functional, c * (1, 0, 0, 1) for c
    times a trace-preserving map, and c is read as the mean of its entries
    0 and 3.  A = superop / c is compared with P, the identity and the
    depolarizer: 2 ||A - P||_F bounds their diamond distance, since for a
    one-qubit map that is at most the trace norm of the Choi matrix, a
    reshuffle of the superoperator, and that at most twice its Frobenius
    norm (Watrous, *The Theory of Quantum Information*, 2018, ch. 3).  A
    scale that is not real and positive gives inf for both."""
    superop = np.array(superop, dtype=complex)
    superop.setflags(write=False)
    trace = superop[0] + superop[3]
    scale = (trace[0] + trace[3]) / 2
    if scale.real > 0 and not scale.imag:
        normalized = superop / scale.real
        off = [
            2 * float(np.linalg.norm(normalized - p)) for p in (np.eye(4), _DEPOLARIZER)
        ]
    else:
        off = [math.inf, math.inf]
    return _SwapChannel(superop, *off)


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
    return ProtocolRun(secret, policy, rng, decoy_plan=decoy_plan, eve=eve)
