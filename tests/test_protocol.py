"""Protocol-level tests: distribution, record transport, gating, accounting."""

import copy
import hashlib
import itertools
import pickle
import re
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqss.errors import (
    CapacityError,
    ControllerRefusal,
    IncompleteRun,
    PolicyError,
    ProtocolError,
)
from cqss import harness, protocol, qubits
from cqss.harness import build_run
from cqss.protocol import (
    AccessPolicy,
    Message,
    Recovered,
    Sealed,
    peak_block_qubits,
    setup,
)
from cqss.qubits import (
    CORRECTION_FOR_OUTCOME,
    BellKind,
    DensityMatrix,
    Pauli,
    QuantumRegister,
    RandomSource,
    fidelity,
    pure_density,
    sealed_mixture,
    trace_distance,
)
from cqss.scenario import load_scenario, parse_scenario_text
from cqss.security import (
    DecoyPlan,
    DecoyState,
    EveModel,
    no_information_audit,
    noinfo_sweep,
    verify_decoys,
)
from test_qubits import (
    EagerRegister,
    channel_by_product,
    general_tapped_teleport,
    measurement,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def haar(width, seed):
    rng = RandomSource(seed)
    vec = rng.complex_normals(2**width)
    return vec / np.linalg.norm(vec)


def fresh_run(width=3, seed=0, policy=None, secret_seed=1):
    policy = policy or AccessPolicy.round_robin(width, width, width)
    return setup(
        width, width, width, haar(width, secret_seed), policy, RandomSource(seed)
    )


def complete(run):
    run.distribute_all()
    run.transport_all()
    return run


# -- setup validation -------------------------------------------------------------


class TestSetup:
    def test_valid_roster_has_empty_transcript(self):
        run = fresh_run()
        t = run.transcript
        assert not t.bell_record and not t.messages
        assert t.dealer_measurements == t.controller_measurements == 0

    def test_more_players_than_qubits_rejected(self):
        policy = AccessPolicy.round_robin(3, 3, 3)
        with pytest.raises(PolicyError):
            setup(4, 3, 3, haar(3, 1), policy, RandomSource(0))

    def test_controller_without_share_rejected(self):
        policy = AccessPolicy.round_robin(3, 3, 3)
        with pytest.raises(PolicyError):
            setup(3, 4, 3, haar(3, 1), policy, RandomSource(0))

    def test_link_budget_reserves_two_per_record(self):
        run = fresh_run()
        complete(run)
        assert run.resource_report().epr_controller == 6

    def test_too_wide_secret_rejected_first(self):
        # A 25-qubit secret's own block is over the cap.  The width is
        # rejected before the secret (here a stand-in of the wrong size) is
        # checked or any register is allocated.
        width = 25
        policy = AccessPolicy.round_robin(1, 1, width)
        with pytest.raises(CapacityError, match="25 qubits"):
            setup(1, 1, width, np.zeros(1), policy, RandomSource(0))

    def test_invalid_decoy_plan_rejected_before_capacity(self):
        # 30 duplicate placements; the plan is checked before any register
        # is allocated
        plan = DecoyPlan((1,) * 30, (DecoyState.ZERO,) * 30)
        policy = AccessPolicy.round_robin(3, 3, 3)
        with pytest.raises(PolicyError):
            setup(3, 3, 3, haar(3, 1), policy, RandomSource(0), decoy_plan=plan)

    def test_decoy_plan_validated_once(self, monkeypatch):
        calls = []
        validate = DecoyPlan.validate
        monkeypatch.setattr(
            DecoyPlan, "validate",
            lambda plan, width: (calls.append(width), validate(plan, width)),
        )
        plan = DecoyPlan.random(3, 2, RandomSource(5))
        policy = AccessPolicy.round_robin(3, 3, 3)
        setup(3, 3, 3, haar(3, 1), policy, RandomSource(0), decoy_plan=plan)
        assert calls == [3]

    def test_unnormalized_secret_rejected(self):
        from cqss.errors import NotNormalized

        policy = AccessPolicy.round_robin(2, 2, 2)
        with pytest.raises(NotNormalized):
            setup(2, 2, 2, np.array([1.0, 0, 0, 1.0]), policy, RandomSource(0))

    def test_bad_threshold_rejected(self):
        policy = AccessPolicy.round_robin(3, 3, 3, threshold_k=4)
        with pytest.raises(PolicyError):
            setup(3, 3, 3, haar(3, 1), policy, RandomSource(0))

    def test_a_run_built_directly_matches_setup(self):
        # The policy fixes the width and the players: a run built without
        # setup gives the same bytes, and its decoys go to players 1..n in
        # turn (n = 2, five decoys).
        policy = AccessPolicy.round_robin(2, 3, 3, split_all=True)
        plan = DecoyPlan.random(3, 5, RandomSource(4))
        secret = haar(3, 2)
        runs = [
            protocol.ProtocolRun(secret, policy, RandomSource(9), plan),
            setup(2, 3, 3, secret, policy, RandomSource(9), decoy_plan=plan),
        ]
        for run in runs:
            complete(run)
            verify_decoys(run, plan)
            run.reconstruct()
        direct, staged = runs
        assert direct.transcript.to_text() == staged.transcript.to_text()
        assert direct.secret_width == 3
        assert direct.decoy_receiver == dict(zip(plan.placements, [1, 2, 1, 2, 1]))

    @pytest.mark.parametrize(
        "n, m, width, policy, message",
        [
            (3, 3, 3, AccessPolicy.round_robin(3, 3, 3, threshold_k=4),
             "threshold_k: 4 outside 1..3"),
            (0, 3, 3, AccessPolicy.round_robin(3, 3, 3),
             "need at least one player, one controller and one qubit "
             "(got n=0, m=3, width=3)"),
            (3, 3, 3, replace(AccessPolicy.round_robin(3, 3, 3), release={1: True}),
             "release: must flag every controller 1..3 exactly once"),
        ],
        ids=["threshold", "no-players", "release"],
    )
    def test_setup_names_the_fault_in_an_invalid_policy(self, n, m, width, policy, message):
        # A run trusts its policy; setup is what checks it for a library caller.
        with pytest.raises(PolicyError) as info:
            setup(n, m, width, haar(width, 1), policy, RandomSource(0))
        assert str(info.value) == message


# -- distribution --------------------------------------------------------------------


class TestDistribution:
    def test_identity_outcome_leaves_state_unchanged(self):
        # scan seeds for a first-outcome singlet record; that branch needs no
        # correction, so the residual equals the original state
        for seed in range(64):
            run = fresh_run(seed=seed, secret_seed=5)
            kind = run.distribute_qubit(1)
            if kind is BellKind.PHI_MINUS:
                order = [run.slot_qubits[s] for s in (1, 2, 3)]
                residual = run.register.state_vector(order=order)
                assert fidelity(residual, run.secret) >= 1 - 1e-10
                return
        pytest.fail("no identity branch in 64 seeds (p ~ 0.25 each)")

    def test_outcomes_uniform(self):
        counts = {kind: 0 for kind in BellKind}
        trials = 4000
        for seed in range(trials):
            run = fresh_run(width=2, seed=seed, secret_seed=9)
            counts[run.distribute_qubit(1)] += 1
        sigma = np.sqrt(trials * 0.25 * 0.75)
        for kind, count in counts.items():
            assert abs(count - trials / 4) < 4 * sigma, counts

    def test_double_distribution_rejected(self):
        run = fresh_run()
        run.distribute_qubit(2)
        with pytest.raises(ProtocolError):
            run.distribute_qubit(2)

    def test_out_of_range_index_rejected(self):
        run = fresh_run()
        with pytest.raises(ProtocolError):
            run.distribute_qubit(4)

    def test_decoy_receivers_and_reporters(self):
        # n = 2 with three decoys, so the decoy rotation wraps back to
        # player 1; the policy deals the secret qubits out in reverse, and
        # names their receivers itself.
        p1, p2 = 1, 2
        policy = replace(AccessPolicy.round_robin(2, 2, 2), qubit_to_player={1: p2, 2: p1})
        plan = DecoyPlan((1, 3, 5), (DecoyState.ZERO, DecoyState.PLUS_X, DecoyState.ONE))
        run = setup(2, 2, 2, haar(2, 1), policy, RandomSource(0), decoy_plan=plan)
        assert run.decoy_receiver == {1: p1, 3: p2, 5: p1}
        run.distribute_all()
        verify_decoys(run, plan)
        reports = [
            m for m in run.transcript.messages if m.payload.startswith("decoy-report")
        ]
        assert len(reports) == 3
        for message in reports:
            slot = int(message.payload.split("slot=")[1].split()[0])
            assert message.sender == f"player-{run.decoy_receiver[slot]}"

    def test_full_distribution_plus_corrections_restores_state(self):
        for seed in (0, 1, 2):
            run = fresh_run(seed=seed, secret_seed=33)
            run.distribute_all()
            order = []
            from cqss.qubits import CORRECTION_FOR_OUTCOME

            for index in (1, 2, 3):
                q = run.slot_qubits[index]
                run.register.apply_pauli(
                    q, CORRECTION_FOR_OUTCOME[run.transcript.bell_record[index]]
                )
                order.append(q)
            assert fidelity(run.register.state_vector(order=order), run.secret) \
                >= 1 - 1e-10

    def test_counts_grow_monotonically(self):
        run = fresh_run()
        seen = []
        for index in (1, 2, 3):
            run.distribute_qubit(index)
            t = run.transcript
            seen.append((t.epr_player, t.dealer_measurements))
        assert seen == [(1, 1), (2, 2), (3, 3)]


def random_full_release_policy(width, rng):
    """Random qubit/record assignments with everyone consenting: random
    player loads, random controller loads, random classical/split mix."""
    n = 1 + rng.integers(width)
    players = list(range(1, n + 1))
    assignment = list(players)  # each player holds at least one qubit
    while len(assignment) < width:
        assignment.append(players[rng.integers(n)])
    order = sorted(range(width), key=lambda _: rng.random())
    qubit_to_player = {i + 1: assignment[order[i]] for i in range(width)}

    record_holders = {}
    controllers_used = 0
    for index in range(1, width + 1):
        split = rng.integers(2) == 1 and controllers_used + 2 <= 2 * width
        count = 2 if split else 1
        # reuse an existing controller sometimes, otherwise mint new ones
        holders = []
        for _ in range(count):
            if controllers_used and rng.integers(3) == 0:
                pick = 1 + rng.integers(controllers_used)
                if pick not in holders:
                    holders.append(pick)
                    continue
            controllers_used += 1
            holders.append(controllers_used)
        record_holders[index] = tuple(holders)
    m = controllers_used
    policy = AccessPolicy(
        qubit_to_player=qubit_to_player,
        record_to_controller=record_holders,
        threshold_k=1 + rng.integers(n),
        release={i: True for i in range(1, m + 1)},
        cooperating_players=set(players),
    )
    return policy, n, m


class TestEndToEndRandomPolicies:
    def test_full_release_identity_for_random_configurations(self):
        for width in range(1, 7):
            for case in range(4):
                rng = RandomSource((width, case, 99))
                policy, n, m = random_full_release_policy(width, rng)
                secret = haar(width, 500 + 10 * width + case)
                run = setup(n, m, width, secret, policy, rng)
                run.distribute_all()
                run.transport_all()
                out = run.reconstruct()
                assert isinstance(out, Recovered), (width, case)
                assert fidelity(out.state_vector, secret) >= 1 - 1e-10


# -- bit encoding ----------------------------------------------------------------------


def test_encode_decode_round_trip():
    assert BellKind.PHI_MINUS.bits == (0, 0)
    assert BellKind.VARPHI_PLUS.bits == (1, 1)
    for kind in BellKind:
        x, y = kind.bits
        assert qubits._BELL_KINDS[(x << 1) | y] is kind


# -- classical record transport -----------------------------------------------------------


class TestClassicalTransport:
    def test_xor_announcement_and_decode(self):
        run = fresh_run(seed=7)
        run.distribute_all()
        run.send_bits_classical(1, (0, 1))

        announce = [m for m in run.transcript.messages
                    if m.payload.startswith("announce")]
        assert len(announce) == 1 and announce[0].receiver == "public"
        u, v = (int(c) for c in announce[0].payload.split("bits=")[1])
        # the announcement is the record XOR the dealer's draw; the
        # controller's identical draw strips it
        assert run.decoded[1].bits == (0, 1)
        xp, yp = (u ^ 0, v ^ 1)
        assert (u, v) == (0 ^ xp, 1 ^ yp)

    def test_dealer_and_controller_draws_agree(self):
        for seed in range(300):
            run = fresh_run(width=1, seed=seed, secret_seed=2)
            run.distribute_all()
            bits = (seed & 1, (seed >> 1) & 1)
            run.send_bits_classical(1, bits)
            assert run.decoded[1].bits == bits

    def test_link_budget_enforced(self):
        run = fresh_run(width=1, seed=3)
        run.distribute_all()
        run.send_bits_classical(1, (1, 0))
        with pytest.raises(ProtocolError):
            # record already transported
            run.send_bits_classical(1, (1, 0))

    def test_transport_before_distribution_rejected(self):
        run = fresh_run()
        with pytest.raises(IncompleteRun):
            run.send_bits_classical(1, (0, 0))

    def test_split_record_refused_before_anything_is_spent(self):
        # Record 1 is split between controllers 1 and 2: the pad cannot
        # send it, and the refusal spends no link, draw or qubit id.
        policy = AccessPolicy.round_robin(2, 4, 2, split_all=True)
        run, twin = (
            setup(2, 4, 2, haar(2, 1), policy, RandomSource(12)) for _ in range(2)
        )
        run.distribute_all()
        twin.distribute_all()
        with pytest.raises(PolicyError) as err:
            run.send_bits_classical(1, (1, 1))
        assert str(err.value) == "record 1 is split; transport_record sends it"
        assert_same_protocol_state(run, twin)
        assert run.register.copy().alloc_qubit(0) == twin.register.copy().alloc_qubit(0)
        run.transport_all()
        assert run.resource_report().epr_controller == 4

    def test_transport_record_checks_before_reading(self):
        # A record not yet distributed, or an index outside the secret, is
        # a typed error, and no link is spent on it.
        run = fresh_run(width=2, policy=AccessPolicy.round_robin(2, 2, 2))
        with pytest.raises(IncompleteRun, match="record 1 has not been produced"):
            run.transport_record(1)
        run.distribute_all()
        with pytest.raises(ProtocolError, match=r"record index 5 outside 1\.\.2"):
            run.transport_record(5)
        assert run.decoded == {} and run.transcript.epr_controller == 0
        run.transport_record(1)
        assert run.decoded[1] is run.transcript.bell_record[1]

    @pytest.mark.parametrize("split", [False, True])
    def test_transport_all_checks_every_record_before_sending_any(self, split):
        # Record 2 of three is not distributed yet: transport_all refuses
        # it before record 1 spends a link, a draw or a qubit id.
        m = 6 if split else 3
        policy = AccessPolicy.round_robin(3, m, 3, split_all=split)
        run, twin = (
            setup(3, m, 3, haar(3, 1), policy, RandomSource(9)) for _ in range(2)
        )
        for r in (run, twin):
            r.distribute_qubit(1)
            r.distribute_qubit(3)
        with pytest.raises(IncompleteRun, match="record 2 has not been produced"):
            run.transport_all()
        assert run.transcript.epr_controller == 0
        assert run.register.copy().alloc_qubit(0) == twin.register.copy().alloc_qubit(0)
        assert_same_protocol_state(run, twin)

    @pytest.mark.parametrize(
        "bits", [(2, 0), (-1, 0), (0.0, 1), ("0", 1)],
        ids=["two", "minus-one", "float", "str"],
    )
    def test_bad_bits_rejected_before_anything_is_spent(self, bits):
        run, twin = (
            fresh_run(width=2, seed=12, policy=AccessPolicy.round_robin(2, 2, 2))
            for _ in range(2)
        )
        run.distribute_all()
        twin.distribute_all()
        with pytest.raises(ProtocolError, match="bits must be two ints, each 0 or 1"):
            run.send_bits_classical(1, bits)
        assert run.transcript.to_text() == twin.transcript.to_text()
        assert run.decoded == {}
        assert run.register.live_qubits() == twin.register.live_qubits()
        assert run.register.copy().alloc_qubit(0) == twin.register.copy().alloc_qubit(0)
        assert run.rng.random() == twin.rng.random()
        run.transport_all()
        assert run.resource_report().epr_controller == 4


# -- the classical pad in closed form ------------------------------------------------------


def simulated_send_bits(run, index, value, rng):
    """The classical pad as two simulated singlet links and two Bell
    measurements, as ``ProtocolRun._send_bits`` once ran it, kept as the
    closed form's reference; the bits come as the value ``(x << 1) | y``
    and the draws from ``rng``."""
    reg = run.register
    a1, b1 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
    a2, b2 = reg.alloc_bell_pair(BellKind.PHI_MINUS)
    run.transcript.epr_controller += 2
    dealer_draw = reg.bell_measure(a1, a2, rng)
    run.transcript.dealer_transport_measurements += 1
    controller_draw = reg.bell_measure(b1, b2, rng)
    run.transcript.controller_measurements += 1
    x, y = value >> 1, value & 1
    xp, yp = dealer_draw.bits
    announced = (x ^ xp, y ^ yp)
    run.transcript.send(
        "dealer", "public", f"announce record={index} bits={announced[0]}{announced[1]}"
    )
    xc, yc = controller_draw.bits
    run.decoded[index] = qubits._BELL_KINDS[(announced[0] ^ xc) << 1 | (announced[1] ^ yc)]


def assert_same_run(run, ref):
    """Transcript, records, live qubits and ids, largest block, and the
    register's phase and state, bit for bit."""
    assert run.transcript.to_text() == ref.transcript.to_text()
    assert run.decoded == ref.decoded
    reg, reg_ref = run.register, ref.register
    assert reg.live_qubits() == reg_ref.live_qubits()
    assert reg.copy().alloc_qubit(0) == reg_ref.copy().alloc_qubit(0)
    assert reg.peak_block_qubits == reg_ref.peak_block_qubits
    assert np.complex128(reg._phase).tobytes() == np.complex128(reg_ref._phase).tobytes()
    assert reg.state_vector().tobytes() == reg_ref.state_vector().tobytes()


_PAD_BITS = [None, (0, 0), (0, 1), (1, 0), (1, 1)]  # None: the recorded bits


def check_pad_against_reference(seed, holders, steps, bits):
    """Run the same program with the closed-form pad and with the simulated
    one, comparing after every step.  ``steps`` lists each record index
    twice: its first occurrence distributes it, its second transports it,
    with ``bits[i]`` if record i is classical and ``bits[i]`` is not None."""
    width = len(holders)
    policy = replace(
        AccessPolicy.round_robin(width, 2, width),
        record_to_controller=dict(enumerate(holders, start=1)),
    )
    run, ref = (
        setup(width, 2, width, haar(width, seed), policy, RandomSource(seed))
        for _ in range(2)
    )
    ref._send_bits = partial(simulated_send_bits, ref)
    seen = set()
    for i in steps:
        for r in (run, ref):
            if i not in seen:
                r.distribute_qubit(i)
            elif len(holders[i - 1]) == 2 or bits[i - 1] is None:
                r.transport_record(i)
            else:
                r.send_bits_classical(i, bits[i - 1])
        seen.add(i)
        assert_same_run(run, ref)
    run.reconstruct()
    ref.reconstruct()
    assert_same_run(run, ref)
    assert run.rng.random() == ref.rng.random()


@st.composite
def pad_programs(draw):
    width = draw(st.integers(1, 4))
    holders = draw(
        st.lists(st.sampled_from([(1,), (2,), (1, 2)]), min_size=width, max_size=width)
    )
    if {c for h in holders for c in h} != {1, 2}:
        holders[0] = (1, 2)
    steps = draw(st.permutations([i for i in range(1, width + 1) for _ in range(2)]))
    bits = draw(st.lists(st.sampled_from(_PAD_BITS), min_size=width, max_size=width))
    return draw(st.integers(0, 2**32 - 1)), holders, steps, bits


# Fixed programs on which a wrong table must show: every record classical.
_CLASSICAL_PROGRAMS = [
    (seed, [(1,), (2,), (1,), (2,)], [1, 2, 1, 3, 2, 4, 3, 4], _PAD_BITS[1:])
    for seed in range(8)
]


class TestClosedFormPad:
    @given(pad_programs())
    def test_matches_the_simulated_pad(self, program):
        check_pad_against_reference(*program)

    def test_pad_builds_no_links(self, monkeypatch):
        run = fresh_run(width=3, seed=4)
        run.distribute_all()

        def refuse(*args):
            raise AssertionError("a pad simulated its links")

        monkeypatch.setattr(QuantumRegister, "alloc_bell_pair", refuse)
        monkeypatch.setattr(QuantumRegister, "bell_measure", refuse)
        run.transport_all()
        assert [run.decoded[i] for i in (1, 2, 3)] == [
            run.transcript.bell_record[i] for i in (1, 2, 3)
        ]

    def test_tables(self):
        # The running sums of the probabilities that bell_probabilities
        # gives on the two links.
        dealer, controller, scalars = protocol._PAD
        assert dealer == tuple(itertools.accumulate([0.24999999999999983] * 4))
        for k, cdf in enumerate(controller):
            assert cdf == tuple(itertools.accumulate(
                [0.9999999999999996 if j == k else 0.0 for j in range(4)]
            ))
        assert scalars == (1 + 0j, -1 + 0j, -1 + 0j, 1 + 0j)

    def test_tables_from_phi_plus_links_fail_the_check(self, monkeypatch):
        real = QuantumRegister.alloc_bell_pair
        with monkeypatch.context() as patch:
            patch.setattr(
                QuantumRegister,
                "alloc_bell_pair",
                lambda reg, kind: real(reg, BellKind.PHI_PLUS),
            )
            tables = protocol._pad_tables()
        monkeypatch.setattr(protocol, "_PAD", tables)
        with pytest.raises(AssertionError):
            for program in _CLASSICAL_PROGRAMS:
                check_pad_against_reference(*program)

    def test_flipped_phase_scalar_fails_the_check(self, monkeypatch):
        dealer, controller, scalars = protocol._PAD
        monkeypatch.setattr(
            protocol, "_PAD", (dealer, controller, tuple(-z for z in scalars))
        )
        with pytest.raises(AssertionError):
            check_pad_against_reference(*_CLASSICAL_PROGRAMS[0])


# -- split transport -------------------------------------------------------------------


def split_pair_policy():
    return AccessPolicy(
        qubit_to_player={1: 1},
        record_to_controller={1: (1, 2)},
        threshold_k=1,
        release={1: True, 2: True},
        cooperating_players={1},
    )


class TestSplitTransport:
    def collect_runs_by_kind(self):
        """Runs whose first record covers each of the four kinds."""
        found = {}
        seed = 0
        while len(found) < 4 and seed < 200:
            run = setup(1, 2, 1, haar(1, 6), split_pair_policy(), RandomSource(seed))
            run.distribute_all()
            kind = run.transcript.bell_record[1]
            if kind not in found:
                found[kind] = run
            seed += 1
        assert len(found) == 4, "all four record kinds should appear in 200 seeds"
        return found

    def test_lone_controller_sees_nothing(self):
        for kind, run in self.collect_runs_by_kind().items():
            run.transport_all()
            qa, qb = run.split_halves[1]
            for q in (qa, qb):
                rho = run.register.reduced_density([q])
                assert trace_distance(rho.entries, np.eye(2) / 2) <= 1e-10, kind

    def test_joint_identify_returns_prepared_kind(self):
        for kind, run in self.collect_runs_by_kind().items():
            run.transport_all()
            got = run.joint_identify(1)
            assert got is kind

    def test_joint_identify_deterministic_eigenstate(self):
        # exhaustive over both teleport branches: identification never varies
        for seed in range(100):
            run = setup(1, 2, 1, haar(1, 6), split_pair_policy(), RandomSource(seed))
            run.distribute_all()
            run.transport_all()
            kind = run.transcript.bell_record[1]
            assert run.joint_identify(1) is kind

    def test_defector_triggers_refusal(self):
        policy = replace(split_pair_policy(), release={1: True, 2: False})
        run = setup(1, 2, 1, haar(1, 6), policy, RandomSource(8))
        run.distribute_all()
        run.transport_all()
        with pytest.raises(ControllerRefusal):
            run.joint_identify(1)
        # the cooperative controller's half is still maximally mixed
        qa, _ = run.split_halves[1]
        rho = run.register.reduced_density([qa])
        assert trace_distance(rho.entries, np.eye(2) / 2) <= 1e-10

    # Six records over four controllers: a lone one, and split records over
    # four different pairs, pair {1, 2} holding two of them in both orders.
    SEVERAL_SPLITS = {1: (1, 2), 2: (3, 4), 3: (2, 1), 4: (2, 3), 5: (4,), 6: (4, 1)}

    def several_splits_run(self, seed):
        policy = AccessPolicy(
            qubit_to_player={i: (i - 1) % 3 + 1 for i in range(1, 7)},
            record_to_controller=self.SEVERAL_SPLITS,
            threshold_k=3,
            release=dict.fromkeys(range(1, 5), True),
            cooperating_players={1, 2, 3},
        )
        return complete(setup(3, 4, 6, haar(6, 9), policy, RandomSource(seed)))

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (5, "4f2fd925cebc8da2930a8f13d9f2f9bc3082717944633a4c5e51422b419e50c0"),
            (6, "cace47a5290ab3930e0522e46bd4cf1b2cbe58e7c2892ff31ecd7cb81e784a5f"),
        ],
    )
    def test_split_records_identified_in_shuffled_order(self, seed, digest):
        # Each index is checked directly against the unread split records;
        # the transcript keeps its bytes.
        run = self.several_splits_run(seed)
        for index in (4, 3, 6, 1, 2):
            assert run.joint_identify(index) is run.transcript.bell_record[index]
        assert run.split_halves == {}
        assert hashlib.sha256(run.transcript.to_text().encode()).hexdigest() == digest

    def test_joint_identify_rejects_what_is_no_unread_split_share(self):
        # A classical record, one outside the secret, one already read and
        # an index that is no int are refused, and nothing is spent.
        run, twin = self.several_splits_run(5), self.several_splits_run(5)
        share = "is not an unread split share"
        not_int = "record indices must be integers:"
        as_int = "object cannot be interpreted as an integer"
        cases = [
            (5, f"record 5 {share}"),  # classical
            (7, f"record 7 {share}"),  # out of range
            (0, f"record 0 {share}"),
            ("3", f"{not_int} 'str' {as_int}"),
            (1.5, f"{not_int} 'float' {as_int}"),
            ([3], f"{not_int} 'list' {as_int}"),
        ]
        for index, text in cases:
            with pytest.raises(ProtocolError) as err:
                run.joint_identify(index)
            assert type(err.value) is ProtocolError and str(err.value) == text, index
        assert_same_protocol_state(run, twin)
        assert run.register.copy().alloc_qubit(0) == twin.register.copy().alloc_qubit(0)
        for r in (run, twin):
            r.joint_identify(1)
            r.joint_identify(2)
        for index in (1, 2):  # already identified
            with pytest.raises(ProtocolError) as err:
                run.joint_identify(index)
            assert str(err.value) == f"record {index} {share}"
        assert_same_protocol_state(run, twin)
        assert run.register.copy().alloc_qubit(0) == twin.register.copy().alloc_qubit(0)
        assert run.joint_identify(3) is run.transcript.bell_record[3]

    def test_identity_branch_preserves_singlet(self):
        # teleporting half of a singlet through a singlet, forcing the
        # no-correction branch, leaves the singlet intact
        from cqss.qubits import QuantumRegister

        reg = QuantumRegister()
        g, h = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        alpha, beta = reg.alloc_bell_pair(BellKind.PHI_MINUS)
        reg.project_bell(g, alpha, BellKind.PHI_MINUS)
        got = reg.state_vector(order=[beta, h])
        assert fidelity(got, BellKind.PHI_MINUS.vector) >= 1 - 1e-10


# -- reconstruction ----------------------------------------------------------------------


def index_run(split, stage):
    """Two records, both split (controllers 1+2 and 3+4) or both classical
    (controllers 1 and 2), after ``stage`` of distribute_all and
    transport_all."""
    m = 4 if split else 2
    policy = AccessPolicy.round_robin(2, m, 2, split_all=split)
    run = setup(2, m, 2, haar(2, 3), policy, RandomSource(8))
    for step in (run.distribute_all, run.transport_all)[:stage]:
        step()
    return run


# Each entry point that takes a record or secret index: whether its run is
# split, how far it is staged, and the call on index i.
INDEX_ENTRY_POINTS = {
    "distribute_qubit": (False, 0, lambda run, i: run.distribute_qubit(i)),
    "send_bits_classical": (
        False, 1, lambda run, i: run.send_bits_classical(i, (0, 1))
    ),
    "transport_record": (False, 1, lambda run, i: run.transport_record(i)),
    "transport_record_split": (True, 1, lambda run, i: run.transport_record(i)),
    "joint_identify": (True, 2, lambda run, i: run.joint_identify(i)),
}


def assert_same_protocol_state(run, twin):
    assert run.transcript.to_text() == twin.transcript.to_text()
    assert run.decoded == twin.decoded
    assert [type(i) for i in run.decoded] == [type(i) for i in twin.decoded]
    assert run.split_halves == twin.split_halves
    assert run.rng.random() == twin.rng.random()


class TestRecordIndices:
    @pytest.mark.parametrize(
        "name, index",
        [
            (name, index)
            for name in INDEX_ENTRY_POINTS
            for index in (2.0, 2.5, "2", None)
        ],
    )
    def test_non_integer_index_refused_before_anything_is_spent(self, name, index):
        split, stage, call = INDEX_ENTRY_POINTS[name]
        run, twin = index_run(split, stage), index_run(split, stage)
        with pytest.raises(ProtocolError, match="record indices must be integers"):
            call(run, index)
        assert_same_protocol_state(run, twin)

    @pytest.mark.parametrize("name", list(INDEX_ENTRY_POINTS))
    @pytest.mark.parametrize("index, value", [(True, 1), (np.int64(2), 2)])
    def test_integer_like_index_reads_as_its_int(self, name, index, value):
        # True is record 1 and np.int64(2) record 2: stored and logged as
        # the int, bit for bit as the int's own call.
        split, stage, call = INDEX_ENTRY_POINTS[name]
        run, twin = index_run(split, stage), index_run(split, stage)
        assert call(run, index) == call(twin, value)
        assert_same_protocol_state(run, twin)
        assert all(type(i) is int for i in [*run.decoded, *run.split_halves])


class TestReconstruct:
    def test_full_release_recovers(self):
        run = complete(fresh_run(seed=12, secret_seed=13))
        out = run.reconstruct()
        assert isinstance(out, Recovered)
        assert fidelity(out.state_vector, run.secret) >= 1 - 1e-10
        assert out.covered_qubits == (1, 2, 3)
        assert out.share_state is None
        projector = DensityMatrix(pure_density(out.state_vector), (1, 2, 3))
        projector.validate()
        assert trace_distance(projector.entries, pure_density(run.secret)) <= 1e-10

    def test_full_release_at_width_16(self, monkeypatch):
        # The recovered state is returned as a 2^16 vector; no 2^16 x 2^16
        # density matrix is built on the way.
        width = 16
        cfg = parse_scenario_text(
            f"""
            cqss-scenario v1
            name = wide-release
            N = {width}
            n = {width}
            m = {width}
            mode = classical
            threshold_k = {width}
            secret = haar 5
            trials = 1
            master_seed = 2026
            """
        )
        runs = []

        def recording_build_run(*args):
            runs.append(build_run(*args))
            return runs[-1]

        monkeypatch.setattr(harness, "build_run", recording_build_run)
        result = harness.run_trial(cfg, 0)
        assert result.outcome == "recovered"
        assert result.fidelity >= 1 - 1e-10
        (run,) = runs
        out = run.reconstruct()  # the outcome run_trial already computed
        assert isinstance(out, Recovered) and out.share_state is None
        assert run.register.peak_block_qubits == peak_block_qubits(width) == width

    def test_single_withheld_seals(self):
        policy = replace(
            AccessPolicy.round_robin(3, 3, 3), release={1: True, 2: False, 3: True}
        )
        run = complete(fresh_run(policy=policy, seed=4))
        out = run.reconstruct()
        assert isinstance(out, Sealed)
        assert "threshold" in out.reason

    def test_too_few_cooperating_players_seals(self):
        policy = replace(AccessPolicy.round_robin(3, 3, 3), cooperating_players={1, 2})
        run = complete(fresh_run(policy=policy, seed=4))
        assert isinstance(run.reconstruct(), Sealed)

    def test_partial_threshold_recovers_covered_subset(self):
        policy = replace(
            AccessPolicy.round_robin(3, 3, 3, threshold_k=2),
            release={1: True, 2: True, 3: False},
        )
        run = complete(fresh_run(policy=policy, seed=21))
        out = run.reconstruct()
        assert isinstance(out, Recovered)
        assert out.covered_qubits == (1, 2)
        assert out.state_vector is None  # qubit 3 stays uncorrected
        out.share_state.validate()

    def test_partial_share_state_is_reduced_density_of_covered(self):
        policy = replace(
            AccessPolicy.round_robin(3, 3, 3, threshold_k=2),
            release={1: True, 2: False, 3: True},
        )
        run = complete(fresh_run(policy=policy, seed=22, secret_seed=23))
        out = run.reconstruct()
        assert isinstance(out, Recovered)
        assert out.state_vector is None
        assert out.covered_qubits == (1, 3)
        out.share_state.validate()
        assert out.share_state.subset == (1, 3)
        rho = run.register.reduced_density([run.slot_qubits[i] for i in (1, 3)])
        assert np.max(np.abs(out.share_state.entries - rho.entries)) <= 1e-12

    def test_reconstruct_before_distribution_rejected(self):
        run = fresh_run()
        with pytest.raises(IncompleteRun):
            run.reconstruct()

    def test_idempotent(self):
        run = complete(fresh_run(seed=31))
        first = run.reconstruct()
        assert run.reconstruct() is first


# -- coverage against a brute-force reference ----------------------------------------------


@st.composite
def coverage_policies(draw):
    """Any valid policy up to five qubits: uneven qubit counts per player,
    one or two holders per record, any release flags, any cooperating set
    and threshold."""
    width = draw(st.integers(1, 5))
    n = draw(st.integers(1, width))
    m = draw(st.integers(1, width))
    extra = st.lists(st.integers(1, n), min_size=width - n, max_size=width - n)
    players = draw(st.permutations(list(range(1, n + 1)) + draw(extra)))
    extra = st.lists(st.integers(1, m), min_size=width - m, max_size=width - m)
    first = draw(st.permutations(list(range(1, m + 1)) + draw(extra)))
    holders = []
    for c in first:
        others = [d for d in range(1, m + 1) if d != c]
        split = others and draw(st.booleans())
        holders.append((c, draw(st.sampled_from(others))) if split else (c,))
    return AccessPolicy(
        qubit_to_player=dict(enumerate(players, start=1)),
        record_to_controller=dict(enumerate(holders, start=1)),
        threshold_k=draw(st.integers(1, n)),
        release={c: draw(st.booleans()) for c in range(1, m + 1)},
        cooperating_players=set(draw(st.lists(st.integers(1, n), unique=True))),
    )


def brute_force_coverage(policy, available):
    """Eligible players and the qubits they hold, player by player."""
    have = set(available)
    held = {
        p: {i for i, q in policy.qubit_to_player.items() if q == p}
        for p in set(policy.qubit_to_player.values())
    }
    eligible = sorted(p for p in policy.cooperating_players if held[p] <= have)
    return eligible, sorted(set().union(*(held[p] for p in eligible)))


_COVERAGE_CONFIG = parse_scenario_text(
    "cqss-scenario v1\nname = coverage\nN = 1\nn = 1\nm = 1\nmode = mixed\n"
    "threshold_k = 1\nsecret = haar 1\ntrials = 1\nmaster_seed = 0\n"
)


def assert_cached_facts(policy, subsets):
    """Each fact the policy caches equals its computation from the fields,
    and the coverage of each record set equals the reference's."""
    holders = policy.record_to_controller
    assert policy.released_records == tuple(
        i for i in sorted(holders) if all(policy.release[c] for c in holders[i])
    )
    assert policy.players == tuple(sorted(set(policy.qubit_to_player.values())))
    split = sum(1 for h in holders.values() if len(h) == 2)
    assert policy.record_counts == (len(holders) - split, split)
    for available in subsets:
        eligible, covered = brute_force_coverage(policy, available)
        for _ in range(2):  # computed, then read back
            assert policy.coverage(available) == (tuple(eligible), tuple(covered))


class TestCoverage:
    @given(coverage_policies(), st.data())
    def test_cached_facts_match_their_computation(self, policy, data):
        records = sorted(policy.qubit_to_player)
        subsets = [
            *data.draw(st.lists(st.sets(st.sampled_from(records)), max_size=4)),
            policy.released_records,
        ]
        assert_cached_facts(policy, subsets)
        # Another policy computes its own facts; a copy of this one, which
        # carries what it has cached, holds the same fields.
        changed = replace(
            policy,
            release={c: not r for c, r in policy.release.items()},
            cooperating_players=set(policy.cooperating_players) ^ {1},
        )
        for twin in (changed, copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))):
            assert_cached_facts(twin, subsets)

    @given(coverage_policies(), st.data())
    def test_eligible_players_match_the_reference(self, policy, data):
        available = data.draw(st.sets(st.sampled_from(sorted(policy.qubit_to_player))))
        want, _ = brute_force_coverage(policy, available)
        assert policy.eligible_players(available) == want
        assert policy.eligible_players(iter(sorted(available))) == want

    @given(coverage_policies(), st.integers(0, 2**32 - 1))
    def test_reconstruct_and_expected_outcome_match_the_reference(self, policy, seed):
        width = len(policy.qubit_to_player)
        n = max(policy.qubit_to_player.values())
        m = len(policy.release)
        released = [i for i in policy.record_to_controller if policy.record_released(i)]
        eligible, covered = brute_force_coverage(policy, released)
        recovered = len(eligible) >= policy.threshold_k

        run = setup(n, m, width, haar(width, seed), policy, RandomSource(seed))
        out = complete(run).reconstruct()
        assert isinstance(out, Recovered) == recovered
        if recovered:
            assert out.players == tuple(eligible)
            assert out.covered_qubits == tuple(covered)
            corrected = [q for q, _ in run.transcript.corrections]
            assert corrected == [run.slot_qubits[i] for i in covered]
            # Every qubit covered means every record was released, so no
            # split record's halves are left live: full recovery.
            full = len(covered) == width
            assert (out.state_vector is not None) == full
            if full:
                assert fidelity(out.state_vector, run.secret) >= 1 - 1e-10
        else:
            assert not run.transcript.corrections

        cfg = replace(
            _COVERAGE_CONFIG,
            N=width,
            n=n,
            m=m,
            qubit_to_player=policy.qubit_to_player,
            record_to_controller=policy.record_to_controller,
            threshold_k=policy.threshold_k,
            release=policy.release,
            cooperating_players=policy.cooperating_players,
        )
        cfg.validate()
        assert harness.expected_outcome(cfg) == ("recovered" if recovered else "sealed")


# -- closed-form teleports -----------------------------------------------------------------


def traced_trial(monkeypatch, cfg, alloc_bell_pair, bell_measure):
    """``run_trial(cfg, 0)`` with ``QuantumRegister.alloc_bell_pair`` and
    ``bell_measure`` replaced by the given wrappers around the real ones;
    returns the trial and its run."""
    runs = []

    def recording_build_run(*args):
        runs.append(build_run(*args))
        return runs[-1]

    real_alloc, real_measure = QuantumRegister.alloc_bell_pair, QuantumRegister.bell_measure
    monkeypatch.setattr(harness, "build_run", recording_build_run)
    monkeypatch.setattr(
        QuantumRegister,
        "alloc_bell_pair",
        lambda reg, kind: alloc_bell_pair(real_alloc, reg, kind),
    )
    monkeypatch.setattr(
        QuantumRegister,
        "bell_measure",
        lambda reg, qa, qb, rng: bell_measure(real_measure, reg, qa, qb, rng),
    )
    trial = harness.run_trial(cfg, 0)
    (run,) = runs
    return trial, run


class TestClosedFormTeleports:
    @pytest.mark.parametrize(
        "name", ["full_release_demo", "single_withheld", "veto_controller", "split_share"]
    )
    def test_eve_free_trials_build_no_links(self, monkeypatch, name):
        # Every distribution swap, decoys included, and both teleports of a
        # split record run in closed form.  The one Bell pair left is a
        # split record's own, and the one Bell measurement left is the
        # joint identification of such a pair, a block of its own.
        cfg = load_scenario(SCENARIOS / f"{name}.scn")
        want = harness.run_trial(cfg, 0)
        pairs, identified = [], []

        def alloc_bell_pair(real, reg, kind):
            pairs.append(kind)
            return real(reg, kind)

        def bell_measure(real, reg, qa, qb, rng):
            block = reg._block_of[qa]
            if sorted(block.qubits) != sorted((qa, qb)):
                raise AssertionError("a swap or teleport built its link")
            identified.append(real(reg, qa, qb, rng))
            return identified[-1]

        def refuse(*args):
            raise AssertionError("a swap or teleport was forced")

        monkeypatch.setattr(QuantumRegister, "project_bell", refuse)
        got, run = traced_trial(monkeypatch, cfg, alloc_bell_pair, bell_measure)
        assert got == want
        split = [i for i, h in sorted(cfg.record_to_controller.items()) if len(h) == 2]
        assert pairs == [run.transcript.bell_record[i] for i in split]
        assert identified == [run.decoded[i] for i in split]
        assert run.register.peak_block_qubits == cfg.N

    def test_tapped_slots_build_no_links(self, monkeypatch):
        # eve_curve taps every slot, and each tapped swap runs in closed
        # form: nothing allocates a link, Bell-measures or teleports, and
        # every trial, register included, equals one whose tapped swaps
        # take the general path.
        cfg = load_scenario(SCENARIOS / "eve_curve.scn")
        assert (cfg.eve, cfg.eve_probability) == ("intercept-resend", 1.0)
        assert all(len(h) == 1 for h in cfg.record_to_controller.values())
        runs = []

        def recording_build_run(*args):
            runs.append(build_run(*args))
            return runs[-1]

        def trials():
            runs.clear()
            results = [harness.run_trial(cfg, t) for t in range(20)]
            return results, [
                (r.register.live_qubits(), r.register.state_vector().tobytes())
                for r in runs
            ]

        monkeypatch.setattr(harness, "build_run", recording_build_run)
        with monkeypatch.context() as patch:
            patch.setattr(QuantumRegister, "tapped_teleport", general_tapped_teleport)
            want = trials()
        # The reference built each link: a 2-qubit block beside N = 1.
        assert {r.register.peak_block_qubits for r in runs} == {2}
        taps = []
        real = QuantumRegister.tapped_teleport

        def tapped_teleport(reg, q, basis, rng):
            taps.append(basis)
            return real(reg, q, basis, rng)

        def refuse(*args):
            raise AssertionError("a tapped slot built or teleported its link")

        for name in ("alloc_bell_pair", "bell_measure", "project_bell", "teleport"):
            monkeypatch.setattr(QuantumRegister, name, refuse)
        monkeypatch.setattr(QuantumRegister, "tapped_teleport", tapped_teleport)
        assert trials() == want
        assert len(taps) == 20 * (cfg.N + cfg.decoys)
        assert {r.register.peak_block_qubits for r in runs} == {cfg.N}

    def test_a_full_release_never_moves_the_secret(self, monkeypatch):
        # Each twist waits in the frame until its correction cancels it, so
        # the secret's amplitudes are read once, by state_vector, with
        # nothing owed: no flush touches them.  Decoys are measured on
        # blocks of their own.
        width = 12
        cfg = parse_scenario_text(
            f"""
            cqss-scenario v1
            name = wide-release
            N = {width}
            n = {width}
            m = {width}
            mode = classical
            threshold_k = {width}
            decoys = 3
            secret = haar 5
            trials = 1
            master_seed = 2026
            """
        )
        secret_blocks, flushes, reader = [], [], []

        def recording_build_run(*args):
            run = build_run(*args)
            secret = run.slot_qubits[run._slot_of_secret[1]]
            secret_blocks.append(run.register._block_of[secret])
            return run

        def recording_flushed(block):
            if block is secret_blocks[0]:
                flushes.append((block.xmask, block.zmask, tuple(reader)))
            return real_flushed(block)

        def state_vector(reg, order=None):
            reader.append("state_vector")
            try:
                return real_state_vector(reg, order)
            finally:
                reader.pop()

        real_flushed, real_state_vector = qubits._flushed, QuantumRegister.state_vector
        monkeypatch.setattr(harness, "build_run", recording_build_run)
        monkeypatch.setattr(qubits, "_flushed", recording_flushed)
        monkeypatch.setattr(QuantumRegister, "state_vector", state_vector)
        result = harness.run_trial(cfg, 0)
        assert result.outcome == "recovered" and result.fidelity >= 1 - 1e-10
        assert flushes in ([], [(0, 0, ("state_vector",))])


# -- decoys in closed form -------------------------------------------------------------------


def tapped(amps):
    """Whether ``_KNOWN`` holds a tap of a lone qubit holding ``amps``."""
    return any(key[0] == amps and measurement(key) == "tap" for key in qubits._KNOWN)


def keyed(block, basis=None):
    """Whether ``block`` is a lone qubit that ``_KNOWN`` holds: checked in
    ``basis``, or, with no basis, tapped."""
    if len(block.qubits) != 1:
        return False
    if basis is None:
        return tapped(block.amps.tobytes())
    key = (block.amps.tobytes(), block.xmask, block.zmask, basis)
    return key in qubits._KNOWN


class TestClosedFormDecoys:
    @pytest.mark.parametrize(
        "name, decoys",
        [("eve_curve", 1), ("eve_curve", 2), ("eve_curve", 4), ("eve_curve", 8),
         ("split_share", 2)],
    )
    def test_trials_match_the_general_path(self, monkeypatch, name, decoys):
        # Every decoy is tapped (eve_curve) or teleported (split_share) and
        # checked from the tables, and every trial, detection report and
        # register equals one that takes the general path throughout.
        cfg = replace(load_scenario(SCENARIOS / f"{name}.scn"), decoys=decoys)
        runs = []

        def recording_build_run(*args):
            runs.append(build_run(*args))
            return runs[-1]

        def trials():
            runs.clear()
            results = [harness.run_trial(cfg, t) for t in range(20)]
            return results, [
                (
                    r.detection,
                    r.register.live_qubits(),
                    np.complex128(r.register._phase).tobytes(),
                    r.register.state_vector().tobytes(),
                )
                for r in runs
            ]

        monkeypatch.setattr(harness, "build_run", recording_build_run)
        with monkeypatch.context() as patch:
            patch.setattr(qubits, "_KNOWN", {})
            want = trials()
        real_components = QuantumRegister._single_components
        real_cross = qubits._cross_branch
        real_measure = QuantumRegister.measure_single
        checked = []

        def components(reg, q, basis):
            if keyed(reg._block_of[q], basis):
                raise AssertionError("a decoy's check took the general path")
            return real_components(reg, q, basis)

        def cross(ma, mb, k):
            rows = ma.tobytes()
            if ma.shape[1] == 1 and tapped(rows):
                raise AssertionError("a decoy's tap took the general path")
            return real_cross(ma, mb, k)

        def measure_single(reg, q, basis, rng, remove=True):
            checked.append(keyed(reg._block_of[q], basis))
            return real_measure(reg, q, basis, rng, remove)

        monkeypatch.setattr(QuantumRegister, "_single_components", components)
        monkeypatch.setattr(qubits, "_cross_branch", cross)
        monkeypatch.setattr(QuantumRegister, "measure_single", measure_single)
        assert trials() == want
        assert checked == [True] * (20 * decoys)


# -- largest block ---------------------------------------------------------------------------


def check_peaks(run, width):
    """Distribute and transport, then check the largest block: the secret's
    width, which ``peak_block_qubits`` checks against the memory rule, or 2.
    A closed-form swap or teleport, tapped or not, keeps the secret's block
    at N qubits and allocates nothing, and a classical pad allocates no
    block; only a split record's Bell pair makes a 2-qubit block, the peak
    only at N = 1."""
    pairs = any(len(h) == 2 for h in run.policy.record_to_controller.values())
    run.distribute_all()
    run.transport_all()
    assert peak_block_qubits(width) == width
    assert run.register.peak_block_qubits == (max(width, 2) if pairs else width)


def split_records_policy(width, split_records):
    """The round-robin policy over ``width`` of everything, with each record
    in ``split_records`` split between its controller and the next."""
    policy = AccessPolicy.round_robin(width, width, width)
    holders = policy.record_to_controller
    split = {i: (i, i % width + 1) for i in split_records}
    return replace(policy, record_to_controller={**holders, **split})


class TestPeakLiveQubits:
    @pytest.mark.parametrize(
        "name",
        ["full_release_demo", "single_withheld", "veto_controller", "split_share",
         "eve_curve"],
    )
    def test_bundled_scenarios(self, name):
        cfg = load_scenario(SCENARIOS / f"{name}.scn")
        check_peaks(build_run(cfg, 0), cfg.N)

    @pytest.mark.parametrize(
        "holders, eve",
        [
            ((1,), EveModel.off()),
            ((1, 2), EveModel.off()),
            ((1,), EveModel("intercept-resend", 1.0)),
            ((1, 2), EveModel("intercept-resend", 1.0)),
        ],
        ids=["classical", "split", "classical-tapped", "split-tapped"],
    )
    def test_width_one(self, holders, eve):
        # Only a split record's pair is a 2-qubit block; an all-classical
        # run, tapped or not, never holds more than the secret's one qubit.
        policy = replace(
            AccessPolicy.round_robin(1, len(holders), 1), record_to_controller={1: holders}
        )
        run = setup(1, len(holders), 1, haar(1, 3), policy, RandomSource(4), eve=eve)
        check_peaks(run, 1)
        assert run.register.peak_block_qubits == (1 if holders == (1,) else 2)

    @pytest.mark.parametrize(
        "split_records",
        [(2,), (1, 3), (4,), (2, 4)],
        ids=["ends-classical", "ends-classical-2", "ends-split", "ends-split-2"],
    )
    def test_mixed_layouts(self, split_records):
        width = 4
        policy = split_records_policy(width, split_records)
        for decoys in (0, 1):
            plan = DecoyPlan.random(width, decoys, RandomSource(64))
            run = setup(width, width, width, haar(width, 62), policy,
                        RandomSource(63), decoy_plan=plan)
            check_peaks(run, width)


# -- withheld state -------------------------------------------------------------------------


def brute_force_withheld_state(run, withheld):
    """Reference for ``withheld_state``: enumerate every forced-branch history.

    Each of the 4**|withheld| combinations of outcomes on the withheld slots
    rebuilds a fresh register and re-runs all swaps with exact branch
    probabilities; other slots are forced to their recorded outcome and
    corrected.  Returns the probability-weighted mixture of the results.
    """
    withheld = sorted(set(withheld))
    width = run.secret_width
    acc = np.zeros((2**width, 2**width), dtype=complex)
    total_weight = 0.0
    for combo in itertools.product(list(BellKind), repeat=len(withheld)):
        forced = dict(zip(withheld, combo))
        reg = QuantumRegister()
        ids = list(reg.alloc_state(run.secret))
        weight = 1.0
        for index in range(1, width + 1):
            mu, nu = reg.alloc_bell_pair(BellKind.PHI_MINUS)
            kind = forced.get(index, run.transcript.bell_record[index])
            weight *= reg.project_bell(ids[index - 1], mu, kind)
            ids[index - 1] = nu
            if index not in forced:
                reg.apply_pauli(nu, CORRECTION_FOR_OUTCOME[kind])
        vec = reg.state_vector(order=ids)
        acc += weight * np.outer(vec, vec.conj())
        total_weight += weight
    return acc / total_weight


def general_withheld_state(run, withheld):
    """Bytes reference for ``withheld_state``, the library's one loop spelled
    out: the secret's projector rebuilt on every call, every slot's
    superoperator applied as the matrix product in index order, then the
    trace divided out.  It shares that loop's rule, so ``WITHHELD_DIGESTS``
    pins its bytes from before the loop was the model's only path, and
    ``brute_force_withheld_state`` checks its values independently."""
    rho = pure_density(run.secret)
    for index in range(1, run.secret_width + 1):
        if index in withheld:
            channel = protocol._WITHHELD
        else:
            channel = protocol._CORRECTED[run.transcript.bell_record[index]]
        rho = channel_by_product(rho, index - 1, channel.superop)
    return rho / float(np.real(np.trace(rho)))


# Demo amplitudes (a, b) of a|0...0> + b|1...1>; signs and phases put zeros
# of both signs into the projector.
_DEMO_AMPLITUDES = [(0.6, 0.8), (0.6, -0.8), (-0.6, 0.8j), (-0.6, -0.8j), (0.8j, -0.6),
                    (1.0, 0.0), (0.0, -1.0)]


@st.composite
def audited_runs(draw, max_width=6):
    """A distributed and transported run: a Haar or demo secret of 1 to
    ``max_width`` qubits, up to two decoys, some records split between two
    controllers, and taps on none, some or all slots."""
    width = draw(st.integers(1, max_width))
    seed = draw(st.integers(0, 2**32 - 1))
    demo = draw(st.sampled_from(_DEMO_AMPLITUDES)) if width > 1 and draw(
        st.booleans()) else None
    secret = haar(width, seed) if demo is None else harness.demo_encode(demo, width)
    split_records = draw(st.sets(st.integers(1, width))) if width > 1 else ()
    policy = split_records_policy(width, split_records)
    rng = RandomSource(seed)
    plan = DecoyPlan.random(width, draw(st.integers(0, 2)), rng)
    eve = EveModel("intercept-resend", draw(st.sampled_from([0.0, 0.5, 1.0])))
    run = setup(width, width, width, secret, policy, rng, decoy_plan=plan, eve=eve)
    return complete(run), draw(st.sets(st.integers(1, width)))


def subset_run(width, secret):
    """A completed run with two decoys, the even records split and taps at
    0.5: a Haar seed or demo amplitudes as its ``width``-qubit secret."""
    if isinstance(secret, int):
        vector = haar(width, secret)
    else:
        vector = harness.demo_encode(secret, width)
    split = set(range(2, width + 1, 2))
    rng = RandomSource(100 + width)
    plan = DecoyPlan.random(width, 2, rng)
    eve = EveModel("intercept-resend", 0.5)
    return complete(setup(width, width, width, vector, split_records_policy(
        width, split), rng, decoy_plan=plan, eve=eve))


# sha256 of ``withheld_state(W).entries.tobytes()`` for each set W of the
# noinfo sweep on two ``subset_run``s, taken while the model still folded
# each withheld slot and multiplied each released one by its scalar.  The
# demo secret's projector holds zeros of both signs.
WITHHELD_DIGESTS = {
    (4, 3): {
        (): "1948ae3f3d5b049b6f4c97996583a539a01466a559286e46bb686a31e4a6d6e3",
        (1,): "d076461ea5f947af2e6bd3357ad112a73d4c2a9920404cfd9474ecd1195fdd63",
        (2,): "9cf8c60bcb2c51c7107fbc18325b5b408e1860856e85da630cf327862a9e1988",
        (3,): "9dab6b36212c302bef330011e50c0bcfd068d75773c9ccfe5c5add0dc45e8ebf",
        (4,): "ca0fea58f5400b2206be7784d55d6ad7e2619943d5e1981c1486c5c14f1c3165",
        (1, 2, 3, 4): "9bbb7a24df1effd25644c91278fc71bf0b73a3c7fa49f05a4b84c972f69f8f76",
    },
    (3, (0.6, -0.8)): {
        (): "f8ca5371f3e39cf3ee833a1c3f424e51134da929146bd6e1b95a9c5198ee7e9f",
        (1,): "64de2da004f841080fc0d59fdc031bedfabbafac0cd208570df427008c62a8df",
        (2,): "6a081ae1285e1d7b753b3f4a8d75ec6125395c9a03a3e7dc8a83a62a1e308c3d",
        (3,): "f22de6ca6e536483cabb46f4c00615d5eec09df44b70413d8734159c5ecc1c27",
        (1, 2, 3): "a929c69c8464b7208cac28b6de4b0466652f2b9608739427a43c32b151f7bd40",
    },
}


def factor_rule(r, s, positions):
    """The trace distance of ``r`` and ``s`` read off the unsealed factor:
    2^k times that of their blocks with each of the k tensor ``positions``
    at 0 in row and column (position 0 the most significant bit)."""
    n = r.shape[0].bit_length() - 1
    mask = sum(1 << (n - 1 - p) for p in positions)
    keep = [i for i in range(r.shape[0]) if not i & mask]
    block = np.ix_(keep, keep)
    return trace_distance(r[block], s[block]) * 2 ** len(positions)


class TestWithheldState:
    @given(audited_runs())
    def test_same_bytes_as_the_general_path(self, case):
        # The projector built once per run and each slot's channel applied
        # once change no float: the entries keep their bytes, signed zeros
        # included.  With records withheld the factor rule on the same two
        # matrices is within 1e-12 of the dense distance.  The audit's
        # certificate is exactly 0.0 on the import-time tables, and it
        # bounds the dense distance.
        run, drawn = case
        width = run.secret_width
        sweep = [set(), *({i} for i in range(1, width + 1)), set(range(1, width + 1)),
                 drawn]
        for withheld in sweep:
            reference = general_withheld_state(run, withheld)
            got = run.withheld_state(withheld)
            assert got.entries.tobytes() == reference.tobytes(), withheld
            positions = sorted(i - 1 for i in withheld)
            expected = sealed_mixture(run.secret, positions)
            audit = no_information_audit(run, withheld)
            dense = trace_distance(reference, expected)
            assert audit.distance == 0.0, withheld
            assert audit.distance + 1e-12 >= dense, withheld
            if withheld:
                rule = factor_rule(reference, expected, positions)
                assert rule == pytest.approx(dense, rel=1e-12, abs=1e-30), withheld

    @pytest.mark.parametrize("width, secret", [
        (width, secret) for width in (1, 2, 3, 4)
        for secret in ([3, 92, *_DEMO_AMPLITUDES] if width > 1 else [3, 92])])
    def test_every_withheld_subset_keeps_the_general_bytes(self, width, secret):
        # Every subset mixes withheld and released channels in its own
        # order: the entries keep the general path's bytes, signed zeros
        # included.  The audit's certificate is exactly 0.0 on the
        # import-time tables, and it bounds the dense distance of the
        # general path's matrix.  A secret is a Haar seed or demo
        # amplitudes.
        run = subset_run(width, secret)
        for r in range(width + 1):
            for withheld in itertools.combinations(range(1, width + 1), r):
                reference = general_withheld_state(run, withheld)
                got = run.withheld_state(withheld)
                assert got.entries.tobytes() == reference.tobytes(), withheld
                positions = [i - 1 for i in withheld]
                expected = sealed_mixture(run.secret, positions)
                audit = no_information_audit(run, withheld)
                assert audit.distance == 0.0, withheld
                assert audit.distance + 1e-12 >= trace_distance(reference, expected)

    @pytest.mark.parametrize("shape", list(WITHHELD_DIGESTS), ids=["haar-4", "demo-3"])
    def test_entries_keep_their_pinned_bytes(self, shape):
        # The general path above spells the model's own loop, so the bytes
        # are also pinned as they were before the loop was the only path.
        run = subset_run(*shape)
        digests = WITHHELD_DIGESTS[shape]
        assert list(digests) == noinfo_sweep(run.secret_width)
        for withheld, digest in digests.items():
            entries = run.withheld_state(withheld).entries
            assert hashlib.sha256(entries.tobytes()).hexdigest() == digest, withheld

    @given(audited_runs(max_width=3))
    def test_the_model_matches_rebuilt_registers(self, case):
        # Rebuilt registers are an oracle that shares no code with the
        # model's loop, on runs with split records, decoys and taps.  Taps
        # are ignored on both sides: the model reads the recorded swap
        # outcomes alone, and the rebuilt registers have no eavesdropper.
        run, drawn = case
        for withheld in [*noinfo_sweep(run.secret_width), tuple(sorted(drawn))]:
            got = run.withheld_state(withheld)
            want = brute_force_withheld_state(run, withheld)
            assert trace_distance(got.entries, want) <= 1e-12, withheld

    @pytest.mark.parametrize("withheld, error", [([1.5], ProtocolError),
                                                 ({1}, IncompleteRun)])
    def test_model_and_audit_check_in_one_order(self, withheld, error):
        # Before distribution, a non-integer index is refused as such, and
        # a good one as too early, by the model and the audit alike, before
        # the projector is built.
        run = fresh_run(seed=49)
        for entry in (run.withheld_state, partial(no_information_audit, run)):
            with pytest.raises(error):
                entry(withheld)
        assert "secret_projector" not in vars(run)

    def test_a_sweep_builds_the_projector_once(self, monkeypatch):
        # The run's secret and its projector are read-only; the audit reads
        # the slots' channels alone, so a seven-set sweep of audits never
        # builds the projector, and a sweep of the model builds it once.
        calls = []
        real = qubits.pure_density

        def counting_pure_density(vector):
            calls.append(len(vector))
            return real(vector)

        monkeypatch.setattr(protocol, "pure_density", counting_pure_density)
        monkeypatch.setattr(qubits, "pure_density", counting_pure_density)
        width = 5
        run = complete(fresh_run(width=width, seed=50, secret_seed=51))
        assert not calls and "secret_projector" not in vars(run)
        everything = set(range(1, width + 1))
        sweep = [set(), *({i} for i in everything), everything]
        audits = [no_information_audit(run, withheld) for withheld in sweep]
        assert len(audits) == 7 and all(audit.distance == 0.0 for audit in audits)
        assert not calls and "secret_projector" not in vars(run)
        for withheld in sweep:
            run.withheld_state(withheld)
        assert calls == [2**width]
        assert run.secret_projector.tobytes() == real(run.secret).tobytes()
        for array in (run.secret, run.secret_projector):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(AttributeError):
            run.secret = haar(width, 52)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_channel_form_matches_branch_enumeration(self, width):
        rng = RandomSource(60 + width)
        plan = DecoyPlan.random(width, 2, rng)
        policy = AccessPolicy.round_robin(width, width, width)
        run = setup(width, width, width, haar(width, 70 + width), policy, rng,
                    decoy_plan=plan)
        run.distribute_all()
        for r in range(width + 1):
            for withheld in itertools.combinations(range(1, width + 1), r):
                got = run.withheld_state(withheld)
                want = brute_force_withheld_state(run, withheld)
                assert trace_distance(got.entries, want) <= 1e-12, withheld

    def test_single_index_matches_prediction(self):
        run = fresh_run(seed=40, secret_seed=41)
        run.distribute_all()
        for index in (1, 2, 3):
            got = run.withheld_state({index})
            want = sealed_mixture(run.secret, [index - 1])
            assert trace_distance(got, want) <= 1e-10

    def test_empty_set_gives_projector(self):
        run = fresh_run(seed=42, secret_seed=43)
        run.distribute_all()
        got = run.withheld_state(set())
        assert trace_distance(got.entries, pure_density(run.secret)) <= 1e-10

    def test_withheld_qubit_reduced_state_maximally_mixed(self):
        run = fresh_run(seed=44, secret_seed=45)
        run.distribute_all()
        got = run.withheld_state({2}).entries.reshape((2,) * 6)
        rest = np.trace(got, axis1=0, axis2=3)  # trace slot 1
        slot2 = np.trace(rest, axis1=1, axis2=3)  # then slot 3
        np.testing.assert_allclose(slot2, np.eye(2) / 2, atol=1e-10)

    def test_multiple_withheld_matches_chain(self):
        run = fresh_run(seed=46, secret_seed=47)
        run.distribute_all()
        got = run.withheld_state({1, 3})
        want = sealed_mixture(run.secret, [0, 2])
        assert trace_distance(got.entries, want) <= 1e-10

    def test_out_of_range_rejected(self):
        run = fresh_run(seed=48)
        run.distribute_all()
        with pytest.raises(ProtocolError):
            run.withheld_state({4})

    @pytest.mark.parametrize("index", [1.5, 2.0, "2", None])
    def test_non_integer_index_rejected(self, index):
        # An index is never rounded or parsed: 1.5 is not record 1.
        run = fresh_run(seed=48)
        run.distribute_all()
        with pytest.raises(ProtocolError, match="must be integers"):
            run.withheld_state([index])

    def test_swap_superoperators_are_read_only_constants(self):
        # Each channel's deviations are decided where it is built: a
        # released slot's superoperator is c * I4 with c real, so it is
        # exactly the identity once scaled, and a withheld slot's is
        # exactly the depolarizer.
        uncorrected, corrected = protocol._swap_kraus()
        withheld = protocol._WITHHELD
        assert not withheld.superop.flags.writeable
        np.testing.assert_array_equal(
            withheld.superop, sum(np.kron(k, k.conj()) for k in uncorrected.values())
        )
        assert withheld.off_depolarizer == 0.0
        assert set(protocol._CORRECTED) == set(BellKind)
        for kind, k in corrected.items():
            channel = protocol._CORRECTED[kind]
            assert not channel.superop.flags.writeable
            np.testing.assert_array_equal(channel.superop, np.kron(k, k.conj()))
            assert channel.off_identity == 0.0
            c = channel.superop[0, 0]
            assert c.real > 0 and not c.imag
            np.testing.assert_array_equal(channel.superop, c.real * np.eye(4))
        with pytest.raises(AttributeError):
            withheld.off_depolarizer = 1.0

    def test_import_time_tables_match_the_eager_register(self, monkeypatch):
        # Rebuilt on a register that applies each Pauli at once, the swap
        # superoperators and the pad tables have the same bytes, signed
        # zeros included, and the same forms.
        monkeypatch.setattr(protocol, "QuantumRegister", EagerRegister)
        withheld, corrected = protocol._swap_superoperators()
        assert withheld.superop.tobytes() == protocol._WITHHELD.superop.tobytes()
        assert withheld[1:] == protocol._WITHHELD[1:]
        assert list(corrected) == list(protocol._CORRECTED)
        for kind, channel in corrected.items():
            pinned = protocol._CORRECTED[kind]
            assert channel.superop.tobytes() == pinned.superop.tobytes()
            assert channel[1:] == pinned[1:]
        dealer, controller, scalars = protocol._pad_tables()
        pinned_dealer, pinned_controller, pinned_scalars = protocol._PAD
        assert np.array(dealer).tobytes() == np.array(pinned_dealer).tobytes()
        assert np.array(controller).tobytes() == np.array(pinned_controller).tobytes()
        assert np.array(scalars).tobytes() == np.array(pinned_scalars).tobytes()


@st.composite
def staged_runs(draw):
    """A run right after setup and the caller's secret: a Haar secret of 1
    to 6 qubits, some records split between two controllers, up to two
    decoys, taps on none, some or all slots, and some controllers
    withholding.  At threshold 1 a partial release still recovers a share."""
    width = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    split_records = draw(st.sets(st.integers(1, width))) if width > 1 else ()
    withholding = draw(st.sets(st.integers(1, width)))
    policy = replace(
        split_records_policy(width, split_records),
        threshold_k=1,
        release={c: c not in withholding for c in range(1, width + 1)},
    )
    rng = RandomSource(seed)
    plan = DecoyPlan.random(width, draw(st.integers(0, 2)), rng)
    eve = EveModel("intercept-resend", draw(st.sampled_from([0.0, 0.5, 1.0])))
    secret = haar(width, seed)
    run = setup(width, width, width, secret, policy, rng, decoy_plan=plan, eve=eve)
    return run, secret


class TestSecretHeldOnce:
    @given(staged_runs())
    def test_the_run_secret_is_the_block_array_and_never_written(self, case):
        # A run holds its secret once: run.secret is alloc_state's copy of
        # the caller's vector and the array the secret's block holds.  No
        # block array is ever written, so it stays read-only and keeps its
        # bytes through taps, transport, a flush by reduced_density on a
        # partial release, and withheld audits.
        run, secret = case
        block = run.register._block_of[run.slot_qubits[run._slot_of_secret[1]]]
        assert run.secret is block.amps and not run.secret.flags.writeable
        assert not np.shares_memory(run.secret, secret)
        assert run.secret.tobytes() == secret.tobytes()
        complete(run)
        verify_decoys(run, run.decoy_plan)
        outcome = run.reconstruct()
        if isinstance(outcome, Recovered) and outcome.state_vector is None:
            outcome.share_state.validate()
        width = run.secret_width
        withheld = {i for i in range(1, width + 1) if not run.policy.record_released(i)}
        for audited in (withheld, set(range(1, width + 1))):
            no_information_audit(run, audited)
        # Where the block still holds the secret, a Z owed alone and then a
        # read: the flush copies before it flips a sign.
        held = [q for q, b in run.register._block_of.items() if b.amps is run.secret]
        if held:
            run.register.apply_pauli(held[0], Pauli.Z)
            run.register.reduced_density(held[:1])
        assert run.secret.tobytes() == secret.tobytes()
        assert not run.secret.flags.writeable


def five_qubit_code():
    """Logical |0> and |1> of the [[5,1,3]] code (Laflamme, Miquel, Paz and
    Zurek, PRL 77, 198, 1996): the projector onto the +1 space of the cyclic
    shifts of XZZXI applied to |00000>, normalized, and X on every qubit of
    it.  Qubit 1 is the most significant bit."""
    paulis = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
              "Z": np.diag([1, -1])}
    projector = np.eye(32, dtype=complex)
    for shift in range(4):  # the fifth shift is the product of these four
        word = ("XZZXI" * 2)[5 - shift:10 - shift]
        g = np.array([[1.0]])
        for letter in word:
            g = np.kron(g, paulis[letter])
        projector = projector @ (np.eye(32) + g) / 2
    zero = projector[:, 0] / np.linalg.norm(projector[:, 0])
    flip = np.arange(32) ^ 31  # X on all five qubits
    return zero, zero[flip]


def coalition_state(rho, coalition):
    """``rho`` over five qubits traced down to the 1-based ``coalition``."""
    rows = list(range(5))
    cols = [q if q + 1 not in coalition else q + 5 for q in range(5)]
    keep = [q for q in range(5) if q + 1 in coalition]
    out = np.einsum(rho.reshape((2,) * 10), rows + cols, keep + [q + 5 for q in keep])
    side = 2 ** len(keep)
    return out.reshape(side, side)


# Every three of the five players, and logical inputs: the Z, X and Y
# eigenstates and two Haar states.
_TRIPLES = tuple(itertools.combinations(range(1, 6), 3))
_LOGICAL_INPUTS = (
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 1j]) / np.sqrt(2),
    haar(1, 610),
    haar(1, 611),
)


def erasure_decoder(keep):
    """The five-qubit code's erasure recovery on the three 0-based qubits
    ``keep``: the unitary whose row ``4 i + j`` is the conjugate of
    ``2 (I (x) <j|) |i_L>``, with the kept qubits first and the two erased
    ones, in the basis |j>, last.  Any two qubits of the code are maximally
    mixed, so the eight rows are orthonormal, and the decoder leaves the
    logical state on its first qubit beside a four-level junk state."""
    erased = [q for q in range(5) if q not in keep]
    rows = [
        2 * vec.reshape((2,) * 5).transpose(list(keep) + erased).reshape(8, 4)[:, j]
        for vec in five_qubit_code()
        for j in range(4)
    ]
    return np.array(rows).conj()


def threshold_run(logical, seed, cooperating=range(1, 6)):
    """The [[5,1,3]] encoding of ``logical`` dealt to five players at
    threshold 3, every record released, the ``cooperating`` players taking
    part: the run after reconstruction and its outcome."""
    zero, one = five_qubit_code()
    policy = replace(
        AccessPolicy.round_robin(5, 5, 5, threshold_k=3),
        cooperating_players=frozenset(cooperating),
    )
    secret = logical[0] * zero + logical[1] * one
    run = complete(setup(5, 5, 5, secret, policy, RandomSource(seed)))
    return run, run.reconstruct()


def decoded_fidelities(decoder, coalition):
    """For the three ``coalition`` players alone and each logical input,
    the fidelity of the input with what ``decoder`` leaves on its first
    qubit of their recovered share."""
    fids = []
    for k, logical in enumerate(_LOGICAL_INPUTS):
        _, outcome = threshold_run(logical, 620 + k, coalition)
        assert outcome.covered_qubits == coalition and outcome.state_vector is None
        rho = outcome.share_state.entries
        out = (decoder @ rho @ decoder.conj().T).reshape(2, 4, 2, 4)
        kept = np.einsum("ajbj->ab", out)
        fids.append(float(np.real(logical.conj() @ kept @ logical)))
    return fids


def corrected_pair_states(logical):
    """All five players cooperating: the register's state over each pair of
    the five corrected qubits, for ``logical``."""
    run, outcome = threshold_run(logical, 630)
    assert outcome.covered_qubits == (1, 2, 3, 4, 5)
    ids = [run.slot_qubits[run._slot_of_secret[i]] for i in range(1, 6)]
    return [
        run.register.reduced_density(pair).entries
        for pair in itertools.combinations(ids, 2)
    ]


def assert_pairs_learn_nothing():
    """Each pair of corrected qubits has the same state for every input."""
    first, *rest = map(corrected_pair_states, _LOGICAL_INPUTS)
    for states in rest:
        for a, b in zip(first, states):
            assert trace_distance(a, b) <= 1e-10


class TestThresholdSecret:
    """The [[5,1,3]] code as the ((3,5)) threshold scheme of Cleve, Gottesman
    and Lo (PRL 83, 648, 1999), one qubit per player: with the records W
    withheld, a coalition S tells two orthogonal logical inputs apart
    exactly when it holds at least three qubits whose records arrive, and
    learns nothing of them otherwise."""

    def test_access_structure_in_the_knowledge_state(self):
        zero, one = five_qubit_code()
        pairs = {
            "Z": (zero, one),
            "X": ((zero + one) / np.sqrt(2), (zero - one) / np.sqrt(2)),
            "Y": ((zero + 1j * one) / np.sqrt(2), (zero - 1j * one) / np.sqrt(2)),
        }
        policy = AccessPolicy.round_robin(5, 5, 5, threshold_k=3)
        players = range(1, 6)
        subsets = [set(c) for r in range(6) for c in itertools.combinations(players, r)]
        checks = 0
        for name, inputs in pairs.items():
            runs = []
            for vec in inputs:
                run = setup(5, 5, 5, vec, policy, RandomSource(513))
                run.distribute_all()
                runs.append(run)
            assert runs[0].transcript.bell_record == runs[1].transcript.bell_record
            for withheld in subsets:
                states = [run.withheld_state(withheld).entries for run in runs]
                for coalition in subsets[1:]:
                    a, b = (coalition_state(rho, coalition) for rho in states)
                    want = 1.0 if len(coalition - withheld) >= 3 else 0.0
                    got = trace_distance(a, b)
                    assert abs(got - want) <= 1e-10, (name, withheld, coalition, got)
                    checks += 1
        assert checks == 3 * 32 * 31

    # -- on the register --------------------------------------------------

    @pytest.fixture(scope="class")
    def decoders(self):
        """The erasure recovery of every three players' qubits, built once."""
        return {c: erasure_decoder([p - 1 for p in c]) for c in _TRIPLES}

    @pytest.mark.parametrize("coalition", _TRIPLES, ids=lambda c: "".join(map(str, c)))
    def test_three_players_decode_the_secret(self, decoders, coalition):
        # Every record released, three players cooperating: the register's
        # share over their corrected qubits decodes to the logical input.
        fids = decoded_fidelities(decoders[coalition], coalition)
        assert min(fids) >= 1 - 1e-10, fids

    def test_two_corrected_qubits_learn_nothing(self):
        # All five cooperating and every record released: the register's
        # state over any two corrected qubits is the same for every input.
        assert_pairs_learn_nothing()

    def test_a_wrong_correction_table_breaks_decoding(self, monkeypatch, decoders):
        # The register corrects with protocol._CORRECTIONS.  With X and Z
        # swapped, some coalition decodes a wrong state.  The pair check
        # holds whatever the table: a wrong Pauli is a unitary on one qubit,
        # and any two qubits of the code stay maximally mixed under it.
        table = list(protocol._CORRECTIONS)
        x, z = table.index(Pauli.X), table.index(Pauli.Z)
        table[x], table[z] = Pauli.Z, Pauli.X
        monkeypatch.setattr(protocol, "_CORRECTIONS", tuple(table))
        fids = [f for c in _TRIPLES for f in decoded_fidelities(decoders[c], c)]
        assert min(fids) < 0.9
        assert_pairs_learn_nothing()

# -- resource accounting -------------------------------------------------------------------


def report_counts(report):
    """Player links, controller links, dealer and controller measurements,
    decoys."""
    return (
        report.epr_player,
        report.epr_controller,
        report.dealer_measurements,
        report.controller_measurements,
        report.decoys,
    )


def assert_ids_spent(run):
    """After transport the register has spent one qubit id per secret
    qubit and decoy, two per link (counted or not built) and two per split
    record's Bell pair."""
    t = run.transcript
    n_split = sum(1 for h in run.policy.record_to_controller.values() if len(h) == 2)
    assert run.register._next_id == (
        run.secret_width + run.decoy_plan.count
        + 2 * (t.epr_player + t.epr_controller) + 2 * n_split
    )


class TestResources:
    def test_classical_mode_counts(self):
        run = complete(fresh_run(seed=50))
        report = run.resource_report()
        assert report_counts(report) == (3, 6, 6, 3, 0)

    def test_split_mode_counts(self):
        policy = AccessPolicy.round_robin(3, 6, 3, split_all=True)
        run = setup(3, 6, 3, haar(3, 51), policy, RandomSource(52))
        run.distribute_all()
        run.transport_all()
        report = run.resource_report()
        assert report.epr_player == 3
        assert report.epr_controller == 6
        assert report.dealer_measurements == 9
        assert report.controller_measurements == 0  # nothing identified yet

    def test_decoy_overhead(self):
        from cqss.security import DecoyPlan, verify_decoys

        plan = DecoyPlan.random(3, 2, RandomSource(53))
        policy = AccessPolicy.round_robin(3, 3, 3)
        run = setup(3, 3, 3, haar(3, 54), policy, RandomSource(55), decoy_plan=plan)
        run.distribute_all()
        run.transport_all()
        verify_decoys(run, plan)
        report = run.resource_report()
        assert report.epr_player == 5
        assert report.dealer_distribution_measurements == 5
        assert report_counts(report) == (5, 6, 8, 3, 2)

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")))
    def test_register_spends_the_ids_the_counts_say(self, name):
        cfg = load_scenario(SCENARIOS / f"{name}.scn")
        for trial in range(20):
            assert_ids_spent(complete(build_run(cfg, (cfg.master_seed, trial))))

    @given(audited_runs())
    def test_register_spends_the_ids_the_counts_say_on_drawn_layouts(self, case):
        run, _ = case
        assert_ids_spent(run)

    def test_incomplete_run_rejected(self):
        run = fresh_run(seed=56)
        with pytest.raises(IncompleteRun):
            run.resource_report()
        run.distribute_all()
        with pytest.raises(IncompleteRun):
            run.resource_report()


# -- transcript -------------------------------------------------------------------------------


class TestTranscript:
    def test_identical_seed_identical_bytes(self):
        def transcript_text(seed):
            run = complete(fresh_run(seed=seed, secret_seed=60))
            run.reconstruct()
            return run.transcript.to_text()

        assert transcript_text(9) == transcript_text(9)

    def test_messages_cover_announcements_and_releases(self):
        run = complete(fresh_run(seed=61))
        run.reconstruct()
        payloads = [m.payload.split()[0] for m in run.transcript.messages]
        assert payloads.count("announce") == 3
        assert payloads.count("release") == 3

    def test_split_transcript_has_corrections_and_identify(self):
        run = setup(
            1, 2, 1, haar(1, 62), split_pair_policy(), RandomSource(63)
        )
        run.distribute_all()
        run.transport_all()
        run.reconstruct()
        payloads = [m.payload.split()[0] for m in run.transcript.messages]
        assert payloads.count("correction") == 2
        assert payloads.count("identify") == 1

    def test_record_length_matches_width(self):
        run = fresh_run(seed=64)
        run.distribute_all()
        assert len(run.transcript.bell_record) == 3

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
    def test_messages_are_the_lines_of_the_text(self, path):
        # Each message is written once, as its line; the read-only view
        # gives back exactly the text's message lines, in order.
        cfg = load_scenario(path)
        for trial in range(20):
            run = complete(build_run(cfg, (cfg.master_seed, trial)))
            verify_decoys(run, run.decoy_plan)
            run.reconstruct()
            messages = run.transcript.messages
            head, lines = run.transcript.to_text().split("\nmessages:\n")
            assert all(type(m) is Message for m in messages)
            assert [f"  {m.line()}" for m in messages] == lines.splitlines()
            assert len(messages) == len(lines.splitlines()) > 0
            with pytest.raises(AttributeError):
                messages.append(messages[0])


@st.composite
def stepped_layouts(draw):
    """A decoy-free run's seed, policy and eavesdropper: records classical
    or split between two controllers, either of which may withhold, and
    every slot tapped, none, or some."""
    width = draw(st.integers(1, 5))
    n = draw(st.integers(1, width))
    holders = draw(st.lists(
        st.sampled_from([(1,), (2,), (1, 2), (2, 1)]), min_size=width, max_size=width
    ))
    if {c for h in holders for c in h} != {1, 2}:
        holders[0] = (2, 1)
    policy = replace(
        AccessPolicy.round_robin(n, 2, width, threshold_k=draw(st.integers(1, n))),
        record_to_controller=dict(enumerate(holders, start=1)),
        release={1: draw(st.booleans()), 2: draw(st.booleans())},
    )
    p = draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
    eve = None if p is None else EveModel("intercept-resend", p)
    return draw(st.integers(0, 2**32 - 1)), policy, eve


class TestPhasesAsSteps:
    """Each phase is one pass over its records, and its single-record
    method the same pass over one: a whole phase leaves the run that its
    records stepped one by one, in index order, leave."""

    @given(stepped_layouts())
    def test_a_phase_is_its_records_in_turn(self, layout):
        seed, policy, eve = layout
        n, width = len(policy.players), len(policy.qubit_to_player)
        phased, stepped = (
            setup(n, 2, width, haar(width, seed), policy, RandomSource(seed), eve=eve)
            for _ in range(2)
        )
        phased.distribute_all()
        for i in range(1, width + 1):
            stepped.distribute_qubit(i)
        assert_same_run(phased, stepped)
        phased.transport_all()
        for i in range(1, width + 1):
            stepped.transport_record(i)
        assert_same_run(phased, stepped)
        outcomes = phased.reconstruct(), stepped.reconstruct()
        assert_same_run(phased, stepped)
        assert phased.transcript.corrections == stepped.transcript.corrections
        assert type(outcomes[0]) is type(outcomes[1])
        if isinstance(outcomes[0], Sealed):
            assert outcomes[0] == outcomes[1]
        else:
            got, want = outcomes
            assert (got.covered_qubits, got.players) == (want.covered_qubits, want.players)
            if want.state_vector is None:
                assert got.state_vector is None
            else:
                assert got.state_vector.tobytes() == want.state_vector.tobytes()
        assert phased.resource_report() == stepped.resource_report()
        assert phased.rng.random() == stepped.rng.random()


class TestPartyNames:
    """Parties are 1-based indices; errors and results name them so."""

    def test_refusal_names_the_withholding_controller(self):
        policy = replace(split_pair_policy(), release={1: True, 2: False})
        run = complete(setup(1, 2, 1, haar(1, 6), policy, RandomSource(8)))
        with pytest.raises(ControllerRefusal) as err:
            run.joint_identify(1)
        assert str(err.value) == "controller-2 withheld cooperation"

    def test_refusal_names_the_withholders_in_policy_order(self):
        # Record 1 is split between controllers 3 and 1, in that order;
        # both withhold, and nothing is spent on the refusal.
        policy = AccessPolicy(
            qubit_to_player={1: 1, 2: 1},
            record_to_controller={1: (3, 1), 2: (2,)},
            threshold_k=1,
            release={1: False, 2: True, 3: False},
            cooperating_players={1},
        )
        run, twin = (
            complete(setup(1, 3, 2, haar(2, 6), policy, RandomSource(8)))
            for _ in range(2)
        )
        with pytest.raises(ControllerRefusal) as err:
            run.joint_identify(1)
        assert str(err.value) == "controller-3, controller-1 withheld cooperation"
        assert_same_protocol_state(run, twin)

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
    def test_every_named_controller_holds_the_record(self, path):
        # Each message that names a controller names one that the policy
        # assigns the record to; an identification names both, in order.
        cfg = load_scenario(path)
        named = 0
        for trial in range(min(cfg.trials, 20)):
            run = complete(build_run(cfg, (cfg.master_seed, trial)))
            verify_decoys(run, run.decoy_plan)
            run.reconstruct()
            for message in run.transcript.messages:
                parties = f"{message.sender} {message.receiver}"
                if "controller-" not in parties:
                    continue
                index = int(message.payload.split("record=")[1].split()[0])
                holders = run.policy.record_to_controller[index]
                if message.payload.startswith("identify"):
                    assert message.sender == "+".join(f"controller-{c}" for c in holders)
                for c in re.findall(r"controller-(\d+)", parties):
                    assert int(c) in holders, message
                    named += 1
        assert named

    def test_recovered_players_are_indices(self):
        run = complete(fresh_run(policy=AccessPolicy.round_robin(3, 3, 3)))
        out = run.reconstruct()
        assert isinstance(out, Recovered)
        assert out.players == (1, 2, 3)


class TestFrozenPolicy:
    """A policy is a value: nothing reachable from it, or from the
    configuration it came from, can be edited, so a staged run sees the
    policy it validated until it is done."""

    def test_a_staged_run_cannot_be_edited_through_its_policy(self):
        cfg = load_scenario(SCENARIOS / "full_release_demo.scn")
        run, twin = (complete(build_run(cfg, (cfg.master_seed, 0))) for _ in range(2))
        policy = run.policy
        with pytest.raises((TypeError, AttributeError)):
            policy.record_to_controller[2] = (7,)
        with pytest.raises((TypeError, AttributeError)):
            policy.cooperating_players.add(42)
        with pytest.raises((TypeError, AttributeError)):
            policy.threshold_k = 99
        with pytest.raises((TypeError, AttributeError)):
            cfg.release[1] = False
        with pytest.raises((TypeError, AttributeError)):
            cfg.decoys = 5
        out, want = run.reconstruct(), twin.reconstruct()
        assert isinstance(out, Recovered) and out.covered_qubits == want.covered_qubits
        assert np.array_equal(out.state_vector, want.state_vector)

    def test_plain_containers_are_frozen_once(self):
        # A caller's view over a dict they still hold is copied; holders
        # become tuples and players a frozenset; a frozen policy's
        # containers are reused by replace, not copied again.
        held = {1: 1, 2: 2}
        policy = AccessPolicy(
            qubit_to_player=MappingProxyType(held),
            record_to_controller={1: [1], 2: [2, 1]},
            threshold_k=2,
            release={1: True, 2: True},
            cooperating_players={1, 2},
        )
        held[1] = 2
        assert policy.qubit_to_player == {1: 1, 2: 2}
        assert policy.record_to_controller == {1: (1,), 2: (2, 1)}
        assert type(policy.cooperating_players) is frozenset
        policy.validate(2, 2, 2)
        again = replace(policy, threshold_k=1)
        for name in ("qubit_to_player", "record_to_controller", "release",
                     "cooperating_players"):
            assert getattr(again, name) is getattr(policy, name)

    def test_pickle_and_deepcopy_keep_a_frozen_equal_policy(self):
        cfg = load_scenario(SCENARIOS / "split_share.scn")
        policy = cfg.policy()
        for original in (policy, cfg):
            for twin in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
                assert twin == original
                assert type(twin.release) is type(original.release)
                with pytest.raises(TypeError):
                    twin.release[1] = False

    def test_a_hashed_map_still_refuses_every_mutator(self):
        policy = load_scenario(SCENARIOS / "split_share.scn").policy()
        held = policy.record_to_controller
        assert hash(held) == hash(frozenset(held.items()))
        mutators = [
            lambda d: d.__setitem__(1, (2,)), lambda d: d.__delitem__(1),
            lambda d: d.__ior__({1: (2,)}), lambda d: d.clear(), lambda d: d.pop(1),
            lambda d: d.popitem(), lambda d: d.setdefault(9, (1,)),
            lambda d: d.update({1: (2,)}),
        ]
        for mutate in mutators:
            with pytest.raises(TypeError):
                mutate(held)
        assert hash(held) == hash(frozenset(held.items()))

    def test_equal_policies_hash_equal(self):
        cfg = load_scenario(SCENARIOS / "split_share.scn")
        policy = cfg.policy()
        rebuilt = AccessPolicy(dict(policy.qubit_to_player),
                               dict(policy.record_to_controller), policy.threshold_k,
                               dict(policy.release), set(policy.cooperating_players))
        assert rebuilt == policy and hash(rebuilt) == hash(policy)
        for twin in (pickle.loads(pickle.dumps(policy)), copy.deepcopy(policy)):
            assert hash(twin) == hash(policy)
