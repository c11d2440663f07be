"""Scenario file format: parsing, defaults, round trips, and field errors."""

import hashlib
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cqss import scenario
from cqss.errors import CapacityError, PolicyError, ScenarioError
from cqss.harness import build_run, run_trial
from cqss.protocol import AccessPolicy, peak_block_qubits
from cqss.scenario import (
    MAX_DECOYS,
    SCHEMA_TAG,
    ScenarioConfig,
    SecretSpec,
    load_scenario,
    parse_scenario_text,
    scenario_to_text,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
cqss-scenario v1
N = 3
n = 3
m = 3
mode = classical
threshold_k = 3
secret = demo 0.6 0.8
trials = 10
master_seed = 7
"""

FULL = """
cqss-scenario v1
name = everything
N = 2
n = 2
m = 4
mode = split
threshold_k = 2
qubit_to_player = 1:1 2:2
record_to_controller = 1:1+2 2:3+4
release = 1:yes 2:yes 3:no 4:yes
cooperating_players = 1 2
decoys = 2
eve = intercept-resend
eve_probability = 0.5
secret = haar 99
trials = 25
master_seed = 123
"""


class TestParsing:
    def test_minimal_with_defaults(self):
        cfg = parse_scenario_text(MINIMAL)
        assert cfg.name == "scenario"
        assert cfg.qubit_to_player == {1: 1, 2: 2, 3: 3}
        assert cfg.record_to_controller == {1: (1,), 2: (2,), 3: (3,)}
        assert cfg.release == {1: True, 2: True, 3: True}
        assert cfg.cooperating_players == {1, 2, 3}
        assert cfg.decoys == 0 and cfg.eve == "none"
        assert cfg.secret == SecretSpec("demo", (0.6 + 0j, 0.8 + 0j))

    @pytest.mark.parametrize("mode", ["classical", "split", "mixed"])
    def test_omitted_policy_keys_come_from_round_robin(self, mode):
        text = (
            MINIMAL.replace("N = 3", "N = 5")
            .replace("n = 3", "n = 2")
            .replace("threshold_k = 3", "threshold_k = 2")
            .replace("mode = classical", f"mode = {mode}")
        )
        cfg = parse_scenario_text(text)
        assert cfg.qubit_to_player == {1: 1, 2: 2, 3: 1, 4: 2, 5: 1}
        if mode == "split":
            assert cfg.record_to_controller == {
                1: (1, 2), 2: (3, 1), 3: (2, 3), 4: (1, 2), 5: (3, 1)
            }
        else:
            assert cfg.record_to_controller == {
                1: (1,), 2: (2,), 3: (3,), 4: (1,), 5: (2,)
            }
        assert cfg.policy() == AccessPolicy.round_robin(
            2, 3, 5, threshold_k=2, split_all=mode == "split"
        )

    def test_policy_edits_do_not_reach_the_config(self):
        # The policy shares the config's containers, and neither can be
        # edited: every edit raises and leaves both as they were.
        cfg = parse_scenario_text(FULL)
        policy = cfg.policy()
        assert policy.release is cfg.release
        edits = [
            lambda: policy.qubit_to_player.__setitem__(1, 2),
            lambda: policy.record_to_controller.update({1: (4,)}),
            lambda: policy.release.pop(1),
            lambda: policy.cooperating_players.discard(1),
            lambda: setattr(policy, "threshold_k", 1),
            lambda: cfg.release.__delitem__(1),
            lambda: cfg.qubit_to_player.__ior__({1: 2}),
            lambda: cfg.record_to_controller.setdefault(9, (1,)),
            lambda: cfg.release.popitem(),
            lambda: cfg.qubit_to_player.clear(),
            lambda: setattr(cfg, "N", 4),
        ]
        for edit in edits:
            with pytest.raises((TypeError, AttributeError)):
                edit()
        assert cfg == parse_scenario_text(FULL) and policy == cfg.policy()

    def test_full_round_trip(self):
        cfg = parse_scenario_text(FULL)
        assert len(cfg.record_to_controller[1]) == 2  # a split record
        again = parse_scenario_text(scenario_to_text(cfg))
        assert again == cfg

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL.replace("N = 3", "# leading comment\nN = 3  # trailing")
        assert parse_scenario_text(text).N == 3

    def test_explicit_secret(self):
        text = MINIMAL.replace(
            "secret = demo 0.6 0.8",
            "secret = explicit 0.6 0 0 0 0 0 0 0.8j",
        )
        cfg = parse_scenario_text(text)
        assert cfg.secret.kind == "explicit"
        assert cfg.secret.amplitudes[7] == 0.8j

    def test_round_trip_complex_amplitudes(self):
        text = MINIMAL.replace(
            "secret = demo 0.6 0.8", "secret = demo (0.48+0.36j) 0.8"
        )
        cfg = parse_scenario_text(text)
        assert parse_scenario_text(scenario_to_text(cfg)) == cfg

    @given(st.floats(0.0, 1.0))
    def test_round_trip_any_eve_probability(self, probability):
        cfg = replace(parse_scenario_text(MINIMAL), eve="intercept-resend",
                      eve_probability=probability)
        assert parse_scenario_text(scenario_to_text(cfg)) == cfg

    @given(*[st.complex_numbers(max_magnitude=1.0, allow_nan=False)] * 2)
    def test_round_trip_normalized_amplitudes(self, a, b):
        norm = math.hypot(abs(a), abs(b))
        assume(norm > 1e-100)
        cfg = replace(parse_scenario_text(MINIMAL),
                      secret=SecretSpec("demo", (a / norm, b / norm)))
        assume(abs(math.hypot(*map(abs, cfg.secret.amplitudes)) - 1.0) <= 1e-9)
        text = scenario_to_text(cfg)
        assert parse_scenario_text(text) == cfg
        assert scenario_to_text(parse_scenario_text(text)) == text

    def test_twelve_digits_suffice_where_they_read_back(self):
        cfg = replace(parse_scenario_text(MINIMAL), eve_probability=0.1,
                      secret=SecretSpec("demo", (0.6, 0.8j)))
        text = scenario_to_text(cfg)
        assert "eve_probability = 0.1\n" in text
        assert "secret = demo 0.6 (0+0.8j)\n" in text


class TestErrors:
    def assert_names_field(self, text, fieldname):
        with pytest.raises(ScenarioError) as err:
            parse_scenario_text(text)
        assert str(err.value).startswith(fieldname + ":"), str(err.value)

    def test_schema_tag_required(self):
        self.assert_names_field(MINIMAL.replace(SCHEMA_TAG, "cqss-scenario v9"),
                                "schema")

    def test_missing_required_key(self):
        self.assert_names_field(MINIMAL.replace("trials = 10", ""), "trials")

    def test_unknown_key(self):
        self.assert_names_field(MINIMAL + "\nbogus = 1", "bogus")

    def test_duplicate_key(self):
        self.assert_names_field(MINIMAL + "\nN = 4", "N")

    def test_bad_integer(self):
        self.assert_names_field(MINIMAL.replace("trials = 10", "trials = ten"),
                                "trials")

    def test_arity_checks(self):
        self.assert_names_field(MINIMAL.replace("n = 3", "n = 4"), "n")
        self.assert_names_field(MINIMAL.replace("m = 3", "m = 9"), "m")
        self.assert_names_field(
            MINIMAL.replace("threshold_k = 3", "threshold_k = 4"), "threshold_k"
        )

    def test_mode_holder_consistency(self):
        text = FULL.replace("record_to_controller = 1:1+2 2:3+4",
                            "record_to_controller = 1:1 2:2")
        with pytest.raises(ScenarioError):
            parse_scenario_text(text)

    def test_controller_without_share(self):
        text = MINIMAL + "\nrecord_to_controller = 1:1 2:1 3:2"
        self.assert_names_field(text, "record_to_controller")

    def test_release_must_cover_all(self):
        self.assert_names_field(MINIMAL + "\nrelease = 1:yes 2:yes", "release")

    @pytest.mark.parametrize(
        "key,entries,index",
        [
            ("release", "1:yes 1:no 2:yes 3:yes", 1),
            ("qubit_to_player", "1:1 2:2 2:3 3:3", 2),
            ("record_to_controller", "1:1 2:2 3:3 3:1", 3),
        ],
    )
    def test_duplicate_index(self, key, entries, index):
        with pytest.raises(ScenarioError, match=f"^{key}: duplicate index {index}$"):
            parse_scenario_text(f"{MINIMAL}\n{key} = {entries}")

    def test_unnormalized_demo_secret(self):
        self.assert_names_field(
            MINIMAL.replace("secret = demo 0.6 0.8", "secret = demo 1 1"),
            "secret",
        )

    def test_demo_needs_two_qubits(self):
        text = (
            MINIMAL.replace("N = 3", "N = 1")
            .replace("n = 3", "n = 1")
            .replace("m = 3", "m = 1")
            .replace("threshold_k = 3", "threshold_k = 1")
        )
        self.assert_names_field(text, "secret")

    @pytest.mark.parametrize(
        "decoys", [2**24 - 2, 10**12], ids=["one-past", "huge"]
    )
    def test_decoy_slot_draw_obeys_the_memory_rule(self, decoys):
        # N + decoys slots index an array of that many entries, which may
        # span at most MAX_ARRAY_QUBITS qubits.  Validation only: nothing runs.
        cfg = replace(parse_scenario_text(MINIMAL), decoys=decoys)
        with pytest.raises(ScenarioError, match=r"^decoys: .* \(cap 24\)$"):
            cfg.validate()

    @pytest.mark.parametrize(
        "decoys,accepted",
        [(2**20, True), (2**20 + 1, False), (2**24 - 3, False)],
        ids=["at-the-cap", "one-past-the-cap", "fills-24-qubits"],
    )
    def test_decoys_are_capped_by_the_memory_budget(self, decoys, accepted):
        # Each decoy holds memory for its run's life, about 1.4 KB, so the
        # cap bounds a run near 1.5 GB, below what the array rule allows.
        assert MAX_DECOYS == 2**20
        cfg = replace(parse_scenario_text(MINIMAL), decoys=decoys)
        if accepted:
            cfg.validate()
        else:
            with pytest.raises(ScenarioError) as err:
                cfg.validate()
            assert str(err.value) == f"decoys: {decoys} over the cap 1048576 (about 1.5 GB)"

    def test_decoy_capacity(self):
        # Decoys are blocks of their own, so 3 + 30 slots stay within the
        # memory rule: the largest block is the secret's own, 3 qubits.
        cfg = parse_scenario_text(MINIMAL + "\ndecoys = 30")
        result = run_trial(cfg, 0)
        assert (result.outcome, result.detection) == ("recovered", "clean")
        run = build_run(cfg, (cfg.master_seed, 0))
        run.distribute_all()
        run.transport_all()
        assert run.register.peak_block_qubits == peak_block_qubits(3) == 3

    def test_capacity_reports_protocol_check(self):
        # the scenario error is the protocol's CapacityError under "N: "
        text = (MINIMAL.replace("N = 3", "N = 25").replace("n = 3", "n = 1")
                .replace("m = 3", "m = 1").replace("threshold_k = 3", "threshold_k = 1"))
        with pytest.raises(ScenarioError) as scenario_err:
            parse_scenario_text(text)
        with pytest.raises(CapacityError) as capacity_err:
            peak_block_qubits(25)
        assert str(scenario_err.value) == f"N: {capacity_err.value}"

    def test_oversized_sizes_rejected_before_default_maps(self):
        # Omitted maps are round-robin maps over all N qubits; N is checked
        # before they are built, so the error costs no memory in N.
        huge = (MINIMAL.replace("N = 3", "N = 1000000")
                .replace("n = 3", "n = 1000000").replace("m = 3", "m = 1000000"))
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError) as err:
                parse_scenario_text(huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with pytest.raises(CapacityError) as capacity_err:
            peak_block_qubits(1000000)
        assert str(err.value) == f"N: {capacity_err.value}"
        assert peak < 2**20
        # A field that does not parse is still reported before the sizes.
        self.assert_names_field(
            huge.replace("master_seed = 7", "master_seed = x"), "master_seed"
        )
        self.assert_names_field(huge + "\nrelease = 1:maybe", "release")

    def test_eve_fields(self):
        self.assert_names_field(MINIMAL + "\neve = lurking", "eve")
        self.assert_names_field(MINIMAL + "\neve_probability = 1.5",
                                "eve_probability")

    def test_bad_pair_syntax(self):
        self.assert_names_field(
            MINIMAL + "\nqubit_to_player = 1-1 2-2 3-3", "qubit_to_player"
        )


# One malformed value per access-policy field, set on MINIMAL (n = m = N = 3).
POLICY_FIELD_CASES = [
    ("qubit_to_player", "1:1 2:1 3:2"),  # player 3 holds no qubit
    ("record_to_controller", "1:1 2:2 3:3+3"),  # one controller named twice
    ("threshold_k", "0"),
    ("release", "1:yes 2:yes 3:yes 4:no"),  # controller 4 does not exist
    ("cooperating_players", "1 2 4"),  # player 4 does not exist
]


def with_field(text, key, value):
    kept = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("fieldname,value", POLICY_FIELD_CASES)
def test_policy_fields_rejected_by_access_policy(fieldname, value, monkeypatch):
    text = with_field(MINIMAL, fieldname, value)
    with pytest.raises(ScenarioError) as scenario_err:
        parse_scenario_text(text)
    assert str(scenario_err.value).startswith(fieldname + ":"), str(scenario_err.value)

    # The same maps, parsed without validation, fail the policy's own check
    # with the same message.
    monkeypatch.setattr(ScenarioConfig, "validate", lambda self: None)
    policy = parse_scenario_text(text).policy()
    with pytest.raises(PolicyError) as policy_err:
        policy.validate(3, 3, 3)
    assert str(policy_err.value) == str(scenario_err.value)


# SHA-256 of scenario_to_text of each bundled scenario.  Its only floats are
# short decimals written with ".12g", the same bytes on every platform.
TEXT_DIGESTS = {
    "eve_curve": "0916529374297ccb0ba72104bdd612bc84a9bc1d1a5a23cbdc8ec6f5ef9f0101",
    "full_release_demo": "a2fa0a1b64eab7430bec0d3383a5699313b5faba5b4d7dfe6cfabaf70546f6d1",
    "single_withheld": "edc8879c0cd26fc3177fe14cc960d4ac3d7e2ea85ab3fd775ce06118f02160a9",
    "split_share": "36ae579c612b539a0fbc8d2cbfbfa882e15d861a93f155d20d8767f679c87911",
    "veto_controller": "60d464ab1e4013d76eb587a8a2c962d2c383ab83cfd0416a1dd44aebf4bad88d",
}


class TestCanonicalText:
    def test_pins_every_bundled_scenario(self):
        assert sorted(TEXT_DIGESTS) == sorted(p.stem for p in SCENARIOS.glob("*.scn"))

    @pytest.mark.parametrize("name", sorted(TEXT_DIGESTS))
    def test_bundled_text_digest(self, name):
        text = scenario_to_text(load_scenario(SCENARIOS / f"{name}.scn"))
        assert hashlib.sha256(text.encode()).hexdigest() == TEXT_DIGESTS[name]

    def test_keys_are_the_fields_in_order(self):
        # One syntax per key, parsed and written in field order.
        assert list(scenario._SYNTAX) == [f.name for f in fields(ScenarioConfig)]
        assert scenario._KEYS == set(scenario._SYNTAX)


class TestWithRelease:
    def test_override_does_not_mutate_original(self):
        cfg = parse_scenario_text(MINIMAL)
        out = cfg.with_release({2})
        assert out.release == {1: False, 2: True, 3: False}
        assert cfg.release == {1: True, 2: True, 3: True}
