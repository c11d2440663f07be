"""Scenario file format: parsing, defaults, round trips, and field errors."""

import pytest

from cqss.errors import CapacityError, PolicyError, ScenarioError
from cqss.harness import build_run, run_trial
from cqss.protocol import peak_block_qubits
from cqss.scenario import (
    SCHEMA_TAG,
    ScenarioConfig,
    SecretSpec,
    parse_scenario_text,
    scenario_to_text,
)

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

    def test_full_round_trip(self):
        cfg = parse_scenario_text(FULL)
        assert cfg.record_mode(1) == "split"
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


class TestWithRelease:
    def test_override_does_not_mutate_original(self):
        cfg = parse_scenario_text(MINIMAL)
        out = cfg.with_release({2})
        assert out.release == {1: False, 2: True, 3: False}
        assert cfg.release == {1: True, 2: True, 3: True}
