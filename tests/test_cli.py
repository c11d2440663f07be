"""Exit-code contract and report determinism of the command-line interface."""

import tracemalloc
from pathlib import Path

import pytest

from cqss import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FAST_SCENARIO = """
cqss-scenario v1
name = cli-fast
N = 2
n = 2
m = 2
mode = classical
threshold_k = 2
secret = demo 0.6 0.8
trials = 5
master_seed = 31337
"""


@pytest.fixture
def fast_scenario(tmp_path):
    path = tmp_path / "fast.scn"
    path.write_text(FAST_SCENARIO.lstrip())
    return path


def invoke(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_missing_file_exits_2(self, capsys):
        code, _, err = invoke(capsys, "run", "definitely_missing.scn")
        assert code == 2
        assert err == "error: scenario_path: file not found: definitely_missing.scn\n"

    def test_malformed_scenario_names_field(self, capsys, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text(FAST_SCENARIO.lstrip().replace("trials = 5", "trials = soon"))
        code, _, err = invoke(capsys, "run", path)
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("n = 2", "n: must satisfy 1 <= n <= N=2, got 0"),
            ("m = 2", "m: must satisfy 1 <= m <= 2N=4, got 0"),
        ],
        ids=["no-players", "no-controllers"],
    )
    def test_zero_parties_without_maps_exit_2(self, capsys, tmp_path, line, message):
        # The omitted assignment maps default to round robin over no parties.
        path = tmp_path / "empty.scn"
        path.write_text(FAST_SCENARIO.replace(f"\n{line}\n", f"\n{line[0]} = 0\n"))
        code, out, err = invoke(capsys, "run", path)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate", "x.scn"]) == 2

    def test_no_arguments_exits_2(self):
        assert cli.main([]) == 2

    def test_negative_seed_rejected(self, capsys, fast_scenario):
        code, _, err = invoke(capsys, "run", fast_scenario, "--seed", "-3")
        assert code == 2 and "master_seed" in err

    def test_undecodable_scenario_exits_2(self, capsys, tmp_path):
        path = tmp_path / "binary.scn"
        path.write_bytes(b"\xff\xfe" + FAST_SCENARIO.encode())
        code, out, err = invoke(capsys, "run", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: scenario_path: {path} is not UTF-8 text")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "target", ["dir", "missing/x.txt"], ids=["directory", "missing-parent"]
    )
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        out_path = tmp_path if target == "dir" else tmp_path / target
        code, out, err = invoke(
            capsys, "resources", SCENARIOS / "full_release_demo.scn", "--out", out_path
        )
        assert code == 2
        assert out.startswith("cqss-resources v1\n")  # stdout gets the report first
        assert err.startswith(f"error: out: cannot write {out_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestRun:
    def test_success_and_report_shape(self, capsys, fast_scenario):
        code, out, err = invoke(capsys, "run", fast_scenario)
        assert code == 0 and err == ""
        assert out.startswith("cqss-report v1\n")
        assert "recovered: 5" in out
        assert "mean_fidelity: 1" in out

    def test_stdout_byte_identical_across_runs(self, capsys, fast_scenario):
        _, first, _ = invoke(capsys, "run", fast_scenario, "-v")
        _, second, _ = invoke(capsys, "run", fast_scenario, "-v")
        assert first == second

    def test_out_file_matches_stdout(self, capsys, fast_scenario, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = invoke(capsys, "run", fast_scenario, "--out", target)
        assert code == 0
        assert target.read_text() == out

    def test_seed_override_changes_stream_deterministically(
        self, capsys, fast_scenario
    ):
        _, a1, _ = invoke(capsys, "run", fast_scenario, "--seed", "1", "-vv")
        _, a2, _ = invoke(capsys, "run", fast_scenario, "--seed", "1", "-vv")
        assert a1 == a2
        assert "master_seed: 1" in a1

    def test_verbosity_adds_trials_and_transcripts(self, capsys, fast_scenario):
        _, quiet, _ = invoke(capsys, "run", fast_scenario)
        _, loud, _ = invoke(capsys, "run", fast_scenario, "-vv")
        assert "trial 0:" not in quiet
        assert "trial 0:" in loud and "transcript:" in loud

    def test_fidelity_regression_exits_1(self, capsys, fast_scenario, monkeypatch):
        import dataclasses

        from cqss.harness import RunReport, run_trial

        def sabotaged_scenario(cfg):
            report = RunReport(cfg.name, cfg.trials, cfg.master_seed)
            for t in range(cfg.trials):
                result = run_trial(cfg, t)
                report.results.append(dataclasses.replace(result, fidelity=0.5))
            return report

        monkeypatch.setattr(cli, "run_scenario", sabotaged_scenario)
        code, _, err = invoke(capsys, "run", fast_scenario)
        assert code == 1 and "fidelity" in err


class TestBundledScenarios:
    def test_all_bundled_parse(self):
        from cqss.scenario import load_scenario

        names = sorted(p.name for p in SCENARIOS.glob("*.scn"))
        assert names == [
            "eve_curve.scn",
            "full_release_demo.scn",
            "single_withheld.scn",
            "split_share.scn",
            "veto_controller.scn",
        ]
        for p in SCENARIOS.glob("*.scn"):
            load_scenario(p)

    def test_resources_on_demo_scenario(self, capsys):
        code, out, _ = invoke(capsys, "resources", SCENARIOS / "full_release_demo.scn")
        assert code == 0
        assert "epr_player=3" in out
        assert "epr_controller=6" in out
        assert "dealer_measurements=6" in out

    def test_mstar_on_demo_scenario(self, capsys):
        code, out, _ = invoke(capsys, "mstar", SCENARIOS / "full_release_demo.scn")
        assert code == 0
        assert "minimum_consenting: 3" in out

    @pytest.mark.parametrize("name", ["split_share", "veto_controller"])
    def test_mstar_on_another_shape_exits_2(self, capsys, name):
        # m != N: a configuration error, named by its field.
        code, out, err = invoke(capsys, "mstar", SCENARIOS / f"{name}.scn")
        assert code == 2 and out == ""
        assert err.startswith("error: m: sweep needs n = m = N, got ")
        assert err.count("\n") == 1

    def test_mstar_contradicting_the_threshold_exits_1(
        self, capsys, fast_scenario, monkeypatch
    ):
        # Every subset releases every record, so the sweep recovers with no
        # consent at all and its minimum contradicts threshold_k = 2.
        from cqss.scenario import ScenarioConfig

        real = ScenarioConfig.with_release
        monkeypatch.setattr(
            ScenarioConfig,
            "with_release",
            lambda cfg, released: real(cfg, set(range(1, cfg.m + 1))),
        )
        code, out, err = invoke(capsys, "mstar", fast_scenario)
        assert code == 1 and out == ""
        assert err == (
            "assertion failed: minimum consenting controllers 0 != threshold 2\n"
        )

    def test_noinfo_on_withheld_scenario(self, capsys):
        code, out, _ = invoke(capsys, "noinfo", SCENARIOS / "single_withheld.scn")
        assert code == 0
        assert out.count("pass=yes") == 5  # empty, 3 singletons, full set

    def test_eve_requires_active_attacker(self, capsys, fast_scenario):
        code, _, err = invoke(capsys, "eve", fast_scenario)
        assert code == 2 and "eve" in err


# What `cqss mstar` and `cqss resources` print on each bundled scenario, and
# their exit codes: integers and names only, the same on every platform.
THREE_BY_THREE_SWEEP = (
    "cqss-consent-sweep v1\n"
    "released=0 subsets=1 recovered=0\n"
    "released=1 subsets=3 recovered=0\n"
    "released=2 subsets=3 recovered=0\n"
    "released=3 subsets=1 recovered=1\n"
    "minimum_consenting: 3\n"
    "threshold_k: 3\n"
)
MSTAR_PINS = {
    "eve_curve": (
        0,
        "cqss-consent-sweep v1\n"
        "released=0 subsets=1 recovered=0\n"
        "released=1 subsets=1 recovered=1\n"
        "minimum_consenting: 1\n"
        "threshold_k: 1\n",
        "",
    ),
    "full_release_demo": (0, THREE_BY_THREE_SWEEP, ""),
    "single_withheld": (0, THREE_BY_THREE_SWEEP, ""),
    "split_share": (2, "", "error: m: sweep needs n = m = N, got n=2 m=4 N=2\n"),
    "veto_controller": (2, "", "error: m: sweep needs n = m = N, got n=3 m=2 N=3\n"),
}
RESOURCE_KEYS = (
    "epr_player", "epr_controller", "dealer_measurements",
    "dealer_distribution_measurements", "dealer_transport_measurements",
    "controller_measurements", "decoy_overhead",
)
RESOURCE_PINS = {
    "eve_curve": ("eve-curve", (5, 2, 6, 5, 1, 1, 4)),
    "full_release_demo": ("full-release-demo", (3, 6, 6, 3, 3, 3, 0)),
    "single_withheld": ("single-withheld", (3, 6, 6, 3, 3, 3, 0)),
    "split_share": ("split-share", (4, 4, 8, 4, 4, 2, 2)),
    "veto_controller": ("veto-controller", (3, 6, 6, 3, 3, 3, 0)),
}

# The sets `cqss noinfo` audits on each bundled scenario.  Each certificate
# is exactly 0.0 and reads no LAPACK routine, so its line is the same on
# every platform.
NOINFO_PINS = {
    "eve_curve": ("eve-curve", ("-", "1")),
    "full_release_demo": ("full-release-demo", ("-", "1", "2", "3", "1,2,3")),
    "single_withheld": ("single-withheld", ("-", "1", "2", "3", "1,2,3")),
    "split_share": ("split-share", ("-", "1", "2", "1,2")),
    "veto_controller": ("veto-controller", ("-", "1", "2", "3", "1,2,3")),
}


class TestPinnedOutputs:
    def test_pins_every_bundled_scenario(self):
        names = sorted(p.stem for p in SCENARIOS.glob("*.scn"))
        assert sorted(MSTAR_PINS) == sorted(RESOURCE_PINS) == names
        assert sorted(NOINFO_PINS) == names

    @pytest.mark.parametrize("name", sorted(MSTAR_PINS))
    def test_mstar(self, capsys, name):
        assert invoke(capsys, "mstar", SCENARIOS / f"{name}.scn") == MSTAR_PINS[name]

    @pytest.mark.parametrize("name", sorted(RESOURCE_PINS))
    def test_resources(self, capsys, name):
        label, counts = RESOURCE_PINS[name]
        out = f"cqss-resources v1\nscenario: {label}\n" + "".join(
            f"{key}={count}\n" for key, count in zip(RESOURCE_KEYS, counts)
        )
        assert invoke(capsys, "resources", SCENARIOS / f"{name}.scn") == (0, out, "")

    @pytest.mark.parametrize("name", sorted(NOINFO_PINS))
    def test_noinfo(self, capsys, name):
        label, sets = NOINFO_PINS[name]
        out = f"cqss-noinfo-audit v1\nscenario: {label}\n" + "".join(
            f"withheld={w} trace_distance=0.000e+00 pass=yes\n" for w in sets
        )
        assert invoke(capsys, "noinfo", SCENARIOS / f"{name}.scn") == (0, out, "")


def wide_scenario(tmp_path, width, threshold_k, withholding=()):
    """A classical round-robin scenario over ``width`` players and
    controllers, with the given controllers withholding."""
    release = " ".join(
        f"{c}:{'no' if c in withholding else 'yes'}" for c in range(1, width + 1)
    )
    path = tmp_path / "wide.scn"
    path.write_text(
        FAST_SCENARIO.lstrip()
        .replace("N = 2", f"N = {width}")
        .replace("n = 2", f"n = {width}")
        .replace("m = 2", f"m = {width}")
        .replace("threshold_k = 2", f"threshold_k = {threshold_k}")
        .replace("secret = demo 0.6 0.8", f"secret = haar 3\nrelease = {release}")
        .replace("trials = 5", "trials = 1")
    )
    return path


class TestMemoryRule:
    def test_noinfo_takes_every_width_run_takes(self, capsys, tmp_path, monkeypatch):
        # The audit builds no matrix, so N = 13 passes all 15 sets, and
        # N = 25, past the secret's cap, exits 2 before anything is built.
        code, out, err = invoke(capsys, "noinfo", wide_scenario(tmp_path, 13, 13))
        assert (code, err) == (0, "")
        assert out.count(" trace_distance=0.000e+00 pass=yes\n") == 15
        calls = []
        monkeypatch.setattr(cli, "build_run", lambda *args: calls.append(args))
        code, out, err = invoke(capsys, "noinfo", wide_scenario(tmp_path, 25, 25))
        assert (code, out) == (2, "")
        assert err.startswith("error: N: ") and "25 qubits" in err
        assert not calls

    def test_huge_decoy_count_exits_2_before_allocating(self, capsys, tmp_path):
        # The decoy slots are drawn from an array over all N + decoys slots;
        # 10**12 + 2 entries span 40 qubits, so validation refuses them.
        path = tmp_path / "decoys.scn"
        path.write_text(FAST_SCENARIO.lstrip() + "decoys = 1000000000000\n")
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, "run", path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (
            "error: decoys: a draw over 1000000000002 slots would span "
            "40 qubits (cap 24)\n"
        )
        assert peak < 1 << 20

    def test_one_decoy_past_the_budget_exits_2(self, capsys, tmp_path):
        # 2**20 decoys is the largest count a run may hold; validation
        # refuses one more, for every subcommand, before anything runs.
        path = tmp_path / "decoys.scn"
        path.write_text(FAST_SCENARIO.lstrip() + "decoys = 1048577\n")
        for command in ("run", "eve", "noinfo", "resources"):
            code, out, err = invoke(capsys, command, path)
            assert (code, out) == (2, "")
            assert err == "error: decoys: 1048577 over the cap 1048576 (about 1.5 GB)\n"

    def test_run_with_partial_coverage_at_width_18(self, capsys, tmp_path):
        # Controller 1 withholds record 1, so 17 of 18 players recover.  The
        # covered qubits' 2^17 x 2^17 density matrix is never built.
        code, out, _ = invoke(
            capsys, "run", wide_scenario(tmp_path, 18, 17, withholding={1})
        )
        assert code == 0
        assert "recovered" in out


class TestEveCurve:
    def test_small_curve_passes(self, capsys, tmp_path):
        path = tmp_path / "eve_small.scn"
        path.write_text(
            (SCENARIOS / "eve_curve.scn")
            .read_text()
            .replace("trials = 10000", "trials = 1500")
        )
        code, out, _ = invoke(capsys, "eve", path)
        assert code == 0
        assert out.count("within_4_sigma=yes") == 4
