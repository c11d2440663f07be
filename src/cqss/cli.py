"""Command-line entry point.

Subcommands::

    run <scenario>        execute the scenario's trials and print the report
    noinfo <scenario>     sealing audit over a sweep of withheld-record sets
    eve <scenario>        eavesdropper detection curve over M = 1, 2, 4, 8
    mstar <scenario>      minimum-consenting-controllers sweep
    resources <scenario>  resource accounting for one trial

Common flags: ``--seed`` overrides the scenario's master seed, ``--out``
writes the report to a file as well as stdout, ``-v``/``-vv`` raise report
verbosity.  Exit codes: 0 success, 1 an embedded assertion failed, 2 usage
or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import CapacityError, CqssError, ScenarioError, SweepError
from .harness import (
    build_run,
    detection_curve,
    expected_outcome,
    mstar_sweep,
    run_scenario,
    run_trial,
)
from .qubits import check_array_qubits
from .scenario import ScenarioConfig, load_scenario
from .security import no_information_audit, noinfo_sweep, verify_decoys

RECOVERY_FIDELITY_FLOOR = 1.0 - 1e-10


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqss",
        description="Seedable simulator for controller-gated quantum secret sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute a scenario and report per-trial and aggregate results"),
        ("noinfo", "verify sealed secrets carry no withheld-qubit information"),
        ("eve", "measure the decoy detection curve under the configured attacker"),
        ("mstar", "sweep release subsets for the minimum consenting controllers "
                  "(recovery counts covered qubits, decodable only when the "
                  "secret is a threshold encoding)"),
        ("resources", "print and check the resource accounting for one trial"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", type=Path, default=None, help="also write report here")
        p.add_argument(
            "-v", "--verbose", action="count", default=0, help="-v per trial, -vv transcripts"
        )
    return parser


def _load(args: argparse.Namespace) -> ScenarioConfig:
    cfg = load_scenario(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
        cfg.validate()
    return cfg


def _emit(text: str, out: Path | None) -> None:
    sys.stdout.write(text)
    if out is not None:
        try:
            out.write_text(text)
        except OSError as exc:
            raise ScenarioError(f"out: cannot write {out}: {exc}") from None


def _cmd_run(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    report = run_scenario(cfg)
    _emit(report.to_text(verbosity=args.verbose), args.out)
    failures = []
    expected = expected_outcome(cfg)
    eve_free = cfg.eve == "none" or cfg.eve_probability == 0.0
    for trial in report.results:
        if eve_free and trial.detection != "clean":
            failures.append(f"trial {trial.index}: false eavesdropper detection")
        if eve_free and trial.outcome != expected:
            failures.append(
                f"trial {trial.index}: outcome {trial.outcome}, expected {expected}"
            )
        if (
            eve_free
            and trial.fidelity is not None
            and trial.fidelity < RECOVERY_FIDELITY_FLOOR
        ):
            failures.append(
                f"trial {trial.index}: fidelity {trial.fidelity} below "
                f"{RECOVERY_FIDELITY_FLOOR}"
            )
    for line in failures:
        print(f"assertion failed: {line}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_noinfo(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    try:
        check_array_qubits(2 * cfg.N, f"the audit's density matrix over {cfg.N} qubits")
    except CapacityError as exc:
        raise ScenarioError(f"N: {exc}") from None
    run = build_run(cfg, (cfg.master_seed, 0))
    run.distribute_all()
    run.transport_all()
    verify_decoys(run, run.decoy_plan)
    lines = ["cqss-noinfo-audit v1", f"scenario: {cfg.name}"]
    ok = True
    for withheld in noinfo_sweep(cfg.N):
        audit = no_information_audit(run, withheld)
        label = ",".join(str(i) for i in audit.withheld) or "-"
        lines.append(
            f"withheld={label} trace_distance={audit.distance:.3e} "
            f"pass={'yes' if audit.passed else 'no'}"
        )
        ok = ok and audit.passed
    _emit("\n".join(lines) + "\n", args.out)
    if not ok:
        print("assertion failed: sealed state leaked withheld-qubit information",
              file=sys.stderr)
    return 0 if ok else 1


def _cmd_eve(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    if cfg.eve == "none" or cfg.eve_probability == 0.0:
        raise ScenarioError(
            "eve: the detection-curve experiment needs eve = intercept-resend "
            "with a positive probability"
        )
    curve = detection_curve(cfg)
    _emit(curve.to_text(), args.out)
    if not curve.all_within_bounds:
        print(
            "assertion failed: escape frequency outside 4-sigma of the closed form",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_mstar(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    try:
        table = mstar_sweep(cfg)
    except SweepError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    _emit(table.to_text(), args.out)
    return 0


def _cmd_resources(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    trial = run_trial(cfg, 0)
    lines = ["cqss-resources v1", f"scenario: {cfg.name}"]
    lines.extend(trial.resources.to_lines())
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "noinfo": _cmd_noinfo,
    "eve": _cmd_eve,
    "mstar": _cmd_mstar,
    "resources": _cmd_resources,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = _load(args)
        return _HANDLERS[args.command](cfg, args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CqssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
