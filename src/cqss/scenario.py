"""Scenario configuration and its plain-text file format.

A scenario file is line-oriented ``key = value`` text.  The first
non-comment line must be the schema tag ``cqss-scenario v1``; ``#`` starts a
comment; keys mirror :class:`ScenarioConfig` fields one for one.

Example::

    cqss-scenario v1
    name = full-release-demo
    N = 3
    n = 3
    m = 3
    mode = classical
    threshold_k = 3
    qubit_to_player = 1:1 2:2 3:3
    record_to_controller = 1:1 2:2 3:3
    release = 1:yes 2:yes 3:yes
    cooperating_players = 1 2 3
    decoys = 0
    eve = none
    eve_probability = 0
    secret = demo 0.6 0.8
    trials = 100
    master_seed = 20260801

Value syntax:

* ``qubit_to_player``: space-separated ``index:player`` pairs.
* ``record_to_controller``: ``index:controller`` or ``index:ctrlA+ctrlB``
  (two controllers = that record travels as a split share).
* ``release``: ``controller:yes|no`` for every controller.
* ``cooperating_players``: space-separated player indices.
* ``secret``: ``demo <a> <b>`` (two complex amplitudes of the carried
  qubit), ``haar <seed>`` (a fresh uniformly random state per trial), or
  ``explicit <c0> ... <c_{2^N-1}>``.  Complex tokens use Python syntax,
  e.g. ``0.6``, ``0.8j``, ``(0.5+0.5j)``.

Omitted keys fall back to: round-robin assignment maps, everything
released, every player cooperating, no decoys, no eavesdropper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import CapacityError, PolicyError, ScenarioError
from .protocol import AccessPolicy, peak_block_qubits

SCHEMA_TAG = "cqss-scenario v1"

MODES = ("classical", "split", "mixed")
EVE_STRATEGIES = ("none", "intercept-resend")
SECRET_KINDS = ("demo", "haar", "explicit")


@dataclass(frozen=True)
class SecretSpec:
    kind: str
    amplitudes: tuple[complex, ...] = ()
    haar_seed: int = 0


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce a batch of protocol runs.

    The assignment, threshold, release and cooperation fields are those of
    an :class:`~cqss.protocol.AccessPolicy` (see :meth:`policy`), with
    parties named by their 1-based indices; the policy validates them.
    """

    name: str
    N: int
    n: int
    m: int
    mode: str
    threshold_k: int
    qubit_to_player: dict[int, int]
    record_to_controller: dict[int, tuple[int, ...]]
    release: dict[int, bool]
    cooperating_players: set[int]
    decoys: int
    eve: str
    eve_probability: float
    secret: SecretSpec
    trials: int
    master_seed: int

    def record_mode(self, index: int) -> str:
        return "classical" if len(self.record_to_controller[index]) == 1 else "split"

    def with_release(self, released: set[int]) -> "ScenarioConfig":
        return replace(
            self,
            release={c: c in released for c in range(1, self.m + 1)},
            qubit_to_player=dict(self.qubit_to_player),
            record_to_controller=dict(self.record_to_controller),
            cooperating_players=set(self.cooperating_players),
        )

    def policy(self) -> AccessPolicy:
        """The access policy these fields describe, over fresh copies of
        their containers: editing the policy leaves the config as it is."""
        return AccessPolicy(
            qubit_to_player=dict(self.qubit_to_player),
            record_to_controller=dict(self.record_to_controller),
            threshold_k=self.threshold_k,
            release=dict(self.release),
            cooperating_players=set(self.cooperating_players),
        )

    def validate(self) -> None:
        def bad(fieldname: str, message: str) -> ScenarioError:
            return ScenarioError(f"{fieldname}: {message}")

        _check_sizes(self.N, self.n, self.m)
        if self.mode not in MODES:
            raise bad("mode", f"must be one of {MODES}, got {self.mode!r}")
        try:
            self.policy().validate(self.n, self.m, self.N)
        except PolicyError as exc:
            raise ScenarioError(str(exc)) from None
        expected_arity = {"classical": 1, "split": 2}.get(self.mode)
        if expected_arity is not None and any(
            len(h) != expected_arity for h in self.record_to_controller.values()
        ):
            raise bad(
                "mode",
                f"{self.mode} mode requires every record to name "
                f"{'one controller' if self.mode == 'classical' else 'two controllers'}",
            )
        if self.decoys < 0:
            raise bad("decoys", "must be >= 0")
        if self.eve not in EVE_STRATEGIES:
            raise bad("eve", f"must be one of {EVE_STRATEGIES}, got {self.eve!r}")
        if not 0.0 <= self.eve_probability <= 1.0:
            raise bad("eve_probability", f"outside [0, 1]: {self.eve_probability}")
        if self.trials < 1:
            raise bad("trials", f"must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise bad("master_seed", "must be a non-negative integer")
        self._validate_secret(bad)

    def _validate_secret(self, bad) -> None:
        spec = self.secret
        if spec.kind not in SECRET_KINDS:
            raise bad("secret", f"kind must be one of {SECRET_KINDS}")
        if spec.kind == "demo":
            if self.N < 2:
                raise bad("secret", f"demo encoding needs N >= 2, got N={self.N}")
            if len(spec.amplitudes) != 2:
                raise bad("secret", "demo takes exactly two amplitudes")
            norm = np.linalg.norm(spec.amplitudes)
            if abs(norm - 1.0) > 1e-9:
                raise bad("secret", f"demo amplitudes have norm {norm}")
        elif spec.kind == "explicit":
            want = 2**self.N
            if len(spec.amplitudes) != want:
                raise bad(
                    "secret",
                    f"explicit needs {want} amplitudes for N={self.N}, "
                    f"got {len(spec.amplitudes)}",
                )
            norm = np.linalg.norm(spec.amplitudes)
            if abs(norm - 1.0) > 1e-9:
                raise bad("secret", f"explicit amplitudes have norm {norm}")
        elif spec.haar_seed < 0:
            raise bad("secret", "haar seed must be a non-negative integer")


# -- parsing --------------------------------------------------------------------


# The keys of a scenario file, one per ScenarioConfig field.
_KEYS = frozenset(field.name for field in dataclass_fields(ScenarioConfig))


def parse_scenario_text(text: str) -> ScenarioConfig:
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ScenarioError("schema: empty scenario file")
    if lines[0] != SCHEMA_TAG:
        raise ScenarioError(
            f"schema: first line must be {SCHEMA_TAG!r}, got {lines[0]!r}"
        )
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if "=" not in line:
            raise ScenarioError(f"syntax: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ScenarioError(f"{key}: duplicate key")
        fields[key] = value

    for key in fields:
        if key not in _KEYS:
            raise ScenarioError(f"{key}: unknown key")

    def require(key: str) -> str:
        if key not in fields:
            raise ScenarioError(f"{key}: required key missing")
        return fields[key]

    N = _parse_int("N", require("N"))
    n = _parse_int("n", require("n"))
    m = _parse_int("m", require("m"))
    mode = require("mode")

    def policy_field(key: str, parse: Callable, *args):
        """``key`` parsed, or None if it is omitted."""
        return parse(key, fields[key], *args) if key in fields else None

    cfg = ScenarioConfig(
        name=fields.get("name", "scenario"),
        N=N,
        n=n,
        m=m,
        mode=mode,
        threshold_k=_parse_int("threshold_k", require("threshold_k")),
        qubit_to_player=policy_field("qubit_to_player", _parse_map, _parse_int),
        record_to_controller=policy_field(
            "record_to_controller", _parse_map, _parse_holders
        ),
        release=policy_field("release", _parse_map, _parse_flag),
        cooperating_players=policy_field("cooperating_players", _parse_index_set),
        decoys=_parse_int("decoys", fields.get("decoys", "0")),
        eve=fields.get("eve", "none"),
        eve_probability=_parse_float("eve_probability", fields.get("eve_probability", "0")),
        secret=_parse_secret("secret", require("secret")),
        trials=_parse_int("trials", require("trials")),
        master_seed=_parse_int("master_seed", require("master_seed")),
    )
    omitted = [key for key in ("qubit_to_player", "record_to_controller", "release",
                               "cooperating_players") if key not in fields]
    if omitted:
        # Omitted maps come from the round-robin policy, whose maps grow with
        # N: check the sizes, as ``validate`` first does, before building it.
        _check_sizes(N, n, m)
        default = AccessPolicy.round_robin(n, m, N, split_all=mode == "split")
        for key in omitted:
            setattr(cfg, key, getattr(default, key))
    cfg.validate()
    return cfg


def load_scenario(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise ScenarioError(f"scenario_path: file not found: {p}") from None
    except OSError as exc:
        raise ScenarioError(f"scenario_path: cannot read {p}: {exc}") from None
    return parse_scenario_text(text)


def scenario_to_text(cfg: ScenarioConfig) -> str:
    """Canonical serialization; round-trips through the parser."""
    lines = [SCHEMA_TAG]
    lines.append(f"name = {cfg.name}")
    lines.append(f"N = {cfg.N}")
    lines.append(f"n = {cfg.n}")
    lines.append(f"m = {cfg.m}")
    lines.append(f"mode = {cfg.mode}")
    lines.append(f"threshold_k = {cfg.threshold_k}")
    lines.append(
        "qubit_to_player = "
        + " ".join(f"{i}:{p}" for i, p in sorted(cfg.qubit_to_player.items()))
    )
    lines.append(
        "record_to_controller = "
        + " ".join(
            f"{i}:{'+'.join(str(c) for c in hs)}"
            for i, hs in sorted(cfg.record_to_controller.items())
        )
    )
    lines.append(
        "release = "
        + " ".join(
            f"{c}:{'yes' if flag else 'no'}" for c, flag in sorted(cfg.release.items())
        )
    )
    lines.append(
        "cooperating_players = "
        + " ".join(str(p) for p in sorted(cfg.cooperating_players))
    )
    lines.append(f"decoys = {cfg.decoys}")
    lines.append(f"eve = {cfg.eve}")
    lines.append(f"eve_probability = {_format_float(cfg.eve_probability)}")
    lines.append("secret = " + _format_secret(cfg.secret))
    lines.append(f"trials = {cfg.trials}")
    lines.append(f"master_seed = {cfg.master_seed}")
    return "\n".join(lines) + "\n"


def _check_sizes(N: int, n: int, m: int) -> None:
    """The first checks of :meth:`ScenarioConfig.validate`: N, n and m."""
    if N < 1:
        raise ScenarioError(f"N: must be >= 1, got {N}")
    try:
        peak_block_qubits(N)
    except CapacityError as exc:
        raise ScenarioError(f"N: {exc}") from None
    if n < 1 or n > N:
        raise ScenarioError(f"n: must satisfy 1 <= n <= N={N}, got {n}")
    if m < 1 or m > 2 * N:
        raise ScenarioError(f"m: must satisfy 1 <= m <= 2N={2 * N}, got {m}")


# -- value parsers ------------------------------------------------------------------


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"{key}: expected a number, got {value!r}") from None


def _parse_complex(key: str, token: str) -> complex:
    try:
        return complex(token)
    except ValueError:
        raise ScenarioError(
            f"{key}: expected a complex number, got {token!r}"
        ) from None


_V = TypeVar("_V")

_RELEASE_FLAGS = {
    "yes": True, "true": True, "1": True, "no": False, "false": False, "0": False
}


def _parse_holders(key: str, value: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, tok) for tok in value.split("+"))


def _parse_flag(key: str, value: str) -> bool:
    if value.lower() not in _RELEASE_FLAGS:
        raise ScenarioError(f"{key}: expected yes/no, got {value!r}")
    return _RELEASE_FLAGS[value.lower()]


def _parse_map(
    key: str, value: str, parse_value: Callable[[str, str], _V]
) -> dict[int, _V]:
    """``index:value`` entries, each value read by ``parse_value``; an empty
    map or a repeated index is an error."""
    result: dict[int, _V] = {}
    for pair in value.split():
        if ":" not in pair:
            raise ScenarioError(f"{key}: expected 'index:value' pairs, got {pair!r}")
        left, right = pair.split(":", 1)
        idx = _parse_int(key, left)
        if idx in result:
            raise ScenarioError(f"{key}: duplicate index {idx}")
        result[idx] = parse_value(key, right)
    if not result:
        raise ScenarioError(f"{key}: no entries")
    return result


def _parse_index_set(key: str, value: str) -> set[int]:
    return {_parse_int(key, tok) for tok in value.split()}


def _parse_secret(key: str, value: str) -> SecretSpec:
    tokens = value.split()
    if not tokens:
        raise ScenarioError(f"{key}: empty value")
    kind = tokens[0]
    if kind == "demo":
        if len(tokens) != 3:
            raise ScenarioError(f"{key}: demo takes exactly two amplitudes")
        return SecretSpec(
            "demo", (_parse_complex(key, tokens[1]), _parse_complex(key, tokens[2]))
        )
    if kind == "haar":
        if len(tokens) != 2:
            raise ScenarioError(f"{key}: haar takes exactly one seed")
        return SecretSpec("haar", haar_seed=_parse_int(key, tokens[1]))
    if kind == "explicit":
        if len(tokens) < 2:
            raise ScenarioError(f"{key}: explicit needs amplitudes")
        return SecretSpec(
            "explicit", tuple(_parse_complex(key, tok) for tok in tokens[1:])
        )
    raise ScenarioError(f"{key}: unknown secret kind {kind!r}")


def _format_float(x: float) -> str:
    return f"{x:.12g}"


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return _format_float(z.real)
    return f"({_format_float(z.real)}{z.imag:+.12g}j)"


def _format_secret(spec: SecretSpec) -> str:
    if spec.kind == "haar":
        return f"haar {spec.haar_seed}"
    amps = " ".join(_format_complex(a) for a in spec.amplitudes)
    return f"{spec.kind} {amps}"
