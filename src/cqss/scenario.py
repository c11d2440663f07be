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
from typing import Any, Callable, Collection, Mapping, NamedTuple

import numpy as np

from .errors import CapacityError, PolicyError, ScenarioError
from .protocol import AccessPolicy, _freeze_policy_fields, peak_block_qubits
from .qubits import check_array_qubits
from .security import EveModel

SCHEMA_TAG = "cqss-scenario v1"

MODES = ("classical", "split", "mixed")
MAX_DECOYS = 2**20  # at about 1.4 KB and 20 µs a decoy: 1.5 GB and 23 s a run
SECRET_KINDS = ("demo", "haar", "explicit")


@dataclass(frozen=True)
class SecretSpec:
    kind: str
    amplitudes: tuple[complex, ...] = ()
    haar_seed: int = 0


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a batch of protocol runs.

    The assignment, threshold, release and cooperation fields are those of
    an :class:`~cqss.protocol.AccessPolicy` (see :meth:`policy`), with
    parties named by their 1-based indices; the policy validates them.  A
    configuration is a value, its containers frozen as a policy's are;
    change one with :func:`dataclasses.replace`.
    """

    name: str
    N: int
    n: int
    m: int
    mode: str
    threshold_k: int
    qubit_to_player: Mapping[int, int]
    record_to_controller: Mapping[int, tuple[int, ...]]
    release: Mapping[int, bool]
    cooperating_players: frozenset[int]
    decoys: int
    eve: str
    eve_probability: float
    secret: SecretSpec
    trials: int
    master_seed: int

    __post_init__ = _freeze_policy_fields

    def with_release(self, released: Collection[int]) -> "ScenarioConfig":
        return replace(self, release={c: c in released for c in range(1, self.m + 1)})

    def policy(self) -> AccessPolicy:
        """The access policy these fields describe, sharing their containers."""
        return AccessPolicy(self.qubit_to_player, self.record_to_controller,
                            self.threshold_k, self.release, self.cooperating_players)

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
        arity = {"classical": 1, "split": 2}.get(self.mode)
        if arity and any(len(h) != arity for h in self.record_to_controller.values()):
            holders = "one controller" if arity == 1 else "two controllers"
            raise bad("mode", f"{self.mode} mode requires every record to name {holders}")
        if self.decoys < 0:
            raise bad("decoys", "must be >= 0")
        # Decoy slots are drawn from an array over all N + decoys slots.
        slots = self.N + self.decoys
        try:
            check_array_qubits((slots - 1).bit_length(), f"a draw over {slots} slots")
        except CapacityError as exc:
            raise bad("decoys", str(exc)) from None
        if self.decoys > MAX_DECOYS:
            raise bad("decoys", f"{self.decoys} over the cap {MAX_DECOYS} (about 1.5 GB)")
        try:
            EveModel(self.eve, self.eve_probability)
        except PolicyError as exc:
            raise ScenarioError(str(exc)) from None
        if self.trials < 1:
            raise bad("trials", f"must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise bad("master_seed", "must be a non-negative integer")
        self._validate_secret(bad)

    def _validate_secret(self, bad) -> None:
        spec = self.secret
        if spec.kind not in SECRET_KINDS:
            raise bad("secret", f"kind must be one of {SECRET_KINDS}")
        if spec.kind == "haar":
            if spec.haar_seed < 0:
                raise bad("secret", "haar seed must be a non-negative integer")
            return
        if spec.kind == "demo":
            if self.N < 2:
                raise bad("secret", f"demo encoding needs N >= 2, got N={self.N}")
            if len(spec.amplitudes) != 2:
                raise bad("secret", "demo takes exactly two amplitudes")
        elif len(spec.amplitudes) != 2**self.N:
            raise bad(
                "secret",
                f"explicit needs {2**self.N} amplitudes for N={self.N}, "
                f"got {len(spec.amplitudes)}",
            )
        norm = np.linalg.norm(spec.amplitudes)
        if abs(norm - 1.0) > 1e-9:
            raise bad("secret", f"{spec.kind} amplitudes have norm {norm}")


# -- parsing --------------------------------------------------------------------


# The keys of a scenario file, one per ScenarioConfig field.
_KEYS = frozenset(field.name for field in dataclass_fields(ScenarioConfig))


def parse_scenario_text(text: str) -> ScenarioConfig:
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
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

    # Every given value is parsed, in field order, before anything else.
    values: dict[str, Any] = {}
    for key, syntax in _SYNTAX.items():
        if key in fields:
            values[key] = syntax.parse(key, fields[key])
        elif syntax.default is _REQUIRED:
            raise ScenarioError(f"{key}: required key missing")
        elif syntax.default is not _ROUND_ROBIN:
            values[key] = syntax.default
    omitted = _KEYS - values.keys()
    if omitted:
        # Omitted maps come from the round-robin policy, whose maps grow with
        # N: check the sizes, as ``validate`` first does, before building it.
        N, n, m = values["N"], values["n"], values["m"]
        _check_sizes(N, n, m)
        default = AccessPolicy.round_robin(n, m, N, split_all=values["mode"] == "split")
        values.update((key, getattr(default, key)) for key in omitted)
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg


def load_scenario(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"scenario_path: file not found: {p}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario_path: {p} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ScenarioError(f"scenario_path: cannot read {p}: {exc}") from None
    return parse_scenario_text(text)


def scenario_to_text(cfg: ScenarioConfig) -> str:
    """Canonical serialization; round-trips through the parser."""
    lines = [f"{key} = {key_syntax.format(getattr(cfg, key))}"
             for key, key_syntax in _SYNTAX.items()]
    return "\n".join([SCHEMA_TAG, *lines]) + "\n"


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


def _number(convert: Callable[[str], Any], what: str) -> Callable[[str, str], Any]:
    """A parser of one ``convert``-ible token, named ``what`` in its error."""

    def parse(key: str, token: str) -> Any:
        try:
            return convert(token)
        except ValueError:
            raise ScenarioError(f"{key}: expected {what}, got {token!r}") from None

    return parse


_parse_int = _number(int, "an integer")
_parse_float = _number(float, "a number")
_parse_complex = _number(complex, "a complex number")


_RELEASE_FLAGS = {
    "yes": True, "true": True, "1": True, "no": False, "false": False, "0": False
}


def _parse_holders(key: str, value: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, tok) for tok in value.split("+"))


def _parse_flag(key: str, value: str) -> bool:
    if value.lower() not in _RELEASE_FLAGS:
        raise ScenarioError(f"{key}: expected yes/no, got {value!r}")
    return _RELEASE_FLAGS[value.lower()]


def _parse_index_set(key: str, value: str) -> frozenset[int]:
    return frozenset(_parse_int(key, tok) for tok in value.split())


def _parse_secret(key: str, value: str) -> SecretSpec:
    tokens = value.split()
    if not tokens:
        raise ScenarioError(f"{key}: empty value")
    kind = tokens[0]
    if kind == "haar":
        if len(tokens) != 2:
            raise ScenarioError(f"{key}: haar takes exactly one seed")
        return SecretSpec("haar", haar_seed=_parse_int(key, tokens[1]))
    if kind == "demo" and len(tokens) != 3:
        raise ScenarioError(f"{key}: demo takes exactly two amplitudes")
    if kind == "explicit" and len(tokens) < 2:
        raise ScenarioError(f"{key}: explicit needs amplitudes")
    if kind not in ("demo", "explicit"):
        raise ScenarioError(f"{key}: unknown secret kind {kind!r}")
    return SecretSpec(kind, tuple(_parse_complex(key, tok) for tok in tokens[1:]))


def _format_float(x: float) -> str:
    return f"{x:.12g}"


def _format_exact(x: float) -> str:
    """``x`` to 12 digits if that reads back as ``x``, else in full."""
    return _format_float(x) if float(_format_float(x)) == x else repr(x)


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return _format_exact(z.real)
    imag = _format_exact(z.imag)
    return f"({_format_exact(z.real)}{'' if imag[0] == '-' else '+'}{imag}j)"


def _format_secret(spec: SecretSpec) -> str:
    if spec.kind == "haar":
        return f"haar {spec.haar_seed}"
    amps = " ".join(_format_complex(a) for a in spec.amplitudes)
    return f"{spec.kind} {amps}"


# -- the keys -------------------------------------------------------------------

# The default of a key the file must give, and of a policy map that the
# round-robin policy supplies when omitted.
_REQUIRED, _ROUND_ROBIN = object(), object()


class _Syntax(NamedTuple):
    """How a key's value is read, ``parse(key, text)``, and written, and the
    value the key takes when omitted."""

    parse: Callable[[str, str], Any]
    format: Callable[[Any], str]
    default: Any = _REQUIRED


def _map_syntax(
    parse_value: Callable[[str, str], Any], format_value: Callable[[Any], str]
) -> _Syntax:
    """``index:value`` pairs, written in index order; an empty map or a
    repeated index is an error."""

    def parse(key: str, text: str) -> dict[int, Any]:
        result: dict[int, Any] = {}
        for pair in text.split():
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

    def format(entries: Mapping[int, Any]) -> str:
        return " ".join(f"{i}:{format_value(v)}" for i, v in sorted(entries.items()))

    return _Syntax(parse, format, _ROUND_ROBIN)


_TEXT = _Syntax(lambda key, text: text, str)
_INT = _Syntax(_parse_int, str)

# Every key's syntax, in ScenarioConfig field order, which is the order keys
# are parsed (so the order errors are found in) and written.
_SYNTAX: dict[str, _Syntax] = {
    "name": _TEXT._replace(default="scenario"),
    "N": _INT,
    "n": _INT,
    "m": _INT,
    "mode": _TEXT,
    "threshold_k": _INT,
    "qubit_to_player": _map_syntax(_parse_int, str),
    "record_to_controller": _map_syntax(_parse_holders, lambda h: "+".join(map(str, h))),
    "release": _map_syntax(_parse_flag, lambda flag: "yes" if flag else "no"),
    "cooperating_players": _Syntax(
        _parse_index_set, lambda players: " ".join(map(str, sorted(players))), _ROUND_ROBIN
    ),
    "decoys": _INT._replace(default=0),
    "eve": _TEXT._replace(default="none"),
    "eve_probability": _Syntax(_parse_float, _format_exact, 0.0),
    "secret": _Syntax(_parse_secret, _format_secret),
    "trials": _INT,
    "master_seed": _INT,
}
