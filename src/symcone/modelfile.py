"""Structured input files describing systems to certify.

A model file is UTF-8 JSON with a schema version, a list of named
systems, and per-system directives: an algebra descriptor with a test mode
(sampled frames or explicit outcome coordinates), optional extra states,
an optional composite directive referring to two earlier systems, and an
optional map of certificate names whose failure is expected. Parsing is
strict and errors carry line/column positions where the underlying reader
provides them, or a record path otherwise. The package reads model files
and writes none.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .algebra import AlgebraDescriptor, Family, make_algebra

__all__ = [
    "SCHEMA_VERSION",
    "ModelFileError",
    "SystemSpec",
    "ModelFileSpec",
    "parse_model_text",
    "parse_model_file",
]

SCHEMA_VERSION = 1


class ModelFileError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


@dataclass
class SystemSpec:
    name: str
    algebra: AlgebraDescriptor | None = None
    test_mode: str = "sampled"  # "sampled" | "explicit"
    test_count: int = 3
    test_seed: int = 0
    explicit_tests: list[list[list[float]]] | None = None
    states: list[list[float]] = field(default_factory=list)
    composite_parts: tuple[str, str] | None = None
    expect: dict[str, str] = field(default_factory=dict)

    @property
    def is_composite(self) -> bool:
        return self.composite_parts is not None


@dataclass
class ModelFileSpec:
    systems: list[SystemSpec]
    name: str | None = None


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ModelFileError(f"{path}: {message}")


def _is_finite_number(x) -> bool:
    """A JSON number that is a finite double: not NaN, Infinity or 1e400."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer literal beyond the double range
        return False


def _fields(record, allowed, path: str) -> dict:
    """``record`` itself, once it is an object whose keys are all ``allowed``."""
    _require(isinstance(record, dict), path, "expected an object")
    for key in record:
        _require(key in allowed, f"{path}.{key}", "unknown field")
    return record


def _nonnegative_int(value, path: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 0,
        path,
        "expected a nonnegative integer",
    )
    return value


def _coord_matrix(value, path: str, dim: int) -> list[list[float]]:
    """Rows of ``dim`` finite coordinates each."""
    _require(isinstance(value, list) and value, path, "expected a nonempty array")
    rows = []
    for i, row in enumerate(value):
        _require(
            isinstance(row, list) and row,
            f"{path}[{i}]",
            "expected a nonempty coordinate array",
        )
        _require(
            all(_is_finite_number(x) for x in row),
            f"{path}[{i}]",
            "coordinates must be finite numbers",
        )
        _require(len(row) == len(value[0]), f"{path}[{i}]", "ragged coordinate array")
        rows.append([float(x) for x in row])
    width = len(rows[0])
    _require(
        width == dim, path, f"coordinate length {width} does not match dimension {dim}"
    )
    return rows


def _algebra(record, path: str) -> AlgebraDescriptor:
    """The descriptor of an algebra record, the inverse of
    ``algebra.descriptor_to_record``: a direct sum takes ``family`` and
    ``summands``, any other family ``family`` and ``size``."""
    _require(
        isinstance(record, dict) and "family" in record,
        path,
        f"malformed algebra record: {record!r}",
    )
    family = record["family"]
    is_sum = family == Family.SUM.value
    _fields(record, ("family", "summands" if is_sum else "size"), path)
    if is_sum:
        summands = record.get("summands")
        _require(
            isinstance(summands, list) and summands,
            path,
            "direct sum record requires a non-empty summand list",
        )
        return make_algebra(
            family,
            summands=tuple(
                _algebra(s, f"{path}.summands[{k}]") for k, s in enumerate(summands)
            ),
        )
    try:
        return make_algebra(family, record.get("size"))
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None


def _parse_system(record, idx: int) -> SystemSpec:
    path = f"systems[{idx}]"
    _fields(record, ("name", "algebra", "tests", "states", "composite", "expect"), path)
    name = record.get("name")
    _require(isinstance(name, str) and name != "", f"{path}.name", "expected a nonempty string")

    expect = record.get("expect", {})
    _require(isinstance(expect, dict), f"{path}.expect", "expected an object")
    for check, verdict in expect.items():
        _require(
            verdict in ("pass", "fail"),
            f"{path}.expect.{check}",
            f"expected 'pass' or 'fail', got {verdict!r}",
        )

    if "composite" in record:
        _require(
            not {"algebra", "tests", "states"} & record.keys(),
            path,
            "a composite system takes no algebra, tests or states of its own",
        )
        comp = _fields(record["composite"], ("parts", "carrier"), f"{path}.composite")
        parts = comp.get("parts")
        _require(
            isinstance(parts, list)
            and len(parts) == 2
            and all(isinstance(p, str) for p in parts),
            f"{path}.composite.parts",
            "expected an array of two system names",
        )
        carrier = comp.get("carrier", "candidate")
        _require(
            carrier == "candidate",
            f"{path}.composite.carrier",
            f"only the 'candidate' carrier is supported, got {carrier!r}",
        )
        return SystemSpec(
            name=name,
            composite_parts=(parts[0], parts[1]),
            expect=dict(expect),
        )

    _require("algebra" in record, f"{path}.algebra", "missing algebra descriptor")
    algebra = _algebra(record["algebra"], f"{path}.algebra")
    spec = SystemSpec(name=name, algebra=algebra, expect=dict(expect))

    tests = record.get("tests", {"mode": "sampled"})
    _require(isinstance(tests, dict), f"{path}.tests", "expected an object")
    mode = tests.get("mode", "sampled")
    if mode == "sampled":
        _fields(tests, ("mode", "count", "seed"), f"{path}.tests")
        spec.test_count = _nonnegative_int(tests.get("count", 3), f"{path}.tests.count")
        spec.test_seed = _nonnegative_int(tests.get("seed", 0), f"{path}.tests.seed")
    elif mode == "explicit":
        _fields(tests, ("mode", "outcomes"), f"{path}.tests")
        raw = tests.get("outcomes")
        _require(
            isinstance(raw, list) and raw,
            f"{path}.tests.outcomes",
            "expected a nonempty array of tests",
        )
        spec.test_mode = "explicit"
        spec.explicit_tests = [
            _coord_matrix(t, f"{path}.tests.outcomes[{k}]", algebra.dim)
            for k, t in enumerate(raw)
        ]
    else:
        raise ModelFileError(f"{path}.tests.mode: unknown mode {mode!r}")

    if "states" in record:
        spec.states = _coord_matrix(record["states"], f"{path}.states", algebra.dim)
    return spec


def parse_model_text(text: str) -> ModelFileSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(exc.msg, line=exc.lineno, col=exc.colno) from exc
    _require(isinstance(data, dict), "$", "top level must be an object")
    version = data.get("schema_version")
    _require(
        version == SCHEMA_VERSION,
        "$.schema_version",
        f"expected {SCHEMA_VERSION}, got {version!r}",
    )
    _fields(data, ("schema_version", "name", "systems"), "$")
    name = data.get("name")
    if name is not None:
        _require(isinstance(name, str), "$.name", "expected a string")
    systems_raw = data.get("systems")
    _require(
        isinstance(systems_raw, list) and systems_raw,
        "$.systems",
        "expected a nonempty array",
    )
    systems = [_parse_system(rec, i) for i, rec in enumerate(systems_raw)]
    seen: set[str] = set()
    plain: set[str] = set()  # the non-composite names among ``seen``
    for i, sys_spec in enumerate(systems):
        _require(
            sys_spec.name not in seen,
            f"systems[{i}].name",
            f"duplicate system name {sys_spec.name!r}",
        )
        if sys_spec.is_composite:
            for part in sys_spec.composite_parts:
                _require(
                    part in plain,
                    f"systems[{i}].composite.parts",
                    f"part {part!r} must name an earlier non-composite system",
                )
        else:
            plain.add(sys_spec.name)
        seen.add(sys_spec.name)
    return ModelFileSpec(systems=systems, name=name)


def parse_model_file(path) -> ModelFileSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_model_text(text)
