"""Structured input files describing systems to certify.

A model file is JSON with a schema version, a list of named systems, and
per-system directives: an algebra descriptor with a test mode (sampled
frames or explicit outcome coordinates), optional extra states, an optional
composite directive referring to two earlier systems, and an optional map
of certificate names whose failure is expected. Parsing is strict and
errors carry line/column positions where the underlying reader provides
them, or a record path otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .algebra import (
    AlgebraDescriptor,
    descriptor_to_record,
    record_to_descriptor,
)

__all__ = [
    "SCHEMA_VERSION",
    "ModelFileError",
    "SystemSpec",
    "ModelFileSpec",
    "parse_model_text",
    "parse_model_file",
    "spec_to_record",
    "serialize_model_spec",
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
    schema_version: int = SCHEMA_VERSION


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ModelFileError(f"{path}: {message}")


def _is_finite_number(x) -> bool:
    """A JSON number that is a finite double: not NaN, Infinity or 1e400."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer literal beyond the double range
        return False


def _coord_matrix(value, path: str) -> list[list[float]]:
    _require(isinstance(value, list) and value, path, "expected a nonempty array")
    rows = []
    width = None
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
        if width is None:
            width = len(row)
        _require(len(row) == width, f"{path}[{i}]", "ragged coordinate array")
        rows.append([float(x) for x in row])
    return rows


def _parse_system(record, idx: int) -> SystemSpec:
    path = f"systems[{idx}]"
    _require(isinstance(record, dict), path, "expected an object")
    name = record.get("name")
    _require(isinstance(name, str) and name != "", f"{path}.name", "expected a nonempty string")

    known = {"name", "algebra", "tests", "states", "composite", "expect"}
    for key in record:
        _require(key in known, f"{path}.{key}", "unknown field")

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
        comp = record["composite"]
        _require(isinstance(comp, dict), f"{path}.composite", "expected an object")
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
        for key in comp:
            _require(
                key in ("parts", "carrier"), f"{path}.composite.{key}", "unknown field"
            )
        return SystemSpec(
            name=name,
            composite_parts=(parts[0], parts[1]),
            expect=dict(expect),
        )

    _require("algebra" in record, f"{path}.algebra", "missing algebra descriptor")
    try:
        algebra = record_to_descriptor(record["algebra"], f"{path}.algebra")
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc

    spec = SystemSpec(name=name, algebra=algebra, expect=dict(expect))

    tests = record.get("tests", {"mode": "sampled"})
    _require(isinstance(tests, dict), f"{path}.tests", "expected an object")
    mode = tests.get("mode", "sampled")
    if mode == "sampled":
        count = tests.get("count", 3)
        seed = tests.get("seed", 0)
        _require(
            isinstance(count, int) and not isinstance(count, bool) and count >= 0,
            f"{path}.tests.count",
            "expected a nonnegative integer",
        )
        _require(
            isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
            f"{path}.tests.seed",
            "expected a nonnegative integer",
        )
        for key in tests:
            _require(
                key in ("mode", "count", "seed"), f"{path}.tests.{key}", "unknown field"
            )
        spec.test_mode = "sampled"
        spec.test_count = count
        spec.test_seed = seed
    elif mode == "explicit":
        raw = tests.get("outcomes")
        _require(
            isinstance(raw, list) and raw,
            f"{path}.tests.outcomes",
            "expected a nonempty array of tests",
        )
        for key in tests:
            _require(key in ("mode", "outcomes"), f"{path}.tests.{key}", "unknown field")
        spec.test_mode = "explicit"
        spec.explicit_tests = [
            _coord_matrix(t, f"{path}.tests.outcomes[{k}]") for k, t in enumerate(raw)
        ]
        for k, t in enumerate(spec.explicit_tests):
            for row in t:
                _require(
                    len(row) == algebra.dim,
                    f"{path}.tests.outcomes[{k}]",
                    f"coordinate length {len(row)} does not match dimension {algebra.dim}",
                )
    else:
        raise ModelFileError(f"{path}.tests.mode: unknown mode {mode!r}")

    if "states" in record:
        spec.states = _coord_matrix(record["states"], f"{path}.states")
        for row in spec.states:
            _require(
                len(row) == algebra.dim,
                f"{path}.states",
                f"coordinate length {len(row)} does not match dimension {algebra.dim}",
            )
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
    for key in data:
        _require(
            key in ("schema_version", "name", "systems"), f"$.{key}", "unknown field"
        )
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
    for i, sys_spec in enumerate(systems):
        _require(
            sys_spec.name not in seen,
            f"systems[{i}].name",
            f"duplicate system name {sys_spec.name!r}",
        )
        if sys_spec.is_composite:
            for part in sys_spec.composite_parts:
                _require(
                    part in seen,
                    f"systems[{i}].composite.parts",
                    f"part {part!r} must name an earlier non-composite system",
                )
        seen.add(sys_spec.name)
    return ModelFileSpec(systems=systems, name=name)


def parse_model_file(path) -> ModelFileSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read())


def spec_to_record(spec: ModelFileSpec) -> dict:
    systems = []
    for s in spec.systems:
        rec: dict = {"name": s.name}
        if s.is_composite:
            rec["composite"] = {
                "parts": list(s.composite_parts),
                "carrier": "candidate",
            }
        else:
            rec["algebra"] = descriptor_to_record(s.algebra)
            if s.test_mode == "sampled":
                rec["tests"] = {
                    "mode": "sampled",
                    "count": s.test_count,
                    "seed": s.test_seed,
                }
            else:
                rec["tests"] = {"mode": "explicit", "outcomes": s.explicit_tests}
            if s.states:
                rec["states"] = s.states
        if s.expect:
            rec["expect"] = dict(sorted(s.expect.items()))
        systems.append(rec)
    record: dict = {"schema_version": spec.schema_version}
    if spec.name is not None:
        record["name"] = spec.name
    record["systems"] = systems
    return record


def serialize_model_spec(spec: ModelFileSpec) -> str:
    """Canonical text form; serialize(parse(serialize(x))) == serialize(x)."""
    return json.dumps(spec_to_record(spec), indent=2, sort_keys=True) + "\n"
