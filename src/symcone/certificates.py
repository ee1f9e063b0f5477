"""Certificate records shared by the cone, model, and composite audits."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ConeCertificate:
    """Outcome of one check.

    ``samples`` counts what the check ran over: its sampled draws, or the
    basis cases of a check decided on the basis. ``worst_residual`` is the
    extreme value the check observed (sign convention per check; more
    negative or larger means worse), and ``witnesses`` holds coordinate
    vectors of any violating samples, so a failure is always concrete: a
    sampled witness replays from ``seed``, the seed the check drew from, and
    a basis-decided one is a tuple of basis elements. ``seed`` is None when
    the check drew nothing.
    """

    check_name: str
    passed: bool
    samples: int
    tol: float
    worst_residual: float
    seed: int | None = None
    witnesses: list[list[float]] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check_name,
            "passed": bool(self.passed),
            "samples": int(self.samples),
            "seed": None if self.seed is None else int(self.seed),
            "tol": float(self.tol),
            "worst_residual": float(self.worst_residual),
            "witnesses": [[float(v) for v in w] for w in self.witnesses],
            "details": _plain(self.details),
        }


def _require_draws(count: int, name: str = "samples") -> None:
    """Refuse a sampled check that would draw nothing: over no draws it
    certifies nothing, so it must not pass."""
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def _plain(value: Any) -> Any:
    """Recursively coerce numpy scalars and arrays into JSON-safe values."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
