"""Scenario configuration: one JSON document, overridable by CLI flags."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import UsageError

SUITES = ("identities", "monotonicity", "decay", "chain", "all")

#: largest n_samples and chain_points, checked before any array is allocated
MAX_POINTS = 10**6


def number(name, value) -> float:
    """A JSON int or float (not a bool, not a string) as a float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise UsageError(f"{name} must be a number, got {value!r}")


def _count(name, value) -> int:
    """An int, or a float with an integral value, as an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _text(name, value) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{name} must be a string, got {value!r}")
    return value


def _window(name, value) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise UsageError(f"{name} must be [r_lo, r_hi], got {value!r}")
    return tuple(number(f"{name} entry", v) for v in value)


def _metric(name, value) -> tuple:
    """(kind, params); build_metric checks the params against the catalog."""
    if not (isinstance(value, dict) and "kind" in value and set(value) <= {"kind", "params"}
            and isinstance(value.get("params", {}), dict)):
        raise UsageError(f'{name} must be {{"kind": ..., "params": {{...}}}}, got {value!r}')
    return _text(f"{name} kind", value["kind"]), dict(value.get("params", {}))


_SWEEP_AXES = {"kind": _text, "s0": number, "epsilon": number}


def _sweep(name, value) -> Optional[dict]:
    if value is None:  # no sweep section
        return None
    if not isinstance(value, dict):
        raise UsageError(f"{name} must be a JSON object of parameter lists, got {value!r}")
    for axis, values in value.items():
        if axis not in _SWEEP_AXES:
            raise UsageError(f"unknown sweep axis {axis!r}; valid: {sorted(_SWEEP_AXES)}")
        if not (isinstance(values, list) and values):
            raise UsageError(f"sweep axis {axis!r} must be a list of at least one value, "
                             f"got {values!r}")
    return {axis: [_SWEEP_AXES[axis](f"sweep axis {axis!r} value", v) for v in values]
            for axis, values in value.items()}


#: ScenarioConfig field -> (convert, holds, message): ``convert(field, value)`` returns the typed
#: value or raises a UsageError naming the field and the value, ``holds`` tests the typed value's
#: range, and ``message.format(value)`` says why it fails.  build_metric checks the metric fields.
_FIELDS = {
    "s0": (number, math.isfinite, "s0 must be finite, got {}"),
    "epsilon": (number, lambda v: 0.0 < v <= 1.0 / 3.0 + 1e-12, "epsilon must lie in (0, 1/3], got {}"),
    "t_max": (number, lambda v: 0 < v < math.inf, "t_max must be positive and finite, got {}"),
    "n_samples": (_count, lambda v: 3 <= v <= MAX_POINTS,
                  f"n_samples must lie in [3, {MAX_POINTS}], got {{}}"),
    "growth_window": (_window, lambda w: 0 < w[0] < w[1] < math.inf, "bad growth window {}"),
    "chain_points": (_count, lambda v: 2 <= v <= MAX_POINTS,
                     f"chain_points must lie in [2, {MAX_POINTS}], got {{}}"),
    "out_dir": (_text, lambda v: True, ""),
    "suite": (_text, SUITES.__contains__, "unknown suite {!r}; valid: " + ", ".join(SUITES)),
    "sweep": (_sweep, lambda v: True, ""),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run needs, with reproducible defaults, checked at construction.

    The pinching constant must lie in (0, 1/3]: tracing Ric >= eps R g
    forces eps <= 1/3 wherever the scalar curvature is positive, so
    larger values can never be satisfied by a curved profile.
    """

    metric_kind: str = "flat"
    metric_params: dict = field(default_factory=dict)
    s0: float = 1.0
    epsilon: float = 1.0 / 3.0
    t_max: float = 8.0
    n_samples: int = 2001
    growth_window: tuple = (100.0, 1.0e4)
    chain_points: int = 20
    out_dir: str = "."
    suite: str = "all"
    sweep: Optional[dict] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ScenarioConfig":
        """Convert each field by its ``_FIELDS`` rule and keep the typed value; a value of the
        wrong type or out of range, NaN and inf included, is a usage error.  Runs at construction."""
        for name, (convert, holds, message) in _FIELDS.items():
            value = convert(name, getattr(self, name))
            if not holds(value):
                raise UsageError(message.format(value))
            object.__setattr__(self, name, value)  # frozen: the typed value replaces the given one
        return self

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON, bad UTF-8 or an int past Python's digit limit
            raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"config {path} must be a JSON object")
        keys = {"metric", *_FIELDS}
        if not set(doc) <= keys:
            raise UsageError(f"unknown config key(s) {sorted(set(doc) - keys)}; valid: {sorted(keys)}")
        if "metric" in doc:
            doc["metric_kind"], doc["metric_params"] = _metric("metric", doc.pop("metric"))
        return cls(**doc)

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Apply non-None overrides (CLI flags beat config-file values)."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)
