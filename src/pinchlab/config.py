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
    if not (isinstance(value, list) and len(value) == 2):
        raise UsageError(f"{name} must be [r_lo, r_hi], got {value!r}")
    return tuple(number(f"{name} entry", v) for v in value)


def _metric(name, value) -> tuple:
    """(kind, params); build_metric checks the params against the catalog."""
    if not (isinstance(value, dict) and "kind" in value and set(value) <= {"kind", "params"}
            and isinstance(value.get("params", {}), dict)):
        raise UsageError(f'{name} must be {{"kind": ..., "params": {{...}}}}, got {value!r}')
    return _text(f"{name} kind", value["kind"]), dict(value.get("params", {}))


_SWEEP_AXES = {"kind": _text, "s0": number, "epsilon": number}


def _sweep(name, value) -> dict:
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


#: config-file key -> converter(key, value), which returns the typed value or raises
#: a UsageError naming the key and the bad value; "metric" sets metric_kind and metric_params
_CONVERTERS = {
    "metric": _metric, "s0": number, "epsilon": number, "t_max": number,
    "n_samples": _count, "growth_window": _window, "chain_points": _count,
    "out_dir": _text, "suite": _text, "sweep": _sweep,
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
        """Reject out-of-range values, including NaN and inf, as usage errors; run at construction."""
        if not math.isfinite(self.s0):
            raise UsageError(f"s0 must be finite, got {self.s0}")
        if not 0.0 < self.epsilon <= 1.0 / 3.0 + 1e-12:
            raise UsageError(
                f"epsilon must lie in (0, 1/3], got {self.epsilon}"
            )
        if not 0 < self.t_max < math.inf:
            raise UsageError(f"t_max must be positive and finite, got {self.t_max}")
        if not 3 <= self.n_samples <= MAX_POINTS:
            raise UsageError(f"n_samples must lie in [3, {MAX_POINTS}], got {self.n_samples}")
        lo, hi = self.growth_window
        if not 0 < lo < hi < math.inf:
            raise UsageError(f"bad growth window {self.growth_window}")
        if self.suite not in SUITES:
            raise UsageError(
                f"unknown suite {self.suite!r}; valid: {', '.join(SUITES)}"
            )
        if not 2 <= self.chain_points <= MAX_POINTS:
            raise UsageError(f"chain_points must lie in [2, {MAX_POINTS}], got {self.chain_points}")
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
        unknown = set(doc) - set(_CONVERTERS)
        if unknown:
            raise UsageError(
                f"unknown config key(s) {sorted(unknown)}; valid: {sorted(_CONVERTERS)}"
            )
        kwargs = {key: _CONVERTERS[key](key, value) for key, value in doc.items()}
        if "metric" in kwargs:
            kwargs["metric_kind"], kwargs["metric_params"] = kwargs.pop("metric")
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Apply non-None overrides (CLI flags beat config-file values)."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)
