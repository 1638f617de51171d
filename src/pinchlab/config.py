"""Scenario configuration: one JSON document, overridable by CLI flags."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from typing import Optional

from .errors import UsageError

SUITES = ("identities", "monotonicity", "decay", "chain", "all")

_CONFIG_KEYS = {
    "metric", "s0", "epsilon", "t_max", "n_samples", "growth_window",
    "chain_points", "out_dir", "suite", "sweep",
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run needs, with reproducible defaults.

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

    def validate(self) -> "ScenarioConfig":
        """Reject out-of-range values, including NaN and inf, as usage errors."""
        if not math.isfinite(self.s0):
            raise UsageError(f"s0 must be finite, got {self.s0}")
        if not 0.0 < self.epsilon <= 1.0 / 3.0 + 1e-12:
            raise UsageError(
                f"epsilon must lie in (0, 1/3], got {self.epsilon}"
            )
        if not 0 < self.t_max < math.inf:
            raise UsageError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n_samples < 3:
            raise UsageError("n_samples must be at least 3")
        lo, hi = self.growth_window
        if not 0 < lo < hi < math.inf:
            raise UsageError(f"bad growth window {self.growth_window}")
        if self.suite not in SUITES:
            raise UsageError(
                f"unknown suite {self.suite!r}; valid: {', '.join(SUITES)}"
            )
        if self.chain_points < 2:
            raise UsageError("chain_points must be at least 2")
        return self

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"config {path} must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise UsageError(
                f"unknown config key(s) {sorted(unknown)}; valid: {sorted(_CONFIG_KEYS)}"
            )
        kwargs = {}
        metric = doc.get("metric", {})
        if metric:
            if not isinstance(metric, dict) or "kind" not in metric:
                raise UsageError("config 'metric' must be {\"kind\": ..., \"params\": {...}}")
            kwargs["metric_kind"] = str(metric["kind"])
            kwargs["metric_params"] = dict(metric.get("params", {}))
        for key in ("s0", "epsilon", "t_max"):
            if key in doc:
                kwargs[key] = float(doc[key])
        for key in ("n_samples", "chain_points"):
            if key in doc:
                kwargs[key] = int(doc[key])
        if "growth_window" in doc:
            window = doc["growth_window"]
            if not (isinstance(window, (list, tuple)) and len(window) == 2):
                raise UsageError("growth_window must be [r_lo, r_hi]")
            kwargs["growth_window"] = (float(window[0]), float(window[1]))
        for key in ("out_dir", "suite"):
            if key in doc:
                kwargs[key] = str(doc[key])
        if "sweep" in doc:
            if not isinstance(doc["sweep"], dict):
                raise UsageError("sweep must be a JSON object of parameter lists")
            kwargs["sweep"] = doc["sweep"]
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Apply non-None overrides (CLI flags beat config-file values)."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)

    def to_dict(self) -> dict:
        """Full resolved configuration, echoed into summaries for reproducibility."""
        out = {}
        for f in dc_fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = list(val)
            out[f.name] = val
        return out
