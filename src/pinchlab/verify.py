"""Verification suites behind ``pinchlab verify``, as two check tables.

A row names the check, a measure function and the row's contract, its
tolerance: the measure returns the measured value only, a float, a dict of
floats keyed by sub-check (the row then holds one tolerance per sub-check),
or a ``Reading``, whose ``ok`` gives the verdict of a row with tolerance
None.  The two tables are the only place that states a contract, and
``tests/test_contracts.py`` pins them.  Gated rows add a hypothesis gate
returning None when the check applies, else ``(status, reason)``: UNMET
keeps the measurement, SKIP drops it.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import asymptotics, functionals, metrics, potential
from .config import ScenarioConfig
from .errors import NumericError
from .functionals import SIXTEEN_PI
from .quadrature import lin_grid, log_grid
from .stencils import nodes, second_from, step

#: level-grid spacing of the verify series; its five-point derivatives err O(dt^4), at worst
#: 2.3e-6 against 1e-4 (dF_explicit_match through a C^2 blend, over 450 random scenarios)
SUITE_DT = 1e-3


@dataclass(frozen=True)
class SuiteResult:
    """One verification check: name, verdict, and the measured number."""

    name: str
    status: str  # PASS / FAIL / UNMET / SKIP
    measured: Optional[float]
    tolerance: Optional[float]
    runtime_s: float
    note: str = ""

    def line(self) -> str:
        meas = "n/a" if self.measured is None else f"{self.measured:.3e}"
        tol = "n/a" if self.tolerance is None else f"{self.tolerance:.0e}"
        note = f"  [{self.note}]" if self.note else ""
        return f"{self.status:<5} {self.name:<44} measured={meas:<10} tol={tol:<6} ({self.runtime_s:.2f}s){note}"

    def to_json_dict(self) -> dict:
        # runtimes stay out of files so outputs are byte-reproducible; the fields are scalars, so no deep copy
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "runtime_s"}


class Reading(NamedTuple):
    """A measurement with a note, or its own verdict; ``ok=None`` means measured <= the row's tol."""

    measured: Optional[float]
    ok: Optional[bool] = None
    note: str = ""


class Check(NamedTuple):
    """One row of a check table."""

    suite: str
    name: str
    measure: Callable
    tol: Union[float, dict, None]  # one per sub-check of a dict measure; None where the Reading decides
    gate: Optional[Callable] = None
    kind: Optional[str] = None  # run only on this metric kind


def _run_check(name, check: Check, *args) -> SuiteResult:
    start = time.perf_counter()
    unmet = check.gate(*args) if check.gate else None
    value = check.measure(*args)
    runtime = time.perf_counter() - start
    tol = check.tol
    if isinstance(value, dict):
        # failing sub-checks rank first, so the one reported decides the verdict, a NaN included
        sub, measured = max(value.items(), key=lambda kv: (not kv[1] <= tol[kv[0]], kv[1] / tol[kv[0]]))
        tol, ok, note = tol[sub], None, (f"worst sub-check: {sub}" if len(value) > 1 else "")
    else:
        measured, ok, note = value if isinstance(value, Reading) else Reading(value)
    if unmet:
        status, note = unmet
        if status == "SKIP":
            measured = None
    else:
        status = "PASS" if (measured <= tol if ok is None else ok) else "FAIL"
    return SuiteResult(name, status, measured, tol, runtime, note)


# ---------------------------------------------------------------------------
# Scenario bundles
# ---------------------------------------------------------------------------

class _Scenario(asymptotics.Scenario):
    """``asymptotics.Scenario`` at the suite's level spacing, with the grids the identity rows
    read (``curvature_grid``, ``interior_levels``) and the reports that several checks read."""

    def levels(self) -> int:
        # sol.t_max, not config.t_max: a table may end below the requested level
        return max(2001, round(self.sol.t_max / SUITE_DT) + 1)

    def curvature_grid(self, n=200):
        lo, hi = self.series.s[[asymptotics.pinching_window(self.series), -1]]
        return log_grid(max(lo * 0.5, 1e-3, self.metric.domain_start), hi, n)

    def interior_levels(self, n=25):
        """Indices of the n series levels nearest 5% .. 95% of t_max."""
        return np.rint(lin_grid(0.05, 0.95, n) * (len(self.series.t) - 1)).astype(int)

    @cached_property
    def monotonicity(self):
        return functionals.check_monotonicity(self.series)

    @cached_property
    def pinching(self):
        return asymptotics.series_pinching(self.series, self.config.epsilon)

    @cached_property
    def decay(self):
        return asymptotics.decay_check(self.series, self.config.epsilon)


# ---------------------------------------------------------------------------
# Measures and gates
# ---------------------------------------------------------------------------

def _trace_identity(sc):
    p = metrics.curvature_at(sc.metric, sc.curvature_grid())
    resid = np.abs(p.scalar - (p.ric_rad + 2.0 * p.ric_tan)) / np.maximum(1.0, np.abs(p.scalar))
    return float(resid.max())


def _curvature_fd_oracle(sc):
    metric = sc.metric
    s = sc.curvature_grid(60)
    h = np.maximum(2e-3 * s, 2e-5)  # 2e-3 ~ eps^(1/6); the floor keeps roundoff ~5 eps/h^2 under 1e-5
    keep = (s - 2 * h > metric.domain_start) & (s + 2 * h <= metric.domain_end)
    for b in metric.breakpoints:
        keep &= np.abs(s - b) >= 5 * h
    exact = metrics.curvature_at(metric, s[keep])
    fd = metrics.finite_difference_curvature_oracle(metric, s[keep], h[keep])
    worst = max(np.abs(getattr(exact, k) - getattr(fd, k)).max(initial=0.0)
                for k in ("k_rad", "k_tan", "ric_rad", "ric_tan", "scalar"))
    return float(worst)


def _potential_identities(sc):
    sol, ser, k = sc.sol, sc.series, sc.interior_levels(12)
    s, gw, seams = ser.s[k], ser.grad_w[k], sc.metric.breakpoints
    if not np.all(gw * gw >= np.finfo(float).tiny):  # w'' and the residual would underflow with it
        raise NumericError(f"{sc.metric.label}: |grad w|^2 underflows at the level radii up to s={s.max():g}")
    # Delta w = |grad w|^2 in radial form; w'' needs the larger step, its roundoff is eps / h^2
    hw = step(s, 0.01, sol.s0, seams)
    resid = second_from(sol.w(nodes(s, hw)), hw) + ser.H[k] * gw - gw * gw
    # one u' serves the flux and |grad w| = -u'/u  (h = 0.003 s keeps the O(h^4) truncation ~3e-10)
    du = sol.du_stencil(s)
    # u takes values in (0, 1]; uvals[1:] is u(s)
    uvals = sol.u(np.concatenate([[sol.s0], s]))
    return {
        "harmonic_flux": float(sol.flux_residual(s, du).max()),  # (f^2 u')' = 0
        "w_equation": float(np.abs(resid / (gw * gw)).max()),
        "gradw_consistency": float(np.abs(-du / uvals[1:] / gw - 1.0).max()),
        "u_range": float(max(uvals.max() - 1.0, -uvals.min(), 0.0)),
    }


def _level_roundtrip(sc):
    k = sc.interior_levels(40)
    t, s = sc.series.t[k], sc.series.s[k]
    t_back = sc.sol.w(s)
    s_back = sc.sol.s_of_t(t_back)
    return float(max(np.abs(t_back - t).max(), np.abs(s_back / s - 1.0).max()))


def _functional_bounds(sc):
    ser = sc.series
    s = ser.s[sc.interior_levels(1)[0]]  # the level 0.05 t_max
    return {"flux_le_willmore_quarter": float((ser.F - ser.willmore / 4.0).max()),
            "ncap_flux_agreement": float(sc.sol.flux_residual(s, sc.sol.du_stencil(s)))}


def _scalar_flatness(sc):
    with np.errstate(all="ignore"):
        scalar = metrics.curvature_at(sc.metric, lin_grid(0.0, 100.0, 400)).scalar
    if not np.all(np.isfinite(scalar)):
        raise NumericError(f"{sc.metric.label}: the horizon curvature, of order 1/m^2, passes the float range")
    return float(np.abs(scalar).max())


def _unless(holds, status, reason):
    return None if holds else (status, reason)


def _decay_gate(sc):
    return (_unless(sc.decay.t_tilde is not None, "SKIP", "threshold not reached in the window")
            or _unless(sc.pinching.passed, "UNMET",
                       f"pinching fails on the window; bound held: {sc.decay.passed}"))


def _decay_estimate(sc):
    fit = sc.decay
    note = (f"t_tilde={fit.t_tilde:.3g}, constant={fit.decay_constant:.3g}"
            if fit.t_tilde is not None else "")
    return Reading(fit.decay_rate, fit.passed, note)


def _refutation_soundness(sc):
    rep = asymptotics.judge(sc, sc.pinching, sc.decay)
    return Reading(None, not rep.conclusion.startswith("CONTRADICTION"), rep.conclusion)


def _li_yau_exponent(kind, params, expect):
    domain = potential.ExteriorDomain(metrics.build_metric(kind, params), 1.0)
    slope = asymptotics.li_yau_fit(domain, 10.0, 1000.0)
    return Reading(abs(slope / expect - 1.0), note=f"expected {expect}")


def _small_sphere_willmore():
    """Boundary Willmore energy of small spheres in the cap: 16 pi cos(s0)^2,
    below 16 pi and decreasing in s0; a broken property counts as 1."""
    cap = metrics.build_metric("sphere_cap_blend")
    radii = (0.05, 0.1, 0.2)
    bws = [functionals.boundary_willmore(potential.ExteriorDomain(cap, s0)) for s0 in radii]
    worst = max(abs(bw.value - SIXTEEN_PI * math.cos(s0) ** 2) for s0, bw in zip(radii, bws))
    if not all(bw.below_threshold for bw in bws) or not bws[0].value > bws[1].value > bws[2].value:
        worst = max(worst, 1.0)
    return worst


# ---------------------------------------------------------------------------
# Check tables
# ---------------------------------------------------------------------------

SCENARIO_CHECKS = (
    Check("identities", "trace_identity", _trace_identity, 1e-12),
    Check("identities", "curvature_fd_oracle", _curvature_fd_oracle, 1e-5),
    Check("identities", "potential_identities", _potential_identities,
          {"harmonic_flux": 1e-6, "w_equation": 1e-6, "gradw_consistency": 1e-9, "u_range": 1e-12}),
    Check("identities", "capacity_scaling", lambda sc: functionals.capacity_scaling_check(sc.sol, sc.series), 1e-6),
    Check("identities", "integral_geometry",
          lambda sc: {"coarea": asymptotics.coarea_check(sc.series, sc.interior_levels()),
                      "holder_saturation": asymptotics.holder_chain_check(sc.sol, sc.series)},
          {"coarea": 1e-4, "holder_saturation": 1e-6}),
    Check("identities", "level_roundtrip", _level_roundtrip, 1e-10),
    Check("identities", "functional_bounds", _functional_bounds,
          {"flux_le_willmore_quarter": 1e-9, "ncap_flux_agreement": 1e-9}),
    Check("identities", "scalar_flatness", _scalar_flatness, 1e-8, kind="schwarzschild"),
    Check("monotonicity", "F_monotone", lambda sc: sc.monotonicity.max_increase, 1e-7,
          lambda sc: _unless(sc.monotonicity.hypothesis_met, "UNMET",
                             "Ric >= 0 fails on the window; monotonicity not implied")),
    Check("monotonicity", "dF_explicit_match", lambda sc: sc.monotonicity.max_derivative_error, 1e-4),
    Check("monotonicity", "G_ode", lambda sc: functionals.check_G_ode(sc.series), 1e-4),
    Check("monotonicity", "G_bounds", lambda sc: float(np.maximum(-sc.series.G, sc.series.G - sc.series.F).max()),
          1e-9, lambda sc: _unless(sc.monotonicity.hypothesis_met, "UNMET",
                                   "Ric >= 0 fails on the window; 0 <= G <= F not implied")),
    Check("decay", "decay_estimate", _decay_estimate, None, _decay_gate),
    Check("decay", "genus_zero_pointwise",
          lambda sc: Reading(sc.decay.max_pointwise_violation, note=f"{sc.decay.n_pointwise_checked} levels checked"),
          1e-9, lambda sc: _unless(sc.decay.n_pointwise_checked, "SKIP", "no pinched levels in the window")),
    Check("chain", "refutation_soundness", _refutation_soundness, None),
)

#: checks on fixed catalog metrics, run once per verify pass
CATALOG_CHECKS = (
    Check("chain", "power/li_yau_exponent", partial(_li_yau_exponent, "power", {"beta": 0.8}, -0.6), 2e-2),
    Check("chain", "flat/li_yau_exponent", partial(_li_yau_exponent, "flat", {}, -1.0), 2e-2),
    Check("chain", "sphere_cap_blend/small_sphere_willmore", _small_sphere_willmore, 1e-7),
)


def run_verify(cfg: ScenarioConfig, stream=None):
    """Run the selected verification suite; returns (results, exit_code).

    The default flat configuration runs the whole default catalog;
    any other metric runs on its own.
    """
    stream = stream or sys.stdout
    if cfg.metric_kind != "flat" or cfg.metric_params:
        catalog = [(cfg.metric_kind, metrics.build_metric(cfg.metric_kind, cfg.metric_params))]
    else:
        catalog = metrics.default_catalog()
    want, capped = cfg.suite, cfg.with_overrides(t_max=min(cfg.t_max, 5.0))
    results = []
    for name, metric in catalog:
        sc = _Scenario(metric, cfg.s0, capped)
        for check in SCENARIO_CHECKS:
            if want in (check.suite, "all") and check.kind in (None, metric.kind):
                results.append(_run_check(f"{name}/{check.name}", check, sc))
    for check in CATALOG_CHECKS:
        if want in (check.suite, "all"):
            results.append(_run_check(check.name, check))
    for res in results:
        print(res.line(), file=stream)
    n_fail = sum(1 for r in results if r.status == "FAIL")
    print(f"verify[{want}]: {len(results)} checks, {n_fail} failed", file=stream)
    return results, (1 if n_fail else 0)
