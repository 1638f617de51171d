"""Verification suites behind ``pinchlab verify``, as two check tables.

A row names the check and gives a measure function returning a
``(measured, tol)`` pair, a dict of such pairs keyed by sub-check, or a
``Reading`` when the verdict is not ``measured <= tol``.  Gated rows add
a hypothesis gate returning None when the check applies, else
``(status, reason)``: UNMET keeps the measurement, SKIP drops it.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import asymptotics, functionals, metrics, potential
from .config import ScenarioConfig
from .functionals import SIXTEEN_PI
from .stencils import five_point_first, five_point_second

#: level-grid spacing needed for second-order differencing to resolve the
#: C^2 blend profile (its third derivative reaches ~3e3 in the transition)
SUITE_DT = 2.5e-4


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
        text = f"{self.status:<5} {self.name:<44} measured={meas:<10} tol={tol:<6} ({self.runtime_s:.2f}s)"
        if self.note:
            text += f"  [{self.note}]"
        return text

    def to_json_dict(self) -> dict:
        # runtimes stay out of files so outputs are byte-reproducible
        return {
            "name": self.name, "status": self.status,
            "measured": self.measured, "tolerance": self.tolerance,
            "note": self.note,
        }


class Reading(NamedTuple):
    """A measurement with its own verdict; ``ok=None`` means measured <= tol."""

    measured: Optional[float]
    tol: Optional[float]
    ok: Optional[bool] = None
    note: str = ""


class Check(NamedTuple):
    """One row of a check table."""

    suite: str
    name: str
    measure: Callable
    gate: Optional[Callable] = None
    kind: Optional[str] = None  # run only on this metric kind


def _run_check(name, check: Check, *args) -> SuiteResult:
    start = time.perf_counter()
    unmet = check.gate(*args) if check.gate else None
    value = check.measure(*args)
    runtime = time.perf_counter() - start
    if isinstance(value, dict):
        sub, (measured, tol) = max(value.items(), key=lambda kv: kv[1][0] / kv[1][1])
        ok = all(m <= t for m, t in value.values())
        note = f"worst sub-check: {sub}" if len(value) > 1 else ""
    else:
        measured, tol, ok, note = Reading(*value)
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

class _Scenario:
    """A metric plus its solved potential, densely sampled series and the
    reports that several checks read."""

    def __init__(self, metric, cfg: ScenarioConfig):
        self.metric = metric
        self.cfg = cfg
        s0 = float(cfg.s0)
        self.t_max = float(min(cfg.t_max, 5.0))
        self.domain = potential.ExteriorDomain(metric, s0)
        self.sol = potential.solve_potential(self.domain, t_max=self.t_max)
        n = max(2001, int(round(self.t_max / SUITE_DT)) + 1)
        self.series = functionals.build_series(self.sol, n=n)
        lo = s0 if s0 > metric.domain_start else float(self.sol.s_of_t(self.t_max / 400.0))
        self.s_window = (lo, float(self.series.s[-1]))

    def curvature_grid(self, n=200):
        return np.geomspace(max(self.s_window[0] * 0.5, 1e-3), self.s_window[1], n)

    def interior_levels(self, n=25):
        return np.linspace(0.05, 0.95, n) * self.t_max

    @cached_property
    def monotonicity(self):
        return functionals.check_monotonicity(self.series)

    @cached_property
    def decay(self):
        pinch = metrics.check_pinching(self.metric, self.cfg.epsilon, self.s_window, 400)
        return asymptotics.decay_check(self.series, self.cfg.epsilon, pinch)


# ---------------------------------------------------------------------------
# Measures and gates
# ---------------------------------------------------------------------------

def _trace_identity(sc):
    _, _, _, ric_rad, ric_tan, scalar = metrics._curvature_arrays(sc.metric, sc.curvature_grid())
    resid = np.abs(scalar - (ric_rad + 2.0 * ric_tan)) / np.maximum(1.0, np.abs(scalar))
    return float(resid.max()), 1e-12


def _curvature_fd_oracle(sc):
    worst = 0.0
    for s in sc.curvature_grid(60):
        h = max(1e-3, 1e-4 * s)
        if any(abs(s - b) < 5 * h for b in sc.metric.breakpoints):
            continue
        if s - 2 * h <= sc.metric.domain_start:
            continue
        a = metrics.curvature_at(sc.metric, float(s))
        b = metrics.finite_difference_curvature_oracle(sc.metric, float(s), h)
        worst = max(worst, abs(a.k_rad - b.k_rad), abs(a.k_tan - b.k_tan),
                    abs(a.ric_rad - b.ric_rad), abs(a.ric_tan - b.ric_tan),
                    abs(a.scalar - b.scalar))
    return worst, 1e-5


def _potential_identities(sc):
    sol = sc.sol
    s = np.atleast_1d(sol.s_of_t(sc.interior_levels(12)))
    f = sc.metric.f(s)
    gw = np.atleast_1d(sol.grad_w(s))
    # radial harmonic flux (f^2 u')' = 0
    du = five_point_first(sol.u, s, 0.01 * s)
    flux = float(np.abs(f**2 * du * (1.0 / sol.ncap) + 1.0).max())
    # Delta w = |grad w|^2 in radial form
    d2w = five_point_second(sol.w, s, 0.01 * s)
    resid = d2w + (2.0 * sc.metric.df(s) / f) * gw - gw * gw
    # |grad w| = -u'/u  (h = 0.003 s keeps the O(h^4) truncation ~3e-10)
    du2 = five_point_first(sol.u, s, 0.003 * s)
    # u takes values in (0, 1]
    uvals = np.atleast_1d(sol.u(np.concatenate([[sol.s0], s])))
    return {
        "harmonic_flux": (flux, 1e-6),
        "w_equation": (float(np.abs(resid / (gw * gw)).max()), 1e-6),
        "gradw_consistency": (float(np.abs(-du2 / np.atleast_1d(sol.u(s)) / gw - 1.0).max()), 1e-9),
        "u_range": (float(max(uvals.max() - 1.0, -uvals.min(), 0.0)), 1e-12),
    }


def _integral_geometry(sc):
    t = sc.interior_levels()
    return {
        "coarea": (asymptotics.coarea_check(sc.sol, t), 1e-4),
        "holder_saturation": (asymptotics.holder_chain_check(sc.sol, t), 1e-6),
    }


def _level_roundtrip(sc):
    t = sc.interior_levels(40)
    s = np.atleast_1d(sc.sol.s_of_t(t))
    t_back = np.atleast_1d(sc.sol.w(s))
    s_back = np.atleast_1d(sc.sol.s_of_t(t_back))
    return float(max(np.abs(t_back - t).max(), np.abs(s_back / s - 1.0).max())), 1e-10


def _functional_bounds(sc):
    ser = sc.series
    s_chk = float(np.atleast_1d(sc.sol.s_of_t(0.05 * sc.t_max))[0])
    flux = -sc.metric.f(s_chk) ** 2 * five_point_first(sc.sol.u, np.array([s_chk]), np.array([0.003 * s_chk]))[0]
    return {
        "flux_le_willmore_quarter": (float((ser.F - ser.willmore / 4.0).max()), 1e-9),
        "ncap_flux_agreement": (float(abs(flux / sc.sol.ncap - 1.0)), 1e-9),
    }


def _scalar_flatness(sc):
    _, _, _, _, _, scalar = metrics._curvature_arrays(sc.metric, np.linspace(0.0, 100.0, 400))
    return float(np.abs(scalar).max()), 1e-8


def _unless(holds, status, reason):
    return None if holds else (status, reason)


def _decay_gate(sc):
    return (_unless(sc.decay.threshold_reached, "SKIP", "threshold not reached in the window")
            or _unless(sc.decay.hypothesis_met, "UNMET",
                       f"pinching fails on the window; bound held: {sc.decay.passed}"))


def _decay_estimate(sc):
    fit = sc.decay
    note = (f"t_tilde={fit.t_tilde:.3g}, constant={fit.decay_constant:.3g}"
            if fit.threshold_reached else "")
    return Reading(fit.decay_rate, None, fit.passed, note)


def _refutation_soundness(sc):
    rep = asymptotics.refute(sc.domain, sc.cfg)
    return Reading(None, None, not rep.conclusion.startswith("CONTRADICTION"), rep.conclusion)


def _li_yau_exponent(kind, params, expect):
    metric = metrics.build_metric(kind, params)
    sol = potential.solve_potential(potential.ExteriorDomain(metric, 1.0),
                                    t_max=2.0, s_max=1000.0)
    slope = asymptotics.li_yau_fit(sol, 10.0, 1000.0)
    return Reading(abs(slope / expect - 1.0), 2e-2, note=f"expected {expect}")


def _small_sphere_willmore():
    """Boundary Willmore energy of small spheres in the cap: 16 pi cos(s0)^2,
    below 16 pi and decreasing in s0; a broken property counts as 1."""
    cap = metrics.build_metric("sphere_cap_blend")
    radii = (0.05, 0.1, 0.2)
    bws = [functionals.boundary_willmore(potential.solve_potential(
        potential.ExteriorDomain(cap, s0), t_max=1.0)) for s0 in radii]
    worst = max(abs(bw.value - SIXTEEN_PI * math.cos(s0) ** 2) for s0, bw in zip(radii, bws))
    if not all(bw.below_threshold for bw in bws) or not bws[0].value > bws[1].value > bws[2].value:
        worst = max(worst, 1.0)
    return worst, 1e-7


# ---------------------------------------------------------------------------
# Check tables
# ---------------------------------------------------------------------------

SCENARIO_CHECKS = (
    Check("identities", "trace_identity", _trace_identity),
    Check("identities", "curvature_fd_oracle", _curvature_fd_oracle),
    Check("identities", "potential_identities", _potential_identities),
    Check("identities", "capacity_scaling", lambda sc: (
        potential.capacity_scaling_check(sc.sol, np.linspace(0.0, sc.t_max, 41)), 1e-6)),
    Check("identities", "integral_geometry", _integral_geometry),
    Check("identities", "level_roundtrip", _level_roundtrip),
    Check("identities", "functional_bounds", _functional_bounds),
    Check("identities", "scalar_flatness", _scalar_flatness, kind="schwarzschild"),
    Check("monotonicity", "F_monotone", lambda sc: (sc.monotonicity.max_increase, 1e-7),
          lambda sc: _unless(sc.monotonicity.hypothesis_met, "UNMET",
                             "Ric >= 0 fails on the window; monotonicity not implied")),
    Check("monotonicity", "dF_explicit_match",
          lambda sc: (sc.monotonicity.max_derivative_error, 1e-4)),
    Check("monotonicity", "G_ode", lambda sc: (functionals.check_G_ode(sc.series), 1e-4)),
    Check("monotonicity", "G_bounds",
          lambda sc: (float(np.maximum(-sc.series.G, sc.series.G - sc.series.F).max()), 1e-9),
          lambda sc: _unless(sc.monotonicity.hypothesis_met, "UNMET",
                             "Ric >= 0 fails on the window; 0 <= G <= F not implied")),
    Check("decay", "decay_estimate", _decay_estimate, _decay_gate),
    Check("decay", "genus_zero_pointwise",
          lambda sc: Reading(sc.decay.max_pointwise_violation, 1e-9,
                             note=f"{sc.decay.n_pointwise_checked} levels checked"),
          lambda sc: _unless(sc.decay.n_pointwise_checked, "SKIP", "no pinched levels in the window")),
    Check("chain", "refutation_soundness", _refutation_soundness),
)

#: checks on fixed catalog metrics, run once per verify pass
CATALOG_CHECKS = (
    Check("chain", "power/li_yau_exponent", partial(_li_yau_exponent, "power", {"beta": 0.8}, -0.6)),
    Check("chain", "flat/li_yau_exponent", partial(_li_yau_exponent, "flat", {}, -1.0)),
    Check("chain", "sphere_cap_blend/small_sphere_willmore", _small_sphere_willmore),
)


def run_verify(cfg: ScenarioConfig, stream=None):
    """Run the selected verification suite; returns (results, exit_code).

    The default flat configuration runs the whole default catalog;
    any other metric runs on its own.
    """
    if stream is None:
        stream = sys.stdout
    if cfg.metric_kind != "flat" or cfg.metric_params:
        catalog = [(cfg.metric_kind, metrics.build_metric(cfg.metric_kind, cfg.metric_params))]
    else:
        catalog = metrics.default_catalog()
    want = cfg.suite
    results = []
    for name, metric in catalog:
        sc = _Scenario(metric, cfg)
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
