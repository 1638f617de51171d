"""Decay estimates, asymptotic fits, and the refutation certificate.

A complete noncompact 3-manifold cannot simultaneously be Ricci-pinched,
grow superquadratically (volume exponent 1 + alpha with alpha > 4/3),
and carry a boundary sphere of Willmore energy strictly below 16 pi.
This module measures each hypothesis on a warp profile, verifies the
supporting identities (exponential capacity growth forces exponential
volume growth through the coarea formula, while the potential decay
bounds the reachable radius), and emits a certificate naming which
hypothesis breaks -- or exhibiting the quantitative contradiction when
the user insists all of them hold on the sampled window.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .config import ScenarioConfig
from .errors import DomainError, UsageError
from .functionals import (FOUR_PI, SIXTEEN_PI, BoundaryWillmore,
                          FunctionalSeries, boundary_willmore, build_series,
                          sample_at)
from .metrics import GrowthReport, PinchReport, check_pinching, growth_fit, volume_ball
from .potential import ExteriorDomain, PotentialSolution

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Decay of F
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Exponential decay of F past the threshold level.

    Once F drops below 8 pi eps / (2 + 2 eps), the pinched differential
    inequality forces F' <= -2F, hence F(t) <= decay_constant * e^(-2t)
    with decay_constant = 4 pi e^(2 t_tilde).  ``passed`` is None when
    the threshold is never reached inside the window (then there is
    nothing to bound) and when it is reached the bound is checked
    directly on the samples.  ``pointwise_ok`` reports the genus-zero
    branch F' <= eps (2F - 8 pi), checked at every interior level where
    the pinching condition holds at the level radius and F <= 4 pi.
    """

    t_tilde: Optional[float]
    decay_constant: Optional[float]
    decay_rate: Optional[float]
    passed: Optional[bool]
    threshold_reached: bool
    hypothesis_met: bool
    pointwise_ok: bool
    max_pointwise_violation: float
    n_pointwise_checked: int


def decay_check(series: FunctionalSeries, epsilon: float,
                pinch: PinchReport) -> DecayFit:
    """Check the exponential decay estimate for F on a sampled series.

    ``pinch`` carries the pinching verdict read from the series over the
    window levels (``series_pinching``); regardless of it, the pointwise
    inequality is tested at each level radius from the same columns, so
    partially pinched profiles still exercise the estimate where it
    applies.  ``decay_rate`` is the ``metrics.line_fit`` slope of log F past t_tilde.
    """
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise UsageError("decay check needs a positive pinching constant")
    threshold = 8.0 * math.pi * epsilon / (2.0 + 2.0 * epsilon)

    pinched = metrics.pinched_where(series.eps_star, series.ric_ok, epsilon)
    # F = 4 pi exactly on flat space; the slack keeps rounding from picking levels
    gate = pinched & (series.F <= FOUR_PI * (1.0 + 1e-12))
    gate[[0, -1]] = False
    slack = series.dF_explicit - epsilon * (2.0 * series.F - 8.0 * math.pi)
    violations = slack[gate] if gate.any() else np.array([0.0])
    max_violation = float(violations.max(initial=0.0))
    pointwise_ok = max_violation <= 1e-9

    below = series.F <= threshold * (1.0 - 1e-6)
    if not below.any():
        return DecayFit(None, None, None, None, False, pinch.passed,
                        pointwise_ok, max_violation, int(gate.sum()))

    i_tilde = int(np.argmax(below))
    t_tilde = float(series.t[i_tilde])
    constant = FOUR_PI * math.exp(2.0 * t_tilde)
    tail_t = series.t[i_tilde:]
    tail_F = series.F[i_tilde:]
    bound = constant * np.exp(-2.0 * tail_t)
    passed = bool(np.all(tail_F <= bound * (1.0 + 1e-9) + 1e-12))

    rate = None
    pos = tail_F > 0
    if pos.sum() >= 3:
        rate = metrics.line_fit(tail_t[pos], np.log(tail_F[pos]))[0]
    return DecayFit(t_tilde, constant, rate, passed, True, pinch.passed,
                    pointwise_ok, max_violation, int(gate.sum()))


# ---------------------------------------------------------------------------
# Asymptotic fits and identity checks
# ---------------------------------------------------------------------------

def li_yau_fit(sol: PotentialSolution, r_lo: float, r_hi: float) -> float:
    """Least-squares decay exponent of the potential: the ``metrics.line_fit``
    slope of log u against log s at 40 log-spaced radii.

    For a warp tail f ~ c s^beta the exact value is 1 - 2 beta, i.e.
    1 - alpha in terms of the volume-growth exponent alpha = 2 beta.
    """
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not sol.s0 <= r_lo < r_hi:
        raise DomainError(f"bad fit window [{r_lo}, {r_hi}]")
    s = np.geomspace(r_lo, r_hi, 40)
    return metrics.line_fit(np.log(s), np.log(sol.u(s)))[0]


def coarea_check(sol: PotentialSolution, t_grid) -> float:
    """Max relative residual of d/dt Vol({w <= t}) = area(t)/|grad w|(t).

    The enclosed volume is computed by radial quadrature and differenced
    centrally in t with step 5e-4; the right side comes from the closed
    level-set forms.
    """
    delta = 5e-4
    t = np.clip(np.asarray(t_grid, float), delta, sol.t_usable - delta)
    stencil = np.stack([t - delta, t, t + delta])
    s, tail = (a.reshape(stencil.shape) for a in sol._level_map(stencil.ravel()))
    vol = volume_ball(sol.metric, s.ravel()).reshape(stencil.shape)
    dvol = (vol[2] - vol[0]) / (2.0 * delta)
    f = sol.metric.f(s[1])
    rhs = FOUR_PI * f * f / (f ** -2.0 / tail[1])  # |grad w| as in sol.grad_w, from this f and I
    return float(np.abs(dvol / rhs - 1.0).max())


def holder_chain_check(sol: PotentialSolution, t_grid) -> float:
    """Saturation of the capacity Hoelder chain on round level sets.

    e^{3t} ncap(0)^3 equals (integral |grad w|^-1) (integral |grad w|^2)^2
    / (4 pi)^3 with equality because |grad w| is constant on each level
    sphere; the returned deviation is |lhs/rhs - 1| maximized over the
    grid and measures quadrature plus level-inversion error only.
    """
    smp = sample_at(sol, t_grid)
    lhs = np.exp(3.0 * smp.t) * sol.ncap**3
    rhs = (smp.area / smp.grad_w) * smp.G**2 / FOUR_PI**3
    return float(np.abs(lhs / rhs - 1.0).max())


# ---------------------------------------------------------------------------
# Refutation certificate
# ---------------------------------------------------------------------------

ALPHA_THRESHOLD = 4.0 / 3.0


def pinching_window(sol: PotentialSolution, series: FunctionalSeries) -> int:
    """First series level the pinching check reads, which runs to the last
    level: the boundary, or level t_max/400 when the boundary is the domain
    start (pole or horizon).  A level index, so no rounded radius shifts it."""
    return 0 if sol.s0 > sol.metric.domain_start else -(-(len(series.t) - 1) // 400)


def series_pinching(sol: PotentialSolution, series: FunctionalSeries, epsilon) -> PinchReport:
    """``check_pinching`` on the margins the series carries over the pinching window."""
    i = pinching_window(sol, series)
    return check_pinching(sol.metric, epsilon, series.s[i:], series.eps_star[i:], series.ric_ok[i:])


def windowed_growth(metric, growth_window) -> GrowthReport:
    """Growth fit over the window, its top clipped to the domain end and its
    bottom to at most 1/50 of the top, which must lie past the domain start."""
    r_hi = min(float(growth_window[1]), metric.domain_end)
    if not r_hi / 50.0 > metric.domain_start:
        raise DomainError(f"{metric.label}: the growth fit needs radii down to r_hi/50 = {r_hi / 50.0:.4g}, "
                          f"below the profile's start s={metric.domain_start:g}")
    return growth_fit(metric, min(float(growth_window[0]), r_hi / 50.0), r_hi)


def _json_floats(values):
    """A 1-d float sequence as a list of floats, +-inf as "inf" and "-inf"."""
    arr = np.asarray(values, float)
    out = arr.tolist()
    if np.isinf(arr).any():
        out = [("inf" if v > 0 else "-inf") if math.isinf(v) else v for v in out]
    return out


@dataclass(frozen=True)
class RefutationReport:
    """Per-hypothesis verdicts plus the quantitative contradiction chain.

    At least one verdict fails for every realizable profile; if the
    sampled verdicts all pass, the chain comparison e^{7t} - 1 against
    kappa e^{(alpha+1)/(alpha-1) t} must cross, and a report where
    neither happens indicates inconsistent inputs (or a bug) and is
    labelled as such.
    """

    metric_label: str
    s0: float
    pinching: PinchReport
    pinching_pass: bool
    growth: GrowthReport
    growth_pass: bool
    boundary: BoundaryWillmore
    chain_t: np.ndarray
    chain_lhs: np.ndarray
    chain_rhs: np.ndarray
    chain_kappa: Optional[float]
    chain_exponent: Optional[float]
    crossing_t: Optional[float]
    decay: DecayFit
    conclusion: str

    def failed_hypotheses(self):
        out = []
        if not self.pinching_pass:
            out.append("pinching")
        if not self.growth_pass:
            out.append("growth")
        if not self.boundary.below_threshold:
            out.append("boundary")
        return out

    def to_json_dict(self):
        def clean(x):
            if x is None or isinstance(x, str):
                return x
            x = float(x)
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return x

        return {
            "metric": self.metric_label,
            "s0": self.s0,
            "pinching": {
                "pass": self.pinching_pass,
                "epsilon": self.pinching.epsilon_requested,
                "first_failure_s": clean(self.pinching.first_failure_s),
                "eps_star_min": clean(self.pinching.eps_star_min),
                "margin_curve": {
                    "s": _json_floats(self.pinching.margin_s),
                    "eps_star": _json_floats(self.pinching.margin_eps_star),
                },
            },
            "growth": {
                "pass": self.growth_pass,
                "alpha_fit": self.growth.alpha_fit,
                "c_vol_fit": self.growth.c_vol_fit,
                "avr": self.growth.avr,
                "window": list(self.growth.fit_window),
            },
            "boundary_willmore": {
                "pass": self.boundary.below_threshold,
                "value": self.boundary.value,
                "threshold": SIXTEEN_PI,
            },
            "chain": {
                "kappa": clean(self.chain_kappa),
                "exponent": clean(self.chain_exponent),
                "t": _json_floats(self.chain_t),
                "lhs": _json_floats(self.chain_lhs),
                "rhs": _json_floats(self.chain_rhs),
                "crossing_t": clean(self.crossing_t),
            },
            "conclusion": self.conclusion,
        }


def refute(domain: ExteriorDomain, config: Optional[ScenarioConfig] = None) -> RefutationReport:
    """Run all three hypothesis checks and evaluate the closing comparison.

    Reads epsilon, t_max, n_samples, growth_window and chain_points from
    ``config``, a default ScenarioConfig when omitted.
    """
    config = config or ScenarioConfig()
    epsilon, t_max = config.epsilon, config.t_max

    metric = domain.metric
    sol = PotentialSolution(domain, t_max=t_max)
    series = build_series(sol, n=config.n_samples)

    pinch = series_pinching(sol, series, epsilon)
    decay = decay_check(series, epsilon, pinch)

    growth = windowed_growth(metric, config.growth_window)
    growth_pass = growth.alpha_fit > ALPHA_THRESHOLD
    boundary = boundary_willmore(sol)

    chain_t = np.array([])
    chain_lhs = np.array([])
    chain_rhs = np.array([])
    kappa = exponent = crossing = None
    alpha = growth.alpha_fit
    if alpha > 1.02:
        exponent = (alpha + 1.0) / (alpha - 1.0)
        if decay.threshold_reached:
            log_kappa_g = math.log(decay.decay_constant)
        else:
            log_kappa_g = float(np.max(np.log(series.G) + 2.0 * series.t))
        fit_s = np.geomspace(max(2.0 * domain.s0, 1.0), series.s[-1], 30)
        kappa_ly = float(np.max(sol.u(fit_s) * fit_s ** (alpha - 1.0)))
        # kappa = 7 kappa_g^2 c_vol kappa_ly^exponent / (4 pi ncap)^3, in logs, where nothing can overflow
        log_kappa = (2.0 * log_kappa_g + math.log(7.0 * growth.c_vol_fit) + exponent * math.log(kappa_ly)
                     - 3.0 * math.log(FOUR_PI * sol.ncap))
        log_max = np.log(np.finfo(float).max)
        kappa = math.exp(log_kappa) if log_kappa < log_max else math.inf
        if exponent < 7.0:
            t_star_est = max(log_kappa, math.log(2.0)) / (7.0 - exponent)
            hi = min(max(2.0 * t_star_est, 4.0), 90.0)
        else:
            hi = min(3.0 * t_max, 90.0)
        chain_t = np.geomspace(min(0.25, hi / 50.0), hi, int(config.chain_points))
        # where the right side leaves the float range, the left stays below e^630 (t <= 90): no crossing is lost
        chain_t = chain_t[log_kappa + exponent * chain_t < log_max]
        chain_lhs = np.expm1(7.0 * chain_t)
        chain_rhs = np.exp(log_kappa + exponent * chain_t)
        crossed = chain_lhs > chain_rhs
        crossing = float(chain_t[np.argmax(crossed)]) if crossed.any() else None

    failures = []
    if not pinch.passed:
        witness = pinch.first_failure_s
        failures.append(
            "pinching fails (margin min %.4g, witness s = %.6g)"
            % (pinch.eps_star_min, witness if witness is not None else float("nan"))
        )
    if not growth_pass:
        failures.append(
            "growth fails (alpha = %.4g <= 4/3)" % alpha
        )
    if not boundary.below_threshold:
        if abs(boundary.value - SIXTEEN_PI) <= 1e-9 * SIXTEEN_PI:
            failures.append(
                "boundary condition fails (willmore = 16*pi exactly, not strictly below)"
            )
        else:
            failures.append(
                "boundary condition fails (willmore = %.6g >= 16*pi)" % boundary.value
            )
    if failures:
        conclusion = "; ".join(failures)
    elif crossing is not None:
        conclusion = (
            "all hypotheses hold on the sampled window; the volume-capacity "
            "chain still fails at t = %.4g (jointly unsatisfiable)" % crossing
        )
    else:
        conclusion = "CONTRADICTION - inconsistent inputs"
        log.error("%s s0=%g: refutation found no failing hypothesis and no "
                  "chain crossing", metric.label, domain.s0)

    return RefutationReport(
        metric_label=metric.label, s0=domain.s0,
        pinching=pinch, pinching_pass=pinch.passed,
        growth=growth, growth_pass=growth_pass, boundary=boundary,
        chain_t=chain_t, chain_lhs=chain_lhs, chain_rhs=chain_rhs,
        chain_kappa=kappa, chain_exponent=exponent, crossing_t=crossing,
        decay=decay, conclusion=conclusion,
    )
