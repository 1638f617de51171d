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

import itertools
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import metrics
from .config import ScenarioConfig
from .errors import DomainError, NumericError
from .functionals import (FOUR_PI, SIXTEEN_PI, BoundaryWillmore, FunctionalSample,
                          FunctionalSeries, boundary_willmore, build_series)
from .metrics import GrowthReport, PinchReport, check_pinching, growth_fit, volume_ball
from .potential import ExteriorDomain, PotentialSolution, TailIntegrator
from .quadrature import log_grid
from .stencils import FIRST, OFFSETS, first_from

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Decay of F
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Exponential decay of F past the threshold level.

    Once F drops below 8 pi eps / (2 + 2 eps), the pinched differential
    inequality forces F' <= -2F, hence F(t) <= decay_constant * e^(-2t)
    with decay_constant = 4 pi e^(2 t_tilde).  ``t_tilde`` and ``passed``
    are None when the threshold is never reached inside the window (then
    there is nothing to bound); when it is reached the bound is checked
    directly on the samples.  ``max_pointwise_violation`` measures the
    genus-zero branch F' <= eps (2F - 8 pi) at every interior level where
    the pinching condition holds at the level radius and F <= 4 pi.
    """

    t_tilde: Optional[float]
    decay_constant: Optional[float]
    decay_rate: Optional[float]
    passed: Optional[bool]
    max_pointwise_violation: float
    n_pointwise_checked: int


def decay_check(series: FunctionalSeries, epsilon: float) -> DecayFit:
    """Check the exponential decay estimate for F on a sampled series.

    The pointwise inequality is tested at each level radius where the
    series margins show the pinching condition, so partially pinched
    profiles still exercise the estimate where it applies; the verdict
    over the window is ``series_pinching``'s.  ``decay_rate`` is the
    ``metrics.line_fit`` slope of log F past t_tilde.
    """
    epsilon = metrics.positive_epsilon(epsilon)
    threshold = 8.0 * math.pi * epsilon / (2.0 + 2.0 * epsilon)

    pinched = metrics.pinched_where(series.eps_star, epsilon)
    # F = 4 pi exactly on flat space; the slack keeps rounding from picking levels
    gate = pinched & (series.F <= FOUR_PI * (1.0 + 1e-12))
    gate[[0, -1]] = False
    slack = series.dF_explicit - epsilon * (2.0 * series.F - 8.0 * math.pi)
    max_violation = float(slack[gate].max(initial=0.0))

    below = series.F <= threshold * (1.0 - 1e-6)
    if not below.any():
        return DecayFit(None, None, None, None, max_violation, int(gate.sum()))

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
    return DecayFit(t_tilde, constant, rate, passed, max_violation, int(gate.sum()))


# ---------------------------------------------------------------------------
# Asymptotic fits and identity checks
# ---------------------------------------------------------------------------

def li_yau_fit(at: ExteriorDomain | PotentialSolution, r_lo: float, r_hi: float) -> float:
    """Least-squares decay exponent of the potential: the ``metrics.line_fit`` slope of log u
    = log(I(s)/I(s0)) against log s at 40 log-spaced radii, from a TailIntegrator sized to r_hi.

    For a warp tail f ~ c s^beta the exact value 1 - 2 beta is 1 - alpha in terms of the
    volume-growth exponent alpha = 2 beta.  Reads only ``metric`` and ``s0``.
    """
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not at.s0 <= r_lo < r_hi:
        raise DomainError(f"bad fit window [{r_lo}, {r_hi}]")
    integ = TailIntegrator(at.metric, at.s0, r_hi)
    s = log_grid(r_lo, r_hi, 40)
    return metrics.line_fit(np.log(s), np.log(integ.value(s) / integ.i_lo))[0]


def coarea_check(series: FunctionalSeries, k) -> float:
    """Max relative residual of d/dt Vol({w <= t}) = area(t)/|grad w|(t) at the series indices k.

    The enclosed volume is computed by radial quadrature at the series radii
    k +- 1 and k +- 2 and differenced by the five-point stencil with step
    ``series.dt``; the right side is the series' area / |grad w| at k.  An
    index whose stencil leaves the series is a DomainError.
    """
    k, n = np.asarray(k), len(series.t)
    if not np.all((2 <= k) & (k <= n - 3)):
        raise DomainError(f"coarea stencils need series indices in [2, {n - 3}], got {k.min()} to {k.max()}")
    r = series.s[k[..., None] + OFFSETS[FIRST].astype(int)]
    with np.errstate(over="ignore", invalid="ignore"):
        v = volume_ball(series.metric, r.ravel()).reshape(r.shape)
    if not np.all(np.isfinite(v)):
        raise NumericError(f"{series.metric.label}: ball volumes overflow at the level radii up to s={r.max():g}")
    return float(np.abs(first_from(v, series.dt) / (series.area[k] / series.grad_w[k]) - 1.0).max())


def holder_chain_check(sol: PotentialSolution, smp: FunctionalSample) -> float:
    """Saturation of the capacity Hoelder chain on round level sets, at the levels of ``smp``.

    e^{3t} (4 pi ncap(0))^3 equals (integral |grad w|^-1) (integral |grad w|^2)^2
    with equality because |grad w| is constant on each level sphere; the
    deviation |lhs/rhs - 1|, formed in logs, is maximized over the sampled
    levels and measures quadrature plus level-inversion error only.
    """
    log_lhs = 3.0 * (smp.t + math.log(sol.ncap) + math.log(FOUR_PI))
    return float(np.abs(np.expm1(log_lhs - (np.log(smp.area) - np.log(smp.grad_w)) - 2.0 * np.log(smp.G))).max())


# ---------------------------------------------------------------------------
# Refutation certificate
# ---------------------------------------------------------------------------

ALPHA_THRESHOLD = 4.0 / 3.0


def pinching_window(series: FunctionalSeries) -> int:
    """First series level the pinching check reads, which runs to the last
    level: the boundary, or level t_max/400 when the boundary is the domain
    start (pole or horizon).  A level index, so no rounded radius shifts it."""
    return 0 if series.s0 > series.metric.domain_start else -(-(len(series.t) - 1) // 400)


def series_pinching(series: FunctionalSeries, epsilon) -> PinchReport:
    """``check_pinching`` on the margins the series carries over the pinching window."""
    i = pinching_window(series)
    return check_pinching(series.metric, epsilon, series.s[i:], series.eps_star[i:])


def _json_floats(values):
    """A float, or a 1-d float sequence as a list of floats, for JSON: +-inf as "inf" and "-inf",
    and None as None."""
    if values is None:
        return None
    arr = np.asarray(values, float)
    out = arr.tolist()
    if np.isinf(arr).any():
        spell = lambda v: ("inf" if v > 0 else "-inf") if math.isinf(v) else v
        out = spell(out) if arr.ndim == 0 else [spell(v) for v in out]
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
    growth: GrowthReport
    growth_pass: bool
    boundary: BoundaryWillmore
    chain_t: np.ndarray
    chain_lhs: np.ndarray
    chain_rhs: np.ndarray
    chain_kappa: Optional[float]
    chain_exponent: Optional[float]
    crossing_t: Optional[float]
    conclusion: str

    def to_json_dict(self):
        return {
            "metric": self.metric_label,
            "s0": self.s0,
            "pinching": {
                "pass": self.pinching.passed,
                "epsilon": self.pinching.epsilon_requested,
                "first_failure_s": _json_floats(self.pinching.first_failure_s),
                "eps_star_min": _json_floats(self.pinching.eps_star_min),
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
                "kappa": _json_floats(self.chain_kappa),
                "exponent": _json_floats(self.chain_exponent),
                "t": _json_floats(self.chain_t),
                "lhs": _json_floats(self.chain_lhs),
                "rhs": _json_floats(self.chain_rhs),
                "crossing_t": _json_floats(self.crossing_t),
            },
            "conclusion": self.conclusion,
        }


class Scenario:
    """A profile's exterior potential from s0 with its level series and its volume growth,
    sized by ``config``: ``sol`` solved to t_max, ``series`` of ``levels()`` levels, and
    ``growth`` fitted over growth_window when first read."""

    def __init__(self, metric, s0, config: ScenarioConfig):
        self.metric, self.config = metric, config
        self.sol = PotentialSolution(ExteriorDomain(metric, s0), t_max=config.t_max)
        self.series = build_series(self.sol, n=self.levels())

    def levels(self) -> int:
        return self.config.n_samples

    @cached_property
    def growth(self) -> GrowthReport:
        """Growth fit over the window, its top clipped to the domain end and its
        bottom to at most 1/50 of the top, which must lie past the domain start."""
        metric, (r_lo, r_hi) = self.metric, self.config.growth_window
        r_hi = min(r_hi, metric.domain_end)
        if not r_hi / 50.0 > metric.domain_start:
            raise DomainError(f"{metric.label}: the growth fit needs radii down to r_hi/50 = {r_hi / 50.0:.4g}, "
                              f"below the profile's start s={metric.domain_start:g}")
        return growth_fit(metric, min(r_lo, r_hi / 50.0), r_hi)


def sweep(profiles, s0s, epsilons, config: ScenarioConfig) -> list[RefutationReport]:
    """The ``RefutationReport`` of each profile x s0 x epsilon, in that order: one ``Scenario``
    per (profile, s0), whose growth is fitted once per profile after its first solve, and per
    epsilon the ``series_pinching`` and ``decay_check`` that ``judge`` combines.  Reads t_max,
    n_samples and growth_window from ``config`` and hands it on to ``judge``; its epsilon is not read."""
    for s0, eps in itertools.product(s0s, epsilons):  # a valid config per cell, or a UsageError before any solve
        replace(config, s0=s0, epsilon=eps)
    reports = []
    for metric in profiles:
        growth = None
        for s0 in s0s:
            sc = Scenario(metric, s0, config)
            growth = sc.growth = growth or sc.growth
            reports += [judge(sc, series_pinching(sc.series, eps), decay_check(sc.series, eps)) for eps in epsilons]
    return reports


def refute(domain: ExteriorDomain, config: Optional[ScenarioConfig] = None) -> RefutationReport:
    """The one-scenario ``sweep``: ``domain`` at the epsilon of ``config``, by default a ScenarioConfig()."""
    config = config or ScenarioConfig()
    return sweep([domain.metric], [domain.s0], [config.epsilon], config)[0]


def judge(sc: Scenario, pinch: PinchReport, decay: DecayFit) -> RefutationReport:
    """Combine the verdicts made on a scenario and evaluate the closing comparison.

    Takes ``series_pinching`` and ``decay_check`` of ``sc.series`` at one
    epsilon, and reads chain_points and t_max from ``sc.config``.  t_max bounds
    the chain when its exponent is 7 or more, also where ``sc.sol`` ends below it.
    """
    sol, series, growth, config = sc.sol, sc.series, sc.growth, sc.config
    growth_pass = growth.alpha_fit > ALPHA_THRESHOLD
    boundary = boundary_willmore(sol)

    chain_t = np.array([])
    chain_lhs = np.array([])
    chain_rhs = np.array([])
    kappa = exponent = crossing = None
    alpha = growth.alpha_fit
    if alpha > 1.02:
        exponent = (alpha + 1.0) / (alpha - 1.0)
        if decay.t_tilde is not None:
            log_kappa_g = math.log(decay.decay_constant)
        else:
            log_kappa_g = float(np.max(np.log(series.G) + 2.0 * series.t))
        fit_s = log_grid(max(2.0 * sol.s0, 1.0), series.s[-1], 30)
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
            hi = min(3.0 * config.t_max, 90.0)
        chain_t = log_grid(min(0.25, hi / 50.0), hi, config.chain_points)
        # where the right side leaves the float range, the left stays below e^630 (t <= 90): no crossing is lost
        chain_t = chain_t[log_kappa + exponent * chain_t < log_max]
        chain_lhs = np.expm1(7.0 * chain_t)
        chain_rhs = np.exp(log_kappa + exponent * chain_t)
        crossed = chain_lhs > chain_rhs
        crossing = float(chain_t[np.argmax(crossed)]) if crossed.any() else None

    failures = []
    if not pinch.passed:
        failures.append("pinching fails (margin min %.4g, witness s = %.6g)"
                        % (pinch.eps_star_min, pinch.first_failure_s))
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
                  "chain crossing", sol.metric.label, sol.s0)

    return RefutationReport(
        metric_label=sol.metric.label, s0=sol.s0,
        pinching=pinch,
        growth=growth, growth_pass=growth_pass, boundary=boundary,
        chain_t=chain_t, chain_lhs=chain_lhs, chain_rhs=chain_rhs,
        chain_kappa=kappa, chain_exponent=exponent, crossing_t=crossing, conclusion=conclusion,
    )
