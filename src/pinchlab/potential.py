"""Exterior harmonic potentials on warped radial metrics.

On g = ds^2 + f(s)^2 g_{S^2} the harmonic equation for a radial function
reduces to (f^2 u')' = 0, so the decaying exterior potential with u = 1
on the boundary sphere {s = s0} is the ratio of tail integrals

    I(s) = integral of f(sigma)^-2 over [s, infinity),
    u(s) = I(s) / I(s0).

Everything else follows in closed form: w = -log u solves
Delta w = |grad w|^2, the gradient is |grad w| = f^-2 / I (computed from
this closed form, never by differencing w), the normalized boundary
capacity is 1/I(s0), and the level sets {w = t} are round spheres whose
radius is the inverse of the monotone map t(s) = log(I(s0)/I(s)).

The tail integral converges iff the tail exponent beta of f ~ c s^beta
exceeds 1/2; slower tails make the manifold parabolic and the exterior
problem unsolvable, reported as NonparabolicityError.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonparabolicityError, NumericError
from .metrics import WarpFunction
from .quadrature import PanelQuadrature, panel_edges
from .stencils import five_point_first

log = logging.getLogger(__name__)

#: relative accuracy demanded of the fitted tail law at the truncation
#: radius, and maximum fraction of any queried integral the analytic tail
#: correction may contribute.  Together these keep the truncation error
#: of the improper integral far below the 1e-9 budget.
TAIL_LAW_RTOL = 1e-6
TAIL_FRACTION = 1e-10


@dataclass(frozen=True)
class ExteriorDomain:
    """The region outside the boundary sphere {s = s0}."""

    metric: WarpFunction
    s0: float

    def __post_init__(self):
        self.metric.require_contains(self.s0)


class TailIntegrator:
    """Evaluates I(s) = integral of f^-2 over [s, infinity).

    The improper integral is truncated at a radius s_cut chosen so that
    (a) the fitted tail law c*s^beta matches f to TAIL_LAW_RTOL there and
    (b) the analytic remainder c^-2 s_cut^(1-2 beta)/(2 beta - 1) is at
    most TAIL_FRACTION of the integral at any queried radius up to
    ``usable_hi``.  Both conditions are logged.  Tabulated profiles
    cannot be extended past their last row; in that degraded mode the
    achievable accuracy is logged as a warning.
    """

    def __init__(self, metric: WarpFunction, s_lo: float, s_query_hi: float):
        beta = metric.tail_exponent
        c = metric.tail_coefficient
        if beta <= 0.5:
            raise NonparabolicityError(
                f"{metric.label}: tail exponent beta={beta:g} <= 1/2, the warp tail "
                "decays too slowly for a decaying exterior potential"
            )
        if beta > 1.0 + 1e-12:
            raise DomainError(
                f"{metric.label}: tail exponent beta={beta:g} > 1 is outside the "
                "supported range (1/2, 1]"
            )
        self.metric = metric
        self.beta = beta
        self.c = c
        s_lo = float(s_lo)
        s_query_hi = max(float(s_query_hi), s_lo * 2.0, 1.0)

        exp10 = min(-math.log10(TAIL_FRACTION) / (2.0 * beta - 1.0), 250.0)
        self._fraction_decades = exp10
        s_rule = s_query_hi * 10.0 ** exp10
        if not math.isfinite(s_rule) or s_rule > 1e280:
            s_rule = 1e280
            log.warning("%s: tail fraction target clipped by float range", metric.label)

        # first radius where the tail law matches f to TAIL_LAW_RTOL
        probe_lo = max(s_lo, metric.domain_start, 1e-6)
        probe_hi = min(s_rule, metric.domain_end)
        probe = np.geomspace(max(probe_lo, 1e-6), probe_hi, 600)
        mismatch = np.abs(metric.f(probe) / (c * probe**beta) - 1.0)
        hit = np.nonzero(mismatch <= TAIL_LAW_RTOL)[0]
        if len(hit):
            s_law = float(probe[hit[0]])
        else:
            s_law = probe_hi
            log.warning(
                "%s: tail law never matches f to %.0e on the probe grid "
                "(best %.2e); truncation error may exceed budget",
                metric.label, TAIL_LAW_RTOL, float(mismatch.min()),
            )
        s_cut = max(s_rule, s_law, 10.0 * s_query_hi)

        self.degraded = False
        if s_cut > metric.domain_end:
            s_cut = metric.domain_end
            self.degraded = True

        self.s_cut = s_cut
        self.tail_const = s_cut ** (1.0 - 2.0 * beta) / (c * c * (2.0 * beta - 1.0))
        edges = panel_edges(s_lo, s_cut, metric.breakpoints)
        self.quad = PanelQuadrature(lambda s: metric.f(s) ** -2.0, edges)
        self._suffix_at_edges = self.quad.total - self.quad.prefix + self.tail_const

        if self.degraded:
            self.usable_hi = metric.domain_end
            frac = self.tail_const / self.value(min(s_query_hi, self.usable_hi))
            law_err = float(mismatch[np.searchsorted(probe, s_cut) - 1]) if len(probe) else float("nan")
            log.warning(
                "%s: tail truncated at the table end s=%.6g; analytic tail is "
                "%.2e of the integral there (law mismatch %.2e) -- tabulated "
                "profiles carry this accuracy caveat", metric.label, s_cut, frac, law_err,
            )
        else:
            self.usable_hi = s_cut * 10.0 ** (-self._fraction_decades)
            log.debug(
                "%s: s_cut=%.6g (law matched at %.6g, fraction rule %.6g); "
                "usable query radius %.6g", metric.label, s_cut, s_law, s_rule,
                self.usable_hi,
            )

    def value(self, s):
        """I(s); vectorized over s within [grid start, usable_hi]."""
        s_arr = np.asarray(s, float)
        if np.any(s_arr > self.usable_hi * (1.0 + 1e-9)):
            raise DomainError(
                f"tail integral queried beyond usable radius {self.usable_hi:g}"
            )
        return self.quad.integral_to_end(s_arr) + self.tail_const

    def values_at_edges(self):
        return self.quad.edges, self._suffix_at_edges


@dataclass(frozen=True)
class LevelSet:
    """One level set {w = t}: a round sphere of areal radius f(s).

    The outward unit normal is the radial direction, so the second
    fundamental form is the round one: its traceless part vanishes, and
    |grad w| is constant over the sphere so its tangential gradient
    vanishes as well.  Both are recorded as structurally zero fields.
    """

    t: float
    s: float
    area: float
    H: float
    grad_w: float
    genus: int = 0
    traceless_second_fundamental_form_norm: float = 0.0
    tangential_grad_norm: float = 0.0


class PotentialSolution:
    """Closed-form exterior potential on a warped radial metric.

    Immutable after construction; all evaluation methods are pure and
    vectorized, so instances can be shared freely across threads.
    """

    def __init__(self, domain: ExteriorDomain, t_max: float = 8.0, s_max=None):
        metric = domain.metric
        s0 = float(domain.s0)
        self.domain = domain
        self.metric = metric
        self.s0 = s0
        self.t_max = float(t_max)
        if self.t_max <= 0:
            raise DomainError(f"t_max must be positive, got {t_max}")

        beta = metric.tail_exponent
        target_hi = max(s0 * 2.0, 1.0)
        if s_max is not None:
            target_hi = max(target_hi, float(s_max))
        integ = None
        for _ in range(6):
            integ = TailIntegrator(metric, s0, target_hi)
            i0 = float(integ.value(s0))
            if integ.degraded:
                break
            t_usable = math.log(i0 / float(integ.value(integ.usable_hi)))
            if t_usable >= self.t_max + 0.1:
                break
            # invert the pure tail law at the level t_max to size the grid
            val = i0 * math.exp(-self.t_max) * beta_law_const(metric)
            law_s = math.exp(math.log(val) / (1.0 - 2.0 * beta)) if val > 0 else target_hi * 10
            target_hi = max(target_hi * 10.0, law_s * 4.0)
        else:
            raise NumericError(
                f"{metric.label}: could not extend the tail grid to reach t_max={t_max}"
            )
        self._integ = integ
        self._i0 = i0
        self.ncap = 1.0 / i0
        self.s_cut = integ.s_cut

        edges, i_edges = integ.values_at_edges()
        mask = (edges >= s0 * (1 - 1e-12)) & (edges <= integ.usable_hi * (1 + 1e-12))
        s_seed = edges[mask]
        t_seed = np.log(self._i0 / i_edges[mask])
        keep = np.concatenate([[True], np.diff(t_seed) > 1e-13])
        from scipy.interpolate import PchipInterpolator

        self._seed = PchipInterpolator(t_seed[keep], s_seed[keep], extrapolate=True)
        self.t_usable = float(t_seed[keep][-1])
        if integ.degraded and self.t_usable < self.t_max:
            log.warning(
                "%s: tabulated profile only reaches t=%.4g < requested t_max=%.4g",
                metric.label, self.t_usable, self.t_max,
            )
            self.t_max = self.t_usable

        self._verify_harmonic()

    # -- closed-form fields -------------------------------------------------

    def tail(self, s):
        """I(s), the exterior Green integral."""
        s_arr = np.asarray(s, float)
        if np.any(s_arr < self.s0 * (1 - 1e-12) - 1e-300):
            raise DomainError("potential evaluated inside the boundary sphere")
        return self._integ.value(s_arr)

    def u(self, s):
        """Harmonic potential, 1 on the boundary, decaying at infinity."""
        return self.tail(s) / self._i0

    def w(self, s):
        """-log u; satisfies Delta w = |grad w|^2 with w = 0 on the boundary."""
        return np.log(self._i0 / self.tail(s))

    def grad_w(self, s):
        """|grad w| = f^-2 / I, from the closed form (no differencing)."""
        s_arr = np.asarray(s, float)
        return self.metric.f(s_arr) ** -2.0 / self.tail(s_arr)

    # -- level-set parametrization -------------------------------------------

    def s_of_t(self, t):
        """Radius of the level set {w = t}; inverse of w.

        Monotone-interpolant seed polished by Newton iterations on the
        closed-form residual; the round trip |w(s(t)) - t| lands at
        ~1e-13 for the catalog profiles.
        """
        t_arr = np.asarray(t, float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if np.any(t_arr < -1e-12) or np.any(t_arr > self.t_usable + 1e-9):
            raise DomainError(
                f"level value outside [0, {self.t_usable:g}] (grid never extrapolates)"
            )
        tc = np.clip(t_arr, 0.0, self.t_usable)
        s = np.clip(self._seed(tc), self.s0, self._integ.usable_hi)
        for _ in range(4):
            tail = self._integ.value(s)
            resid = np.log(self._i0 / tail) - tc
            # Newton step: dw/ds = |grad w| = f^-2 / I
            s = s - resid * tail * self.metric.f(s) ** 2
            s = np.clip(s, self.s0, self._integ.usable_hi)
        s = np.where(tc == 0.0, self.s0, s)
        return float(s[0]) if scalar else s.reshape(np.shape(t))

    def level_set(self, t: float) -> LevelSet:
        s = float(self.s_of_t(float(t)))
        f = float(self.metric.f(s))
        return LevelSet(
            t=float(t), s=s, area=4.0 * math.pi * f * f,
            H=float(2.0 * self.metric.df(s) / f),
            grad_w=float(self.grad_w(s)),
        )

    # -- construction diagnostics ---------------------------------------------

    def _verify_harmonic(self):
        """Check (f^2 u')' = 0 by finite differences on a diagnostic grid.

        The radial flux f^2 u' of the closed-form solution must equal
        -1/I(s0) everywhere; differencing quadrature-evaluated u values
        probes the consistency of the tail integrals to ~1e-8.
        """
        t_diag = np.linspace(0.2, 0.9 * min(self.t_max, 6.0), 12)
        s_diag = np.atleast_1d(self.s_of_t(t_diag))
        du = five_point_first(self.u, s_diag, 0.01 * s_diag)
        flux = self.metric.f(s_diag) ** 2 * du
        resid = np.abs(flux * self._i0 + 1.0)
        worst = float(resid.max())
        if worst > 1e-6:
            raise NumericError(
                f"{self.metric.label}: radial harmonic identity violated "
                f"(flux residual {worst:.2e} > 1e-6)"
            )
        log.debug("%s: harmonic flux residual %.2e", self.metric.label, worst)


def beta_law_const(metric: WarpFunction) -> float:
    """c^2 (2 beta - 1), the constant in the pure tail law for I."""
    return metric.tail_coefficient**2 * (2.0 * metric.tail_exponent - 1.0)


def solve_potential(domain: ExteriorDomain, t_max: float = 8.0, s_max=None) -> PotentialSolution:
    """Solve the exterior problem Delta u = 0, u|_boundary = 1, u -> 0."""
    return PotentialSolution(domain, t_max=t_max, s_max=s_max)


def capacity_scaling_check(sol: PotentialSolution, t_grid) -> float:
    """Max relative failure of ncap(t) = e^t * ncap(0) over the level grid.

    ncap(t) is evaluated as f(s(t))^2 |grad w|(s(t)) / 1, i.e. the boundary
    flux through the level sphere; the identity is exact for the exterior
    potential, so the returned deviation measures the numerics only.
    """
    t_arr = np.asarray(t_grid, float)
    s = np.atleast_1d(sol.s_of_t(t_arr))
    ncap_t = sol.metric.f(s) ** 2 * np.atleast_1d(sol.grad_w(s))
    dev = np.abs(ncap_t * np.exp(-t_arr.ravel()) / sol.ncap - 1.0)
    return float(dev.max())
