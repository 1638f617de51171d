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

#: largest error the analytic tail beyond the truncation radius may add to
#: a queried I(s), relative to I at the top of the queried range
TAIL_BUDGET = 1e-10


def _tail_law(metric: WarpFunction):
    """(c, beta) of the tail law f ~ c s^beta, with beta in (1/2, 1]."""
    beta = metric.tail_exponent
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
    return metric.tail_coefficient, beta


def _outward(radii, mismatch, s):
    """s and the probe radii past it, each with the law mismatch from there on."""
    at = np.concatenate([[s], radii[radii > s]])
    return at, mismatch[np.searchsorted(radii, at, side="right") - 1]


@dataclass(frozen=True)
class ExteriorDomain:
    """The region outside the boundary sphere {s = s0}."""

    metric: WarpFunction
    s0: float

    def __post_init__(self):
        self.metric.require_contains(self.s0)


class TailIntegrator:
    """Evaluates I(s) = integral of f^-2 over [s, infinity).

    Panel quadrature covers [s_lo, s_cut] and the pure tail law
    c^-2 s_cut^(1-2 beta)/(2 beta - 1) stands in for the rest.  Where the
    law mismatch |f/(c s^beta) - 1| stays below m from s_cut outward, that
    stand-in errs by at most 3 m of the law's value at s_cut, so s_cut is
    the first probe radius past ``usable_hi`` (the top of the queried
    range) where this error is within TAIL_BUDGET of I there.  If no probe
    radius meets the budget (a table ends first), the integrator stops at
    the last one, is ``degraded`` and says so in a warning.
    """

    def __init__(self, metric: WarpFunction, s_lo: float, s_query_hi: float):
        c, beta = _tail_law(metric)
        s_lo = float(s_lo)
        s_hi = min(max(float(s_query_hi), s_lo * 2.0, 1.0), metric.domain_end)

        radii, mismatch = metric.law_mismatch
        at, m = _outward(radii, mismatch, s_hi)
        err = 3.0 * m * (at / s_hi) ** (1.0 - 2.0 * beta)  # relative to the law at s_hi
        ok = err <= TAIL_BUDGET
        self.degraded = not ok.any()
        i = len(at) - 1 if self.degraded else int(np.argmax(ok))
        s_cut = self.s_cut = float(at[i])
        self.usable_hi = s_hi
        self.tail_const = s_cut ** (1.0 - 2.0 * beta) / (c * c * (2.0 * beta - 1.0))
        edges = panel_edges(s_lo, s_cut, metric.breakpoints)
        self.quad = PanelQuadrature(lambda s: metric.f(s) ** -2.0, edges)
        (log.warning if self.degraded else log.debug)(
            "%s: tail cut at s=%.6g for queries up to %.6g; analytic tail error "
            "bound %.2e (budget %.0e)", metric.label, s_cut, s_hi, err[i], TAIL_BUDGET)

    def value(self, s):
        """I(s); vectorized over s within [grid start, usable_hi]."""
        s_arr = np.asarray(s, float)
        if np.any(s_arr > self.usable_hi * (1.0 + 1e-9)):
            raise DomainError(
                f"tail integral queried beyond usable radius {self.usable_hi:g}"
            )
        return self.quad.integral_to_end(s_arr) + self.tail_const


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

        # I(s0) >= I(p) >= (1 - 3 m(p)) I_law(p) at every probe radius p past
        # s0; inverting the pure law I_law(s) = s^(1-2 beta)/(c^2 (2 beta - 1))
        # at that bound times e^-(t_max + 0.1) bounds the radius of the level
        # t_max from above, so one integrator sized there reaches it.
        _, beta = _tail_law(metric)
        radii, mismatch = metric.law_mismatch
        p, m = _outward(radii, mismatch, max(s0, radii[0]))
        trusted = m < 1.0 / 3.0
        if not trusted.any():
            raise NumericError(f"{metric.label}: the tail law never comes within 1/3 of f")
        log_lower = np.log1p(-3.0 * m[trusted]) + (1.0 - 2.0 * beta) * np.log(p[trusted])
        log_s = (float(log_lower.max()) - self.t_max - 0.1) / (1.0 - 2.0 * beta)
        s_level = radii[-1]  # tabulated: levels end at the last row
        if log_s <= math.log(radii[-1]):
            s_level = math.exp(log_s)
        elif radii[-1] < metric.domain_end:
            raise NumericError(
                f"{metric.label}: the level t={self.t_max:g} lies near s=1e{log_s / math.log(10):.0f}, "
                f"outside the float range (the tail law is probed up to s={radii[-1]:.3g})"
            )
        integ = TailIntegrator(metric, s0, max(s_level, float(s_max or 0.0)))
        self._integ = integ
        self._i0 = i0 = float(integ.value(s0))
        self.ncap = 1.0 / i0
        self.s_cut = integ.s_cut

        edges = integ.quad.edges
        i_edges = integ.quad.total - integ.quad.prefix + integ.tail_const
        mask = (edges >= s0 * (1 - 1e-12)) & (edges <= integ.usable_hi * (1 + 1e-12))
        t_seed = np.log(i0 / i_edges[mask])
        keep = np.concatenate([[True], np.diff(t_seed) > 1e-13])
        self._t_seed, self._s_seed = t_seed[keep], edges[mask][keep]
        self.t_usable = float(self._t_seed[-1])
        if self.t_usable < self.t_max:
            if integ.usable_hi < metric.domain_end:
                raise NumericError(f"{metric.label}: the tail grid reaches t={self.t_usable:.4g} "
                                   f"only, short of t_max={self.t_max:g}")
            log.warning("%s: tabulated profile only reaches t=%.4g < requested t_max=%.4g",
                        metric.label, self.t_usable, self.t_max)
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

        Seeded by linear interpolation in the (t, s) pairs at the panel
        edges and polished by four Newton steps on the closed-form
        residual.  Raises NumericError when the last step starts more than
        1e-10 from the level (the round-trip contract).
        """
        t_arr = np.asarray(t, float)
        scalar = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        if np.any(t_arr < -1e-12) or np.any(t_arr > self.t_usable + 1e-9):
            raise DomainError(
                f"level value outside [0, {self.t_usable:g}] (grid never extrapolates)"
            )
        tc = np.clip(t_arr, 0.0, self.t_usable)
        s = np.clip(np.interp(tc, self._t_seed, self._s_seed), self.s0, self._integ.usable_hi)
        for _ in range(4):
            tail = self._integ.value(s)
            resid = np.log(self._i0 / tail) - tc
            # Newton step: dw/ds = |grad w| = f^-2 / I
            s = s - resid * tail * self.metric.f(s) ** 2
            s = np.clip(s, self.s0, self._integ.usable_hi)
        worst = float(np.abs(resid).max(initial=0.0))
        if not worst <= 1e-10:
            raise NumericError(f"{self.metric.label}: the level map did not converge "
                               f"(last Newton residual {worst:.2e} > 1e-10)")
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
        t_diag = np.linspace(min(0.2, 0.5 * self.t_max), 0.9 * min(self.t_max, 6.0), 12)
        s_diag = np.atleast_1d(self.s_of_t(t_diag))
        # the stencil reaches 2 h either side; it stays outside the boundary
        # sphere and off the profile's breakpoints, where the derivatives of u jump
        h = np.minimum(0.01 * s_diag, 0.5 * (s_diag - self.s0))
        for b in self.metric.breakpoints:
            h = np.minimum(h, 0.5 * np.abs(s_diag - b))
        du = five_point_first(self.u, s_diag, h)
        flux = self.metric.f(s_diag) ** 2 * du
        resid = np.abs(flux * self._i0 + 1.0)
        worst = float(resid.max())
        if worst > 1e-6:
            raise NumericError(
                f"{self.metric.label}: radial harmonic identity violated "
                f"(flux residual {worst:.2e} > 1e-6)"
            )
        log.debug("%s: harmonic flux residual %.2e", self.metric.label, worst)


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
