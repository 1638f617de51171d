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
from .quadrature import SEED_FRACTIONS, PanelQuadrature, lin_grid, panel_edges
from .stencils import FIRST, first_from, nodes, step

log = logging.getLogger(__name__)

#: largest error the analytic tail beyond the truncation radius may add to
#: a queried I(s), relative to I at the top of the queried range
TAIL_BUDGET = 1e-10


def _tail_law(metric: WarpFunction):
    """(c, beta) of the tail law f ~ c s^beta, with beta in (1/2, 1] and c^-2 finite."""
    c, beta = metric.tail_coefficient, metric.tail_exponent
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
    if not c * c >= np.finfo(float).tiny:
        raise NumericError(f"{metric.label}: tail coefficient c={c:g} is too small; "
                           "f^-2 ~ c^-2 s^(-2 beta) cannot be represented")
    return c, beta


def _hermite_end(s, ds, d2s, x, dt):
    """One end's part of a quintic Hermite interpolant, at the fraction x and distance dt from that end."""
    return s * (1.0 + x * (3.0 + 6.0 * x)) + dt * (ds * (1.0 + 3.0 * x) + 0.5 * dt * d2s)


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
    the last one, is ``degraded`` and says so in a warning.  Queries reach
    s_hi = max(s_query_hi, 2 s_lo, 1): 2 s_lo keeps TailIntegrator(metric, s, s) off an
    empty range, and 1 keeps ``judge``'s kappa_LY fit, read from max(2 s0, 1), inside
    ``usable_hi``, a panel edge, where the level map's seed knots end.  I(s_lo) is
    ``i_lo``; a NumericError names one that is 0 or inf.
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
        self.usable_hi, self._s_hi = s_hi, s_hi * (1.0 + 1e-9)  # and the bound value() checks
        self.tail_const = s_cut ** (1.0 - 2.0 * beta) / (c * c * (2.0 * beta - 1.0))
        edges = panel_edges(s_lo, s_cut, (*metric.breakpoints, s_hi))
        # f^-2 overflows near a tiny s_lo (or divides by an f that underflows to 0), I(s_lo) with it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.quad = PanelQuadrature(lambda s: metric.f(s) ** -2.0, edges)
        (log.warning if self.degraded else log.debug)(
            "%s: tail cut at s=%.6g for queries up to %.6g; analytic tail error "
            "bound %.2e (budget %.0e)", metric.label, s_cut, s_hi, err[i], TAIL_BUDGET)
        self.i_lo = i_lo = float(self.quad.suffix[0] + self.tail_const)  # every panel, and the tail
        if not 0.0 < i_lo < math.inf:
            raise NumericError(f"{metric.label}: I(s0), the integral of f^-2, "
                               f"{'underflows to 0' if i_lo == 0.0 else 'overflows'} at s0={s_lo:g}")

    def value(self, s):
        """I(s), vectorized over s in [grid start, usable_hi]; tests s <= usable_hi, the quadrature its ends."""
        s_arr = np.asarray(s, float)
        if not (s_arr <= self._s_hi).all():
            raise DomainError(f"tail integral queried beyond usable radius {self.usable_hi:g}")
        return self.quad.integral_to_end(s_arr) + self.tail_const


class PotentialSolution:
    """Closed-form exterior potential on a warped radial metric.

    Immutable after construction; all evaluation methods are pure and
    vectorized, so instances can be shared freely across threads.  An I(s)
    query tests each bound once, then costs one searchsorted and one Clenshaw sum.
    """

    def __init__(self, domain: ExteriorDomain, t_max: float = 8.0):
        metric = domain.metric
        s0 = float(domain.s0)
        self.metric = metric
        self.s0 = s0
        self._s_lo = s0 * (1 - 1e-12) - 1e-300  # the bound tail() checks
        self.t_max = float(t_max)
        if not 0 < self.t_max < math.inf:
            raise DomainError(f"t_max must be positive and finite, got {t_max}")

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
                f"{metric.label}: the level t={self.t_max:g} lies near s=1e{log_s / math.log(10):.1f}, "
                f"past s={radii[-1]:.3g} where the tail-law probe ends"
            )
        self._integ = integ = TailIntegrator(metric, s0, s_level)
        self._i0 = i0 = integ.i_lo
        self.ncap = 1.0 / i0

        quad = integ.quad
        n = int(np.searchsorted(quad.edges, integ.usable_hi * (1 + 1e-12), side="right")) - 1
        s = np.append(quad.edges[:n, None] + np.diff(quad.edges[:n + 1])[:, None] * SEED_FRACTIONS, quad.edges[n])
        tail = np.append(quad.integral_to_end_at(n), quad.suffix[n]) + integ.tail_const
        with np.errstate(over="ignore"):
            f, df = metric.jet(s)[:2]
        if not f.max() <= 2.0 ** 510:  # past it f^-2 is subnormal and the area 4 pi f^2 overflows
            k = int(np.argmax(f))
            raise NumericError(f"{metric.label}: f={f[k]:.3g} at s={s[k]:.3g} passes 2^510 on the tail grid sized "
                               f"for t_max={self.t_max:g} (s0={s0:g}, tail coefficient {metric.tail_coefficient:g})")
        if not (tail > 0.0).all():  # a panel sum over a spike of f^-2 it does not resolve can go negative
            k = int(np.argmin(tail > 0.0))
            raise NumericError(f"{metric.label}: I(s), the integral of f^-2 past s, reads {tail[k]:.3g}, not "
                               f"positive, at s={s[k]:.6g} on the seed grid; the quadrature does not resolve f there")
        t = np.maximum(np.log(i0 / tail), 0.0)  # at s0 the panel sums may differ from i0 in the last digit
        keep = np.concatenate([[True], np.diff(t) > 1e-13])
        t, s, tail, f, df = t[keep], s[keep], tail[keep], f[keep], df[keep]
        # the seed: (t, s, s', s'') per knot, with s' = 1 / |grad w| = I f^2 and s'' = s' (2 I f f' - 1)
        ds = tail * f * f
        self._seed = np.stack([t, s, ds, ds * (2.0 * tail * f * df - 1.0)])
        self.t_usable = float(self._seed[0, -1])
        self._t_hi = self.t_usable + 1e-9  # the bound _level_map checks
        if self.t_usable < self.t_max:
            if integ.usable_hi < metric.domain_end or self.t_usable == 0.0:  # one knot maps no level
                raise NumericError(f"{metric.label}: the tail grid reaches t={self.t_usable:.4g} "
                                   f"only, short of t_max={self.t_max:g}")
            log.warning("%s: tabulated profile only reaches t=%.4g < requested t_max=%.4g",
                        metric.label, self.t_usable, self.t_max)
            self.t_max = self.t_usable

        self._verify_harmonic()

    # -- closed-form fields -------------------------------------------------

    def tail(self, s):
        """I(s), the exterior Green integral; tests s >= s0 (NaN fails), value() and the quadrature the rest."""
        s_arr = np.asarray(s, float)
        if not (s_arr >= self._s_lo).all():
            raise DomainError("potential evaluated inside the boundary sphere or at NaN")
        return self._integ.value(s_arr)

    def u(self, s):
        """Harmonic potential, 1 on the boundary, decaying at infinity."""
        return self.tail(s) / self._i0

    def w(self, s):
        """-log u; satisfies Delta w = |grad w|^2 with w = 0 on the boundary."""
        return np.log(self._i0 / self.tail(s))

    def grad_w(self, s):
        """|grad w| = f^-2 / I, from the closed form (no differencing)."""
        return self.metric.f(s) ** -2.0 / self.tail(s)

    def du_stencil(self, s):
        """u' five-point with h = step(s, 0.003, s0, breakpoints), a check on the closed forms."""
        h = step(s, 0.003, self.s0, self.metric.breakpoints)
        return first_from(self.u(nodes(s, h)[..., FIRST]), h)

    def flux_residual(self, s, du):
        """|f^2 u' I(s0) + 1| with u' = du at s, as ``du_stencil`` gives it; the radial
        flux f^2 u' equals -1/I(s0), so this measures the numerics only."""
        return np.abs(self.metric.f(s) ** 2 * du * self._i0 + 1.0)

    # -- level-set parametrization -------------------------------------------

    def s_of_t(self, t):
        """Radius of the level set {w = t}, shaped like t: the quintic seed ``_level_map`` checked."""
        s, _ = self._level_map(t)
        return float(s[0]) if np.ndim(t) == 0 else s

    def _level_map(self, t):
        """(s, I(s)) at the level radii of t (at least 1-d); s0 and I(s0) at t = 0.

        The radius is the quintic Hermite seed, which errs by ~1e-12 in t or less
        and so takes no Newton step; one I(s) query there gives I and the residual.
        Raises NumericError when the residual exceeds 1e-10 (the round trip)."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        if not ((-1e-12 <= t_arr) & (t_arr <= self._t_hi)).all():
            raise DomainError(f"level value outside [0, {self.t_usable:g}] (grid never extrapolates)")
        tc = np.minimum(np.maximum(t_arr, 0.0), self.t_usable)
        k = np.searchsorted(self._seed[0, 1:-1], tc, side="right")  # over the interior knots
        lo, hi = self._seed.take(k, axis=1), self._seed.take(k + 1, axis=1)  # (t, s, s', s'') at k, k + 1
        h = hi[0] - lo[0]
        u = (tc - lo[0]) / h
        w = 1.0 - u
        s = w * w * w * _hermite_end(*lo[1:], u, h * u) + u * u * u * _hermite_end(*hi[1:], w, -h * w)
        del k, h, u, w, lo, hi  # before the query, the level map's memory peak
        s = np.minimum(np.maximum(s, self.s0), self._integ.usable_hi)  # in [s0, usable_hi]: ask quad alone
        tail = self._integ.quad.integral_to_end(s) + self._integ.tail_const
        worst = float(np.abs(np.log(self._i0 / tail) - tc).max(initial=0.0))
        if not worst <= 1e-10:
            raise NumericError(f"{self.metric.label}: the level map did not converge "
                               f"(residual {worst:.2e} > 1e-10 at the seed)")
        return s, tail

    # -- construction diagnostics ---------------------------------------------

    def _verify_harmonic(self):
        """Check (f^2 u')' = 0 by finite differences on a diagnostic grid.

        The radial flux f^2 u' of the closed-form solution must equal
        -1/I(s0) everywhere; differencing quadrature-evaluated u values
        probes the consistency of the tail integrals to ~1e-8.
        """
        s = self.s_of_t(lin_grid(min(0.2, 0.5 * self.t_usable), 0.9 * min(self.t_usable, 6.0), 12))
        worst = float(self.flux_residual(s, self.du_stencil(s)).max())
        if worst > 1e-6:
            raise NumericError(
                f"{self.metric.label}: radial harmonic identity violated "
                f"(flux residual {worst:.2e} > 1e-6)"
            )
        log.debug("%s: harmonic flux residual %.2e", self.metric.label, worst)

