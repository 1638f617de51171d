"""Level-set functionals of the exterior potential.

For each level sphere {w = t} (area A, mean curvature H, gradient
g = |grad w|, all constant over the sphere) we track

    F(t)        = A * (H g - g^2)      mean-curvature flux minus Dirichlet density
    G(t)        = A * g^2              Dirichlet density of the level set
    willmore(t) = A * H^2              Willmore energy of the level sphere

together with the explicit derivative of F.  On round level sets the
tangential gradient of |grad w| and the traceless second fundamental
form vanish identically, so the derivative reduces to

    F'(t) = -A * [ ric_rad + (H - 2 g)^2 / 2 ],

which is checked against finite differences of F in the verification
suite.  Two algebraic facts hold sample by sample: F <= willmore/4
(expand the square (H/2 - g)^2 >= 0), and, whenever the Ricci curvature
is nonnegative on the window, 0 <= G <= F with G' = G - F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .config import count
from .errors import DomainError, NumericError
from .potential import ExteriorDomain, PotentialSolution
from .quadrature import lin_grid
from .stencils import grid_derivative

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi

CSV_COLUMNS = ("t", "s", "area", "H", "grad_w", "F", "G", "willmore",
               "dF_explicit", "ncap_t")


@dataclass(frozen=True)
class FunctionalSample:
    """All level-set quantities at a single level t, or arrays of them at an
    array of levels.  ``ric_rad`` is Ric(nu, nu) at the level radius, and
    ``eps_star`` (the pinching margin) and ``ric_ok`` (Ric >= 0) are the
    margins of ``metrics._pinch_margins`` there."""

    t: float
    s: float
    area: float
    H: float
    grad_w: float
    F: float
    G: float
    willmore: float
    dF_explicit: float
    ncap_t: float
    ric_rad: float
    eps_star: float
    ric_ok: bool


@dataclass(frozen=True)
class FunctionalSeries(FunctionalSample):
    """Uniform level-grid samples as arrays; d_dt, pinching_window and series_pinching read metric and s0."""

    metric: metrics.WarpFunction
    s0: float

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def d_dt(self, y):
        """``grid_derivative`` of a column, cut at the first level past each breakpoint (y'' jumps)."""
        return grid_derivative(y, self.dt, np.searchsorted(self.s, self.metric.breakpoints))

    def to_csv(self, path):
        """Write the series CSV (17 significant digits, fixed column order)."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in zip(*(getattr(self, c) for c in CSV_COLUMNS)):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _fields_at(sol: PotentialSolution, t_arr):
    """The FunctionalSample fields after t as arrays, from one profile jet and one I per radius."""
    s, tail = sol._level_map(t_arr)
    metric = sol.metric
    with np.errstate(over="ignore", invalid="ignore"):  # terms like s^-2 overflow near a tiny s0
        f, df, d2f = metric.jet(s)
        _, _, ric_rad, ric_tan, scalar = metrics._curvature(f, df, d2f)
        del d2f
        area = FOUR_PI * f * f
        H = 2.0 * df / f
        gw = f ** -2.0 / tail  # sol.grad_w(s), from the f and I already at hand
        F = area * (H * gw - gw * gw)
        G = area * gw * gw
        willmore = area * H * H
        dF = -area * (ric_rad + 0.5 * (H - 2.0 * gw) ** 2)
        ncap_t = f * f * gw
        if not np.isfinite(scalar + F + dF + willmore).all():  # an overflow leaves inf or nan
            raise NumericError(f"{metric.label}: the level-set fields overflow near s0={sol.s0:g}")
    eps_star, ric_ok = metrics._pinch_margins(ric_rad, ric_tan, scalar)
    return s, area, H, gw, F, G, willmore, dF, ncap_t, ric_rad, eps_star, ric_ok


def sample_at(sol: PotentialSolution, t) -> FunctionalSample:
    """Evaluate all level-set functionals at one level, or at an array of levels."""
    t = metrics.array("level t", t)
    vals = _fields_at(sol, t)
    if t.ndim == 0:
        return FunctionalSample(float(t), *(v[0].item() for v in vals))
    return FunctionalSample(t, *vals)


def build_series(sol: PotentialSolution, n: int = 2001) -> FunctionalSeries:
    """Sample the functionals on a uniform level grid [0, sol.t_max]."""
    if (n := count("n", n)) < 3:
        raise DomainError("series needs at least 3 samples")
    t = lin_grid(0.0, sol.t_max, n)
    series = FunctionalSeries(t, *_fields_at(sol, t), sol.metric, sol.s0)
    if not np.all(series.s[1:] > series.s[:-1]):
        raise DomainError(f"t_max={sol.t_max:g} is too small for {n} levels: their radii coincide")
    return series


def capacity_scaling_check(sol: PotentialSolution, smp: FunctionalSample) -> float:
    """Max relative failure of ncap(t) = e^t * ncap(0) over the levels of ``smp``.

    ncap(t) = f(s(t))^2 |grad w|(s(t)) is the boundary flux through the
    level sphere; the identity is exact for the exterior potential, so
    the returned deviation measures the numerics only.
    """
    return float(np.abs(smp.ncap_t * np.exp(-smp.t) / sol.ncap - 1.0).max())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    """Monotonicity of F and the match of its explicit derivative.

    F is nonincreasing when the Ricci curvature is nonnegative at every
    sampled level radius (``hypothesis_met``); when it is not, only the
    derivative cross-check is meaningful.
    """

    hypothesis_met: bool
    max_increase: float
    max_derivative_error: float


def check_monotonicity(series: FunctionalSeries) -> MonotonicityReport:
    """Measure how far F steps up between levels and F' misses the explicit
    formula, at interior nodes by ``FunctionalSeries.d_dt`` relative to
    max(1, |dF_explicit|); the verify table holds the tolerances."""
    max_increase = float(np.diff(series.F).max(initial=-np.inf))
    fd = series.d_dt(series.F)[1:-1]
    ref = series.dF_explicit[1:-1]
    err = np.abs(fd - ref) / np.maximum(1.0, np.abs(ref))
    return MonotonicityReport(bool(np.all(series.ric_ok)), max_increase, float(err.max()))


def check_G_ode(series: FunctionalSeries) -> float:
    """Max residual of G' = G - F at interior nodes, relative to max(1, F).

    The identity holds for every warp profile regardless of curvature
    sign, so it is a pure consistency check of the numerics.
    """
    fd = series.d_dt(series.G)[1:-1]
    resid = np.abs(fd - (series.G - series.F)[1:-1])
    return float((resid / np.maximum(1.0, np.abs(series.F[1:-1]))).max())


@dataclass(frozen=True)
class GenusZeroResult:
    """Both sides of the pinched-sphere curvature bound at one level:

        2 * integral Ric(nu, nu)  >=  epsilon * (16 pi - integral H^2).

    Valid only where the pinching condition holds at the level radius;
    otherwise ``hypothesis_met`` is False and ``passed`` is None.
    """

    lhs: float
    rhs: float
    passed: Optional[bool]
    hypothesis_met: bool


def genus_zero_inequality_check(sol: PotentialSolution, t: float,
                                epsilon: float) -> GenusZeroResult:
    epsilon = metrics.positive_epsilon(epsilon)
    smp = sample_at(sol, float(t))
    hypothesis = bool(metrics.pinched_where(smp.eps_star, epsilon))
    lhs = 2.0 * smp.area * smp.ric_rad
    rhs = epsilon * (SIXTEEN_PI - smp.willmore)
    passed = bool(lhs >= rhs - 1e-9) if hypothesis else None
    return GenusZeroResult(lhs, rhs, passed, hypothesis)


@dataclass(frozen=True)
class BoundaryWillmore:
    """Willmore energy of the boundary sphere and the 16 pi test."""

    value: float
    below_threshold: bool


def boundary_willmore(at: ExteriorDomain | PotentialSolution) -> BoundaryWillmore:
    """Willmore energy of the boundary {s = s0}; strict bound against 16 pi.

    Equal to 16 pi f'(s0)^2 for a warp profile, hence exactly 16 pi on
    flat space (the borderline case) and below it wherever the profile
    has started to bend (f' < 1).  Reads only ``metric`` and ``s0``.
    """
    value = float(SIXTEEN_PI * at.metric.df(at.s0) ** 2)
    return BoundaryWillmore(value, bool(value < SIXTEEN_PI))
