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

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .errors import DomainError
from .potential import PotentialSolution
from .stencils import grid_derivative

FOUR_PI = 4.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi

CSV_COLUMNS = ("t", "s", "area", "H", "grad_w", "F", "G", "willmore",
               "dF_explicit", "ncap_t")


@dataclass(frozen=True)
class FunctionalSample:
    """All level-set quantities at a single level t."""

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


@dataclass(frozen=True)
class FunctionalSeries:
    """Samples on a uniform level grid, with provenance for serialization."""

    t: np.ndarray
    s: np.ndarray
    area: np.ndarray
    H: np.ndarray
    grad_w: np.ndarray
    F: np.ndarray
    G: np.ndarray
    willmore: np.ndarray
    dF_explicit: np.ndarray
    ncap_t: np.ndarray
    metric: metrics.WarpFunction
    s0: float

    def __len__(self):
        return len(self.t)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def to_csv(self, path_or_handle):
        """Write the series CSV (17 significant digits, fixed column order)."""
        if hasattr(path_or_handle, "write"):
            self._write(path_or_handle)
        else:
            with open(path_or_handle, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        fh.write(",".join(CSV_COLUMNS) + "\n")
        cols = [getattr(self, c) for c in CSV_COLUMNS]
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue()


def _fields_at(sol: PotentialSolution, t_arr):
    s = np.atleast_1d(sol.s_of_t(t_arr))
    metric = sol.metric
    f = metric.f(s)
    area = FOUR_PI * f * f
    H = 2.0 * metric.df(s) / f
    gw = np.atleast_1d(sol.grad_w(s))
    F = area * (H * gw - gw * gw)
    G = area * gw * gw
    willmore = area * H * H
    ric_rad = -2.0 * metric.d2f(s) / f
    dF = -area * (ric_rad + 0.5 * (H - 2.0 * gw) ** 2)
    ncap_t = f * f * gw
    return s, area, H, gw, F, G, willmore, dF, ncap_t


def sample_at(sol: PotentialSolution, t: float) -> FunctionalSample:
    """Evaluate all level-set functionals at one level."""
    vals = _fields_at(sol, float(t))
    return FunctionalSample(float(t), *(float(v[0]) for v in vals))


def build_series(sol: PotentialSolution, t_max: Optional[float] = None,
                 n: int = 2001) -> FunctionalSeries:
    """Sample the functionals on a uniform level grid [0, t_max]."""
    t_max = sol.t_max if t_max is None else float(t_max)
    if t_max > sol.t_usable + 1e-9:
        raise DomainError(f"series t_max={t_max} beyond solvable range {sol.t_usable:g}")
    if n < 3:
        raise DomainError("series needs at least 3 samples")
    t = np.linspace(0.0, t_max, int(n))
    s, area, H, gw, F, G, willmore, dF, ncap_t = _fields_at(sol, t)
    return FunctionalSeries(t, s, area, H, gw, F, G, willmore, dF, ncap_t,
                            sol.metric, sol.s0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    """Monotonicity of F and the match of its explicit derivative.

    F is nonincreasing when the Ricci curvature is nonnegative over the
    sampled window; when it is not, the report flags the hypothesis as
    unmet and only the derivative cross-check is meaningful.
    """

    hypothesis_met: bool
    monotone_ok: Optional[bool]
    max_increase: float
    derivative_ok: bool
    max_derivative_error: float

    @property
    def ok(self) -> bool:
        return self.derivative_ok and (self.monotone_ok is not False)


def check_monotonicity(series: FunctionalSeries,
                       monotone_tol: float = 1e-7,
                       derivative_rtol: float = 1e-4) -> MonotonicityReport:
    """Verify F is nonincreasing and F' matches the explicit formula.

    The derivative comparison uses central differences on the series
    grid at interior nodes, relative to max(1, |dF_explicit|).  F'' jumps
    where f''' does, at the profile's breakpoints, so a node whose central
    stencil straddles one takes the second-order one-sided stencil from
    the side that crosses none.
    """
    window = np.geomspace(max(series.s[0], 1e-12), series.s[-1], 2048)
    hypothesis = bool(np.all(metrics._pinch_margins(series.metric, window)[1]))
    increments = np.diff(series.F)
    max_increase = float(increments.max(initial=-np.inf))
    monotone_ok = bool(np.all(increments <= monotone_tol)) if hypothesis else None

    fd = _seam_derivative(series.F, series.s, series.dt, series.metric.breakpoints)[1:-1]
    ref = series.dF_explicit[1:-1]
    err = np.abs(fd - ref) / np.maximum(1.0, np.abs(ref))
    max_err = float(err.max())
    return MonotonicityReport(hypothesis, monotone_ok, max_increase,
                              max_err <= derivative_rtol, max_err)


def _seam_derivative(y, s, dt, breakpoints):
    """``grid_derivative`` of samples y at radii s, one-sided next to breakpoints."""
    out = grid_derivative(y, dt)
    for b in breakpoints:
        k = int(np.searchsorted(s, b))  # s[k-1] < b <= s[k]
        if 3 <= k < len(s) and s[k] > b:  # b right of node k-1: look left
            out[k - 1] = (3.0 * y[k - 1] - 4.0 * y[k - 2] + y[k - 3]) / (2.0 * dt)
        if 1 <= k <= len(s) - 3:  # b left of node k (or on it): look right
            out[k] = (-3.0 * y[k] + 4.0 * y[k + 1] - y[k + 2]) / (2.0 * dt)
    return out


def check_G_ode(series: FunctionalSeries) -> float:
    """Max residual of G' = G - F at interior nodes, relative to max(1, F).

    The identity holds for every warp profile regardless of curvature
    sign, so it is a pure consistency check of the numerics.
    """
    fd = grid_derivative(series.G, series.dt)[1:-1]
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
    eps_star: float


def genus_zero_inequality_check(sol: PotentialSolution, t: float,
                                epsilon: float) -> GenusZeroResult:
    s = float(sol.s_of_t(float(t)))
    ok, eps_star = metrics.pinched(sol.metric, np.array([s]), epsilon)
    hypothesis = bool(ok[0])
    point = metrics.curvature_at(sol.metric, s)
    area = FOUR_PI * point.areal_radius**2
    willmore = area * (2.0 * sol.metric.df(s) / point.areal_radius) ** 2
    lhs = 2.0 * area * point.ric_rad
    rhs = epsilon * (SIXTEEN_PI - willmore)
    passed = bool(lhs >= rhs - 1e-9) if hypothesis else None
    return GenusZeroResult(float(lhs), float(rhs), passed, hypothesis,
                           float(eps_star[0]))


@dataclass(frozen=True)
class BoundaryWillmore:
    """Willmore energy of the boundary sphere and the 16 pi test."""

    value: float
    below_threshold: bool


def boundary_willmore(sol: PotentialSolution) -> BoundaryWillmore:
    """Willmore energy of the boundary {s = s0}; strict bound against 16 pi.

    Equal to 16 pi f'(s0)^2 for a warp profile, hence exactly 16 pi on
    flat space (the borderline case) and below it wherever the profile
    has started to bend (f' < 1).
    """
    value = float(SIXTEEN_PI * sol.metric.df(sol.s0) ** 2)
    return BoundaryWillmore(value, bool(value < SIXTEEN_PI))
