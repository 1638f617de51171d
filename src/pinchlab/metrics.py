"""Rotationally symmetric 3-metrics g = ds^2 + f(s)^2 g_{S^2}.

Every metric in the package is a warp profile: a positive function f of
the radial arclength s, carried together with its first two derivatives
and its power-law tail behaviour f(s) ~ c * s^beta.  All curvature of
the warped metric is determined by f:

    sectional (radial planes)     K_rad   = -f''/f
    sectional (tangential plane)  K_tan   = (1 - f'^2) / f^2
    radial Ricci eigenvalue       ric_rad = -2 f''/f
    tangential Ricci eigenvalue   ric_tan = -f''/f + (1 - f'^2)/f^2
    scalar curvature              R       = -4 f''/f + 2 (1 - f'^2)/f^2

The module provides the analytic catalog (flat space, cones, power-law
warps, the spatial Schwarzschild slice, a spherical cap blended into a
cone, tabulated profiles), curvature evaluation with an independent
finite-difference oracle, the curvature-pinching check, ball volumes,
and volume-growth fits.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericError, UsageError
from .quadrature import PanelQuadrature, panel_edges

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Warp profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WarpFunction:
    """A radial warp profile and everything the geometry needs from it.

    Instances are immutable and safe to share between threads.  ``f`` must
    be positive and twice continuously differentiable on the open domain;
    pole-smooth profiles additionally satisfy f(0) = 0, f'(0) = 1 so the
    metric closes up smoothly at the pole.

    ``tail_coefficient``/``tail_exponent`` describe the asymptotic law
    f(s) ~ c * s^beta used for analytic tail corrections; profiles fed to
    the exterior-potential solver must have beta in (1/2, 1].
    """

    kind: str
    params: Mapping[str, float]
    domain_start: float
    pole_smooth: bool
    inclusive_start: bool
    tail_coefficient: float
    tail_exponent: float
    core_volume: float
    breakpoints: Tuple[float, ...]
    domain_end: float
    fn: Callable = field(repr=False)
    dfn: Callable = field(repr=False)
    d2fn: Callable = field(repr=False)

    def f(self, s):
        return self.fn(np.asarray(s, float))

    def df(self, s):
        return self.dfn(np.asarray(s, float))

    def d2f(self, s):
        return self.d2fn(np.asarray(s, float))

    @cached_property
    def law_mismatch(self):
        """Probe radii out to the table end, 1e300 or the end of the float range,
        each with the largest tail-law mismatch |f/(c s^beta) - 1| from there on."""
        lo, hi = max(self.domain_start, 1e-6), min(self.domain_end, 1e300)
        radii = np.geomspace(lo, hi, int(4 * math.log10(hi / lo)) + 2)
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.abs(self.f(radii) / (self.tail_coefficient * radii**self.tail_exponent) - 1.0)
        finite = np.logical_and.accumulate(np.isfinite(m))
        return radii[finite], np.maximum.accumulate(m[finite][::-1])[::-1]

    @property
    def label(self) -> str:
        if not self.params:
            return self.kind
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.kind}({inner})"

    def contains(self, s) -> bool:
        s = float(s)
        if s > self.domain_end:
            return False
        if s > self.domain_start:
            return True
        return self.inclusive_start and s == self.domain_start

    def require_contains(self, s):
        if not self.contains(s):
            raise DomainError(
                f"radius s={s!r} outside the domain of {self.label} "
                f"({'[' if self.inclusive_start else '('}{self.domain_start}, {self.domain_end})"
            )

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"WarpFunction<{self.label}>"


def from_callables(kind, fn, dfn, d2fn, *, params=None, domain_start=0.0,
                   pole_smooth=False, inclusive_start=False,
                   tail_coefficient=1.0, tail_exponent=1.0, core_volume=0.0,
                   breakpoints=(), domain_end=math.inf) -> WarpFunction:
    """Wrap arbitrary vectorized callables (f, f', f'') as a warp profile.

    Intended for tests and one-off experiments; the catalog constructors
    below should be preferred for the standard geometries.
    """
    return WarpFunction(
        kind=kind, params=dict(params or {}), domain_start=float(domain_start),
        pole_smooth=pole_smooth, inclusive_start=inclusive_start,
        tail_coefficient=float(tail_coefficient), tail_exponent=float(tail_exponent),
        core_volume=float(core_volume), breakpoints=tuple(breakpoints),
        domain_end=float(domain_end), fn=fn, dfn=dfn, d2fn=d2fn,
    )


def flat_space() -> WarpFunction:
    """Euclidean space: f(s) = s."""
    return from_callables(
        "flat",
        lambda s: s,
        lambda s: np.ones_like(s),
        lambda s: np.zeros_like(s),
        pole_smooth=True, tail_coefficient=1.0, tail_exponent=1.0,
    )


def cone(slope: float) -> WarpFunction:
    """A metric cone: f(s) = a*s with opening slope 0 < a <= 1.

    The vertex s = 0 is a conical singularity (excluded from the domain),
    but the ball volume integral converges so volumes are measured from 0.
    """
    a = float(slope)
    if not 0 < a <= 1:
        raise UsageError(f"cone slope must lie in (0, 1], got {a}")
    return from_callables(
        "cone",
        lambda s: a * s,
        lambda s: np.full_like(s, a),
        lambda s: np.zeros_like(s),
        params={"a": a}, tail_coefficient=a, tail_exponent=1.0,
    )


def power_law(coefficient: float, exponent: float) -> WarpFunction:
    """Pure power-law warp f(s) = c * s^beta, the workhorse test profile.

    For beta in (0, 1) the radial Ricci eigenvalue is positive and decays
    like s^-2 while the scalar curvature decays like s^-2*beta, so the
    pinching margin tends to zero at infinity.
    """
    c = float(coefficient)
    b = float(exponent)
    if not (0 < c < math.inf and 0 < b < math.inf):
        raise UsageError("power-law warp needs positive finite coefficient and exponent")
    return from_callables(
        "power",
        lambda s: c * s ** b,
        lambda s: c * b * s ** (b - 1.0),
        lambda s: c * b * (b - 1.0) * s ** (b - 2.0),
        params={"c": c, "beta": b}, tail_coefficient=c, tail_exponent=b,
    )


def schwarzschild_slice(mass: float) -> WarpFunction:
    """Time-symmetric spatial Schwarzschild slice of mass m.

    In areal radius r the metric is dr^2/(1 - 2m/r) + r^2 g_{S^2} for
    r >= 2m.  We parametrize by arclength s from the horizon, using the
    closed form (with xi = sqrt(r - 2m))

        s(r) = sqrt(r (r - 2m)) + 2m log((sqrt(r) + xi) / sqrt(2m)),

    and invert it by bisection in xi (where ds/dxi = 2 sqrt(r) is smooth
    and positive even at the horizon) followed by Newton polishing, so
    f(s) = r(s) is accurate to machine precision.  Then

        f'(s) = sqrt(1 - 2m/r),      f''(s) = m / r^2,

    which makes the slice scalar-flat: R = -4m/r^3 + 4m/r^3 = 0.
    """
    m = float(mass)
    if not 0 < m < math.inf:
        raise UsageError(f"schwarzschild mass must be positive and finite, got {m}")
    sqrt2m = math.sqrt(2.0 * m)

    two_m = 2.0 * m

    def r_of_s(s):
        s = np.asarray(s, float)
        if np.any(s < 0):
            raise DomainError("schwarzschild slice starts at the horizon s = 0")
        # s(xi) is convex with ds/dxi = 2 sqrt(r), and s(r) >= r - 2m gives
        # xi <= sqrt(s); Newton from that upper seed converges monotonically.
        # Each step xi -= (s(xi) - s) / (2 sqrt(r)) runs in place in two work
        # arrays, so large grids allocate no temporaries per iteration.
        xi = np.sqrt(s, out=np.empty_like(s))
        a, b = np.empty_like(xi), np.empty_like(xi)
        for _ in range(12):
            np.sqrt(np.add(np.multiply(xi, xi, out=a), two_m, out=a), out=a)  # sqrt(r)
            np.log(np.divide(np.add(a, xi, out=b), sqrt2m, out=b), out=b)
            b *= two_m  # 2m log((sqrt(r) + xi) / sqrt(2m))
            b += np.multiply(a, xi, out=a)  # s(xi)
            b -= s
            np.sqrt(np.add(np.multiply(xi, xi, out=a), two_m, out=a), out=a)
            b /= np.multiply(a, 2.0, out=a)
            xi -= b
            np.maximum(xi, 0.0, out=xi)
        return two_m + xi * xi

    return from_callables(
        "schwarzschild",
        r_of_s,
        lambda s: np.sqrt(1.0 - 2.0 * m / r_of_s(s)),
        lambda s: m / r_of_s(s) ** 2,
        params={"m": m}, inclusive_start=True,
        tail_coefficient=1.0, tail_exponent=1.0,
    )


def sphere_cap_blend(cap_radius: float, blend_width: float) -> WarpFunction:
    """Round spherical cap joined C^2 to a straight cone.

    The profile is f = sin(s) for s <= cap_radius, then over one blend
    width the second derivative relaxes as

        f''(s) = -sin(cap_radius) * (1 - x)^2,   x = (s - cap_radius)/w,

    after which f continues as the affine line it has reached.  Keeping
    f'' <= 0 through the blend means the Ricci curvature stays nonnegative
    everywhere: the cap is maximally pinched (margin exactly 1/3), the
    cone tail has vanishing radial Ricci curvature (margin exactly 0), so
    the profile is the standard pinching counterexample with positive
    scalar curvature.

    Asymptotic slope: B = cos(cap_radius) - (w/3) sin(cap_radius) > 0.
    """
    sc = float(cap_radius)
    w = float(blend_width)
    if not 0 < sc < math.pi / 2:
        raise UsageError(f"cap radius must lie in (0, pi/2), got {sc}")
    if not 0 < w < math.inf:
        raise UsageError(f"blend width must be positive and finite, got {w}")
    sin_c, cos_c = math.sin(sc), math.cos(sc)
    slope = cos_c - (w / 3.0) * sin_c
    if slope <= 0:
        raise UsageError(
            f"blend of width {w} at cap radius {sc} flattens the profile "
            f"(asymptotic slope {slope:g} <= 0)"
        )
    s_b = sc + w
    f_b = sin_c + w * cos_c - (w * w / 4.0) * sin_c
    intercept = f_b - slope * s_b

    def fn(s):
        x = (np.clip(s, sc, s_b) - sc) / w
        blend = sin_c + w * cos_c * x - w * w * sin_c * (x**2 / 2 - x**3 / 3 + x**4 / 12)
        return np.where(s <= sc, np.sin(np.minimum(s, sc)),
                        np.where(s >= s_b, slope * s + intercept, blend))

    def dfn(s):
        x = (np.clip(s, sc, s_b) - sc) / w
        blend = cos_c - w * sin_c * (x - x**2 + x**3 / 3)
        return np.where(s <= sc, np.cos(np.minimum(s, sc)),
                        np.where(s >= s_b, np.full_like(s, slope), blend))

    def d2fn(s):
        x = (np.clip(s, sc, s_b) - sc) / w
        blend = -sin_c * (1.0 - x) ** 2
        return np.where(s <= sc, -np.sin(np.minimum(s, sc)),
                        np.where(s >= s_b, np.zeros_like(s), blend))

    return from_callables(
        "sphere_cap_blend", fn, dfn, d2fn,
        params={"s_cap": sc, "blend_width": w},
        pole_smooth=True, breakpoints=(sc, s_b),
        tail_coefficient=slope, tail_exponent=1.0,
    )


def capped_cone(slope: float, blend_width: float = 0.3) -> WarpFunction:
    """Sphere-cap blend whose asymptotic cone slope is exactly ``slope``.

    Solves cos(s_cap) - (w/3) sin(s_cap) = slope for the cap radius; the
    left side is hypot(1, w/3) cos(s_cap + atan(w/3)).
    """
    a = float(slope)
    w = float(blend_width)
    if not 0 < a < 1:
        raise UsageError(f"capped cone slope must lie in (0, 1), got {a}")
    return sphere_cap_blend(math.acos(a / math.hypot(1.0, w / 3.0)) - math.atan(w / 3.0), w)


def from_table(s_samples, f_samples, *, tail_coefficient=None, tail_exponent=None,
               core_volume=0.0) -> WarpFunction:
    """Tabulated warp profile interpolated by a quintic spline.

    The quintic interpolant has four continuous derivatives, so all
    curvature quantities are continuous.  It is not shape-preserving:
    wiggly or coarse data can produce interpolation overshoot, so we
    validate positivity of the interpolant on a fine grid and refuse
    tables that fail.  Accuracy is limited by the table resolution.

    The power-law tail is fitted by least squares on the outer quarter of
    the table's log-range unless both tail parameters are supplied.
    No extrapolation: evaluation beyond the table raises DomainError.
    """
    from scipy.interpolate import make_interp_spline

    s = np.asarray(s_samples, float)
    fvals = np.asarray(f_samples, float)
    if s.ndim != 1 or s.shape != fvals.shape or len(s) < 8:
        raise UsageError("table needs matching 1-d s,f columns with at least 8 rows")
    if np.any(np.diff(s) <= 0):
        raise UsageError("table radii must be strictly increasing")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(fvals))):
        raise UsageError("table values must be finite")
    if np.any(fvals <= 0) or s[0] < 0:
        raise UsageError("table must have f > 0 and s >= 0")
    if not all(math.isfinite(v) for v in (tail_coefficient, tail_exponent) if v is not None):
        raise UsageError("table tail overrides must be finite")

    spline = make_interp_spline(s, fvals, k=5)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    probe = np.linspace(s[0], s[-1], 4096)
    if np.any(spline(probe) <= 0):
        raise UsageError("quintic interpolant of the table dips below zero; refine the table")

    if tail_coefficient is None or tail_exponent is None:
        log_lo = np.log(max(s[0], 1e-12))
        cut = np.log(s[-1]) - 0.25 * (np.log(s[-1]) - log_lo)
        mask = np.log(s) >= cut
        if mask.sum() < 5:
            mask = np.zeros_like(s, bool)
            mask[-5:] = True
        coeffs = np.polyfit(np.log(s[mask]), np.log(fvals[mask]), 1)
        fitted_beta = float(coeffs[0])
        fitted_c = float(np.exp(coeffs[1]))
        tail_exponent = fitted_beta if tail_exponent is None else tail_exponent
        tail_coefficient = fitted_c if tail_coefficient is None else tail_coefficient
        log.info("fitted table tail law f ~ %.6g * s^%.6g", tail_coefficient, tail_exponent)

    def guard(fun):
        def wrapped(x):
            x = np.asarray(x, float)
            if np.any(x < s[0] - 1e-12) or np.any(x > s[-1] * (1 + 1e-12)):
                raise DomainError(
                    f"tabulated profile defined only on [{s[0]}, {s[-1]}]"
                )
            return np.asarray(fun(np.clip(x, s[0], s[-1])), float)
        return wrapped

    return from_callables(
        "user_table", guard(spline), guard(d1), guard(d2),
        params={"n_rows": float(len(s))},
        domain_start=float(s[0]), inclusive_start=True,
        tail_coefficient=float(tail_coefficient), tail_exponent=float(tail_exponent),
        core_volume=float(core_volume), domain_end=float(s[-1]),
    )


def load_table_csv(path, **kwargs) -> WarpFunction:
    """Read a `s,f` CSV (header required) into a tabulated warp profile."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["s", "f"]:
                raise UsageError(f"{path}: expected CSV header 's,f'")
            rows = []
            for r in filter(None, reader):
                try:
                    rows.append((float(r[0]), float(r[1])))
                except (ValueError, IndexError):
                    raise UsageError(f"{path}, line {reader.line_num}: expected two "
                                     f"numbers s,f, got {','.join(r)!r}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read table {path}: {getattr(exc, 'strerror', None) or exc}") from None
    if not rows:
        raise UsageError(f"{path}: empty table")
    s, fvals = zip(*rows)
    return from_table(np.array(s), np.array(fvals), **kwargs)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvaturePoint:
    """All curvature scalars of the warped metric at one radius.

    ``areal_radius`` is f(s): the level sphere through s has area
    4 pi f(s)^2 for every profile, so f doubles as the areal radius.
    """

    s: float
    areal_radius: float
    k_rad: float
    k_tan: float
    ric_rad: float
    ric_tan: float
    scalar: float


def _curvature_arrays(metric: WarpFunction, s):
    s = np.asarray(s, float)
    f = metric.f(s)
    df = metric.df(s)
    d2f = metric.d2f(s)
    k_rad = -d2f / f
    k_tan = (1.0 - df * df) / (f * f)
    ric_rad = -2.0 * d2f / f
    ric_tan = -d2f / f + (1.0 - df * df) / (f * f)
    scalar = -4.0 * d2f / f + 2.0 * (1.0 - df * df) / (f * f)
    return f, k_rad, k_tan, ric_rad, ric_tan, scalar


def curvature_at(metric: WarpFunction, s: float) -> CurvaturePoint:
    """Evaluate all curvature scalars at radius s (must be in the domain)."""
    metric.require_contains(s)
    f, k_rad, k_tan, ric_rad, ric_tan, scalar = _curvature_arrays(metric, s)
    return CurvaturePoint(float(s), float(f), float(k_rad), float(k_tan),
                          float(ric_rad), float(ric_tan), float(scalar))


def finite_difference_curvature_oracle(metric: WarpFunction, s: float, h: float) -> CurvaturePoint:
    """Recompute the curvature using only values of f.

    Five-point central stencils recover f' and f'' from f alone, and the
    same warped-product formulas are then applied.  This is the
    independent cross-check for ``curvature_at``; it never reuses the
    profile's analytic derivatives.
    """
    s = float(s)
    h = float(h)
    if h <= 0 or s + h == s:
        raise NumericError(f"finite-difference step {h} underflows at s={s}")
    for probe in (s - 2 * h, s + 2 * h):
        metric.require_contains(probe)
    stencil = metric.f(s + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    fm2, fm1, f0, fp1, fp2 = stencil
    df = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    d2f = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
    k_rad = -d2f / f0
    k_tan = (1.0 - df * df) / (f0 * f0)
    return CurvaturePoint(s, float(f0), float(k_rad), float(k_tan),
                          float(2.0 * k_rad), float(k_rad + k_tan),
                          float(2.0 * k_rad + 2.0 * (k_rad + k_tan)))


# ---------------------------------------------------------------------------
# Ricci pinching
# ---------------------------------------------------------------------------

#: Slack used when comparing floating-point curvature ratios against the
#: requested pinching constant; round spheres sit exactly on the 1/3
#: boundary and (1 - cos^2) vs sin^2 differ in the last ulp.
PINCH_SLACK = 1e-12


@dataclass(frozen=True)
class PinchReport:
    """Outcome of a Ricci-pinching scan over a radial window.

    ``margin_eps_star`` holds the pointwise pinching margin
    eps*(s) = min(ric_rad, ric_tan) / R where R > 0; where R vanishes the
    condition degenerates to plain Ricci nonnegativity, recorded as +inf
    (satisfied) or -inf (violated).
    """

    epsilon_requested: float
    passed: bool
    first_failure_s: Optional[float]
    margin_s: np.ndarray
    margin_eps_star: np.ndarray

    @property
    def eps_star_min(self) -> float:
        return float(np.min(self.margin_eps_star))


def _pinch_margins(metric: WarpFunction, s):
    _, _, _, ric_rad, ric_tan, scalar = _curvature_arrays(metric, s)
    min_ric = np.minimum(ric_rad, ric_tan)
    scale = np.abs(ric_rad) + 2.0 * np.abs(ric_tan) + 1e-300
    r_positive = scalar > PINCH_SLACK * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = min_ric / scalar
    ratio = np.where(ratio == 0.0, 0.0, ratio)  # normalize -0.0
    eps_star = np.where(
        r_positive, ratio,
        np.where(min_ric >= -PINCH_SLACK * scale, np.inf, -np.inf),
    )
    ric_ok = min_ric >= -PINCH_SLACK * scale
    return eps_star, ric_ok


def pinched(metric: WarpFunction, s, epsilon: float):
    """Where Ric >= 0 and Ric >= eps R g hold at the radii s, and the margins.

    Returns (mask, eps_star) with eps_star as in ``PinchReport``.
    """
    eps_star, ric_ok = _pinch_margins(metric, s)
    return ric_ok & (eps_star >= epsilon - PINCH_SLACK), eps_star


def check_pinching(metric: WarpFunction, epsilon: float, s_range, n_samples: int) -> PinchReport:
    """Scan whether Ric >= 0 and Ric >= eps * R * g hold over a window.

    Samples a log-spaced grid, then refines the first failure radius by
    bisection to 1e-6, or to adjacent floats where 1e-6 is below one ulp.
    Passing means every sampled radius satisfies both conditions; a
    smooth margin between sign changes makes the sampled verdict reliable
    for the catalog profiles.
    """
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise UsageError(f"pinching constant must be positive, got {epsilon}")
    s_lo, s_hi = float(s_range[0]), float(s_range[1])
    if n_samples < 2:
        raise UsageError("pinching scan needs at least 2 samples")
    if not s_lo < s_hi:
        raise DomainError(f"empty pinching window [{s_lo}, {s_hi}]")
    metric.require_contains(s_lo)
    metric.require_contains(s_hi)
    if s_lo <= 0:
        raise DomainError("pinching window must start at positive radius")

    grid = np.geomspace(s_lo, s_hi, int(n_samples))
    ok, eps_star = pinched(metric, grid, epsilon)
    passed = bool(np.all(ok))

    first_failure = None
    if not passed:
        i = int(np.argmin(ok))  # first False
        if i == 0:
            first_failure = float(grid[0])
        else:
            lo, hi = float(grid[i - 1]), float(grid[i])
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):  # adjacent floats: 1e-6 is below one ulp
                    break
                if pinched(metric, np.array([mid]), epsilon)[0][0]:
                    lo = mid
                else:
                    hi = mid
            first_failure = hi
    return PinchReport(epsilon, passed, first_failure, grid, eps_star)


# ---------------------------------------------------------------------------
# Volumes and growth
# ---------------------------------------------------------------------------

def volume_ball(metric: WarpFunction, r):
    """Volume of the centred ball of arclength radius r.

    Vol(B_r) = core_volume + 4 pi * integral of f(s)^2 over [s_min, r].
    The panel quadrature is exact to ~1e-13 relative for the catalog
    profiles (verified against closed forms in the tests).
    """
    r_arr = np.atleast_1d(np.asarray(r, float))
    if np.any(r_arr <= metric.domain_start) or np.any(r_arr > metric.domain_end):
        raise DomainError(f"ball radius outside domain of {metric.label}")
    hi = min(max(4.0 * float(np.max(r_arr)), 100.0), metric.domain_end)
    quad = PanelQuadrature(lambda s: metric.f(s) ** 2,
                           panel_edges(metric.domain_start, hi, metric.breakpoints))
    vol = metric.core_volume + 4.0 * math.pi * quad.integral_from_start(r_arr)
    return float(vol[0]) if np.asarray(r).ndim == 0 else vol


@dataclass(frozen=True)
class GrowthReport:
    """Least-squares volume-growth exponent over a radial window.

    Fits log Vol(B_r) = log c_vol + (1 + alpha) log r.  The asymptotic
    volume ratio avr = 3 Vol(B_r)/(4 pi r^3) at the window top is only
    meaningful (and only reported) for pole-smooth profiles whose fitted
    exponent is Euclidean to within 1%.
    """

    alpha_fit: float
    c_vol_fit: float
    avr: Optional[float]
    fit_window: Tuple[float, float]


def growth_fit(metric: WarpFunction, r_lo: float, r_hi: float, n_points: int = 25) -> GrowthReport:
    if n_points < 3:
        raise UsageError("growth fit needs at least 3 points")
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not metric.domain_start < r_lo < r_hi:
        raise DomainError(f"bad growth window [{r_lo}, {r_hi}]")
    r = np.geomspace(r_lo, r_hi, int(n_points))
    vol = volume_ball(metric, r)
    slope, intercept = np.polyfit(np.log(r), np.log(vol), 1)
    alpha = float(slope - 1.0)
    avr = None
    if metric.pole_smooth and 1.98 <= alpha <= 2.02:
        avr = float(3.0 * vol[-1] / (4.0 * math.pi * r_hi**3))
    return GrowthReport(alpha, float(np.exp(intercept)), avr, (r_lo, r_hi))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

CATALOG = {
    "flat": {
        "description": "Euclidean space, f(s) = s",
        "params": {},
        "build": lambda p: flat_space(),
    },
    "cone": {
        "description": "metric cone f(s) = a*s (Ric >= 0, zero pinching margin)",
        "params": {"a": (0.5, "opening slope in (0, 1]")},
        "build": lambda p: cone(p["a"]),
    },
    "power": {
        "description": "power-law warp f(s) = c*s^beta",
        "params": {"c": (1.0, "tail coefficient > 0"),
                   "beta": (0.8, "tail exponent; potential solver needs (1/2, 1]")},
        "build": lambda p: power_law(p["c"], p["beta"]),
    },
    "schwarzschild": {
        "description": "spatial Schwarzschild slice of mass m, arclength from the horizon",
        "params": {"m": (1.0, "mass > 0")},
        "build": lambda p: schwarzschild_slice(p["m"]),
    },
    "sphere_cap_blend": {
        "description": "round cap f = sin(s) blended C^2 into a straight cone",
        "params": {"s_cap": (1.0, "cap radius in (0, pi/2)"),
                   "blend_width": (0.5, "width of the C^2 transition")},
        "build": lambda p: sphere_cap_blend(p["s_cap"], p["blend_width"]),
    },
    "user_table": {
        "description": "tabulated profile from a CSV with header s,f (quintic spline)",
        "params": {"path": (None, "CSV file with columns s,f"),
                   "tail_coefficient": (None, "override fitted tail coefficient"),
                   "tail_exponent": (None, "override fitted tail exponent")},
        "build": None,  # handled in build_metric
    },
}


def build_metric(kind: str, params: Optional[Mapping] = None) -> WarpFunction:
    """Instantiate a catalog metric from its name and a parameter map."""
    if kind not in CATALOG:
        raise UsageError(
            f"unknown metric kind {kind!r}; valid kinds: {', '.join(sorted(CATALOG))}"
        )
    entry = CATALOG[kind]
    params = dict(params or {})
    unknown = set(params) - set(entry["params"])
    if unknown:
        raise UsageError(
            f"unknown parameter(s) {sorted(unknown)} for metric {kind!r}; "
            f"valid: {sorted(entry['params'])}"
        )
    if kind == "user_table":
        path = params.get("path")
        if not path:
            raise UsageError("user_table requires a 'path' parameter")
        kwargs = {}
        for key in ("tail_coefficient", "tail_exponent"):
            if params.get(key) is not None:
                kwargs[key] = float(params[key])
        return load_table_csv(path, **kwargs)
    resolved = {name: float(params.get(name, default))
                for name, (default, _) in entry["params"].items()}
    return entry["build"](resolved)


def default_catalog():
    """The five parametric catalog metrics with their default parameters."""
    return [
        ("flat", build_metric("flat")),
        ("cone", build_metric("cone")),
        ("power", build_metric("power")),
        ("schwarzschild", build_metric("schwarzschild")),
        ("sphere_cap_blend", build_metric("sphere_cap_blend")),
    ]
