"""Rotationally symmetric 3-metrics g = ds^2 + f(s)^2 g_{S^2}.

Every metric in the package is a warp profile: a positive function f of
the radial arclength s, carried together with its jet (f, f', f'') and
its power-law tail behaviour f(s) ~ c * s^beta.  All curvature of
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
import io
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Tuple

import numpy as np
from numpy.polynomial import chebyshev

from .config import number
from .errors import DomainError, NumericError, UsageError
from .quadrature import PanelQuadrature, _chebyshev_sum, lin_grid, log_grid, panel_edges
from .stencils import FIRST, first_from, nodes, second_from

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

    ``fn`` maps a float array of radii to f there, for the quadrature
    integrands; ``jet`` maps it to the triple (f, f', f'') in one call, so
    a caller that needs two or three of them evaluates the profile once.
    ``df`` and ``d2f`` read one entry of the jet.

    ``tail_coefficient``/``tail_exponent`` describe the asymptotic law
    f(s) ~ c * s^beta used for analytic tail corrections; profiles fed to
    the exterior-potential solver must have beta in (1/2, 1].

    Tests and one-off profiles construct it directly from vectorized
    callables; the catalog constructors below cover the standard geometries.
    """

    kind: str
    fn: Callable = field(repr=False)
    jet: Callable = field(repr=False)
    params: Mapping[str, float] = field(default_factory=dict)
    domain_start: float = 0.0
    pole_smooth: bool = False
    inclusive_start: bool = False
    tail_coefficient: float = 1.0
    tail_exponent: float = 1.0
    breakpoints: Tuple[float, ...] = ()
    domain_end: float = math.inf

    def f(self, s):
        return self.fn(np.asarray(s, float))

    def df(self, s):
        return self.jet(np.asarray(s, float))[1]

    def d2f(self, s):
        return self.jet(np.asarray(s, float))[2]

    @cached_property
    def law_mismatch(self):
        """Probe radii out to the table end, 1e300 or the end of the float range,
        each with the largest tail-law mismatch |f/(c s^beta) - 1| from there on."""
        lo, hi = max(self.domain_start, 1e-6), min(self.domain_end, 1e300)
        radii = log_grid(lo, hi, int(4 * math.log10(hi / lo)) + 2)
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

    def require_contains(self, s):
        """DomainError unless radius s, or every radius of an array s, lies in
        the domain (an interval, so its extreme radii decide)."""
        s = np.asarray(s, float)
        for r in (s.min(), s.max()) if s.size else ():
            if not (r <= self.domain_end and (r > self.domain_start or
                                              self.inclusive_start and r == self.domain_start)):
                raise DomainError(
                    f"radius s={float(r)!r} outside the domain of {self.label} "
                    f"({'[' if self.inclusive_start else '('}{self.domain_start}, {self.domain_end})"
                )

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"WarpFunction<{self.label}>"


def flat_space() -> WarpFunction:
    """Euclidean space: f(s) = s."""
    return WarpFunction("flat", lambda s: s, lambda s: (s, np.ones_like(s), np.zeros_like(s)),
                        pole_smooth=True, tail_coefficient=1.0, tail_exponent=1.0)


def cone(slope: float) -> WarpFunction:
    """A metric cone: f(s) = a*s with opening slope 0 < a <= 1.

    The vertex s = 0 is a conical singularity (excluded from the domain),
    but the ball volume integral converges so volumes are measured from 0.
    """
    a = float(slope)
    if not 0 < a <= 1:
        raise UsageError(f"cone slope must lie in (0, 1], got {a}")
    return WarpFunction("cone", lambda s: a * s, lambda s: (a * s, np.full_like(s, a), np.zeros_like(s)),
                        params={"a": a}, tail_coefficient=a, tail_exponent=1.0)


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
    return WarpFunction(
        "power", lambda s: c * s ** b,
        lambda s: (c * s ** b, c * b * s ** (b - 1.0), c * b * (b - 1.0) * s ** (b - 2.0)),
        params={"c": c, "beta": b}, tail_coefficient=c, tail_exponent=b)


def schwarzschild_slice(mass: float) -> WarpFunction:
    """Time-symmetric spatial Schwarzschild slice of mass m.

    In areal radius r the metric is dr^2/(1 - 2m/r) + r^2 g_{S^2} for
    r >= 2m.  We parametrize by arclength s from the horizon, using the
    closed form (with xi = sqrt(r - 2m))

        s(r) = sqrt(r (r - 2m)) + 2m log((sqrt(r) + xi) / sqrt(2m)),

    and invert it by 6 Newton steps in xi (where ds/dxi = 2 sqrt(r) is
    smooth and positive even at the horizon), so f(s) = r(s) is accurate
    to machine precision; a radius whose last step is not at roundoff
    raises NumericError.  The count is even: converged iterates can
    alternate between adjacent floats, and odd counts land on the other.  Then

        f'(s) = sqrt(1 - 2m/r),      f''(s) = m / r^2,

    which makes the slice scalar-flat: R = -4m/r^3 + 4m/r^3 = 0.  The jet
    inverts each radius once and reads f' and f'' off that r.
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
        # Each step xi -= (s(xi) - s) / (2 sqrt(r)) runs in place in three work
        # arrays, so large grids allocate no temporaries per iteration.
        xi = np.sqrt(s, out=np.empty_like(s))
        a, b, root_r = np.empty_like(xi), np.empty_like(xi), np.empty_like(xi)
        for _ in range(6):
            np.sqrt(np.add(np.multiply(xi, xi, out=root_r), two_m, out=root_r), out=root_r)
            np.log(np.divide(np.add(root_r, xi, out=b), sqrt2m, out=b), out=b)
            b *= two_m  # 2m log((sqrt(r) + xi) / sqrt(2m))
            b += np.multiply(root_r, xi, out=a)  # s(xi)
            b -= s
            b /= np.multiply(root_r, 2.0, out=a)
            xi -= b
            np.maximum(xi, 0.0, out=xi)
        # b is the last step in xi and a = 2 sqrt(r), so b a is the last step
        # in s, relative to s + 2m (log cancellation limits it near the horizon)
        worst = float(np.max(np.abs(b) * a / (s + two_m), initial=0.0))
        if not worst <= 1e-13:
            raise NumericError(f"schwarzschild r(s) did not converge "
                               f"(last relative step {worst:.2e} > 1e-13)")
        return two_m + xi * xi

    def jet(s):
        r = r_of_s(s)
        return r, np.sqrt(1.0 - 2.0 * m / r), m / r ** 2

    return WarpFunction("schwarzschild", r_of_s, jet, params={"m": m}, inclusive_start=True,
                        tail_coefficient=1.0, tail_exponent=1.0)


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

    def branches(s):
        """x in the blend, the cap and tail masks, sin on the cap, and f."""
        x = (np.minimum(np.maximum(s, sc), s_b) - sc) / w
        cap, tail, sin = s <= sc, s >= s_b, np.sin(np.minimum(s, sc))
        blend = sin_c + w * cos_c * x - w * w * sin_c * (x**2 / 2 - x**3 / 3 + x**4 / 12)
        return x, cap, tail, sin, np.where(cap, sin, np.where(tail, slope * s + intercept, blend))

    def jet(s):
        x, cap, tail, sin, f = branches(s)
        df = np.where(cap, np.cos(np.minimum(s, sc)),
                      np.where(tail, slope, cos_c - w * sin_c * (x - x**2 + x**3 / 3)))
        return f, df, np.where(cap, -sin, np.where(tail, 0.0, -sin_c * (1.0 - x) ** 2))

    return WarpFunction("sphere_cap_blend", lambda s: branches(s)[-1], jet,
                        params={"s_cap": sc, "blend_width": w}, pole_smooth=True,
                        breakpoints=(sc, s_b), tail_coefficient=slope, tail_exponent=1.0)


#: column m: the Chebyshev series in xi of ((1 + xi) / 2)^m / m!, which maps the
#: Taylor coefficients f^(m)(a) h^m of a piece [a, a + h] to its Chebyshev series
_TAYLOR_TO_CHEB = np.column_stack([np.pad(chebyshev.chebpow([0.5, 0.5], m), (0, 5 - m))
                                   / math.factorial(m) for m in range(6)])


def _cyclic_reduction(a):
    """Solve the block tridiagonal system of 2^m - 1 block rows a[k] = [D | U | L | rhs]
    of b x b blocks in O(2^m).  Gauss-Jordan on the even blocks couples
    the odd ones to their second neighbours, a system of 2^(m-1) - 1 block rows.
    Eliminating every other block of a totally nonnegative matrix (b even) leaves a
    totally nonnegative Schur complement, so a B-spline collocation matrix needs no
    pivoting."""
    b, e = a.shape[1], a[0::2].copy()  # contiguous, so each elimination step runs faster
    for j in range(b):
        r = e[:, j] / e[:, j, j, None]
        e -= e[:, :, j, None] * r[:, None]
        e[:, j] = r
    x = np.zeros((len(a) + 2, b))  # the solution, between two zero blocks
    if len(a) > 1:
        k = a[1::2]
        p, q = k[..., 2 * b:3 * b] @ e[:-1, :, b:], k[..., b:2 * b] @ e[1:, :, b:]
        x[2:-1:2] = _cyclic_reduction(np.concatenate(
            [k[..., :b] - p[..., :b] - q[..., b:2 * b], -q[..., :b], -p[..., b:2 * b],
             k[..., 3 * b:] - p[..., 2 * b:] - q[..., 2 * b:]], axis=2))
    nbrs = np.concatenate([x[2::2], x[0:-1:2]], axis=1)[..., None]
    x[1::2] = e[..., 3 * b] - (e[..., b:3 * b] @ nbrs)[..., 0]
    return x[1:-1]


def _quintic_pieces(x, y):
    """The not-a-knot quintic interpolant through (x, y), with knots [x0]*6,
    x[3:-3], [x_end]*6, as (edges, series): series[:, k, j], zero-padded to 6 rows, is
    the Chebyshev series in xi in [-1, 1] of its k-th derivative (k < 3) on piece j."""
    n = len(x)
    t = np.concatenate([np.full(6, x[0]), x[3:-3], np.full(6, x[-1])])
    rows = np.r_[0, 3:n - 3, 1, 2, n - 3:n]  # the row at the left end of each piece first
    l = np.r_[5:n, 5, 5, n - 1, n - 1, n - 1]  # the knot interval [t_l, t_l+1) of each row
    window, xc = t[l[:, None] + np.arange(-4, 6)], x[rows, None]  # t_l-4 .. t_l+5
    basis = [np.ones((n, 1))]  # Cox-de Boor: basis[d] holds B_l-d .. B_l of degree d
    for d in range(1, 6):
        lo, hi = window[:, 5 - d:5], window[:, 5:5 + d]  # supports of degree d - 1 B_l-d+1 .. B_l
        w = basis[-1] / (hi - lo)
        basis.append(np.zeros((n, d + 1)))
        basis[d][:, :-1] = (hi - xc) * w
        basis[d][:, 1:] += (xc - lo) * w
    # the collocation matrix in 4 x 4 blocks: its end rows reach 4 columns off the diagonal
    a = np.zeros((2 ** math.ceil(math.log2(n / 4 + 1)) - 1, 4, 13))
    pad = np.arange(n, 4 * len(a))
    a[pad // 4, pad % 4, pad % 4] = 1.0  # identity rows fill the last blocks
    (blk, row), col = np.divmod(rows, 4), l[:, None] - 5 + np.arange(6)
    a[blk[:, None], row[:, None], (col // 4 - blk[:, None]) % 3 * 4 + col % 4] = basis[5]
    a[blk, row, 12] = y[rows]
    coef = _cyclic_reduction(a).ravel()[:n]
    h = np.diff(t[5:n + 1])
    taylor = np.empty((6, n - 5))
    for m in range(6):  # derivative m at the left ends, from differenced coefficients
        if m:
            coef = (6 - m) * np.diff(coef) / (t[6:n + 6 - m] - t[m:n])
        near = coef[np.arange(n - 5)[:, None] + np.arange(6 - m)]  # the ones nonzero on each piece
        taylor[m] = (near * basis[5 - m][:n - 5]).sum(axis=1) * h**m
    series = np.zeros((6, 3, n - 5))  # rows past a series' degree stay 0, so its Clenshaw sum is bit-identical
    for k in range(3):
        series[:6 - k, k] = _TAYLOR_TO_CHEB[:6 - k, :6 - k] @ taylor[k:] / h**k
    return t[5:n + 1], series


def _require_positive(series, mid, half):
    """UsageError naming the radius and value of the lowest point of the first piece
    where the interpolant reaches f <= 0.  A piece with c0 > sum of |c_k| (k >= 1)
    is positive, as |T_k| <= 1; any other takes its minimum over the piece's ends
    and the real parts in [-1, 1] of the roots of f' there."""
    f_series, df_series = series[:, 0], series[:, 1]
    for j in np.flatnonzero(f_series[0] - np.abs(f_series[1:]).sum(axis=0) <= 0):
        roots = chebyshev.chebroots(df_series[:, j]).real
        xi = np.concatenate([[-1.0, 1.0], roots[np.abs(roots) <= 1.0]])
        values = chebyshev.chebval(xi, f_series[:, j])
        k = int(np.argmin(values))
        if values[k] <= 0:
            raise UsageError(f"quintic interpolant of the table dips to f={values[k]:.3g} at "
                             f"s={mid[j] + half[j] * xi[k]:.6g}; refine the table")


def from_table(s_samples, f_samples, *, tail_coefficient=None, tail_exponent=None) -> WarpFunction:
    """Tabulated warp profile interpolated by a quintic spline.

    The interpolant is the not-a-knot quintic B-spline through the rows,
    built in O(rows) and kept as one array of the Chebyshev series of f, f'
    and f'' per knot interval, which f, the jet and the positivity proof all
    read.  It has four continuous derivatives, so all curvature quantities
    are continuous.  It is not shape-preserving: wiggly or
    coarse data can produce interpolation overshoot, so positivity is
    proven piece by piece and a table whose interpolant reaches f <= 0
    is refused, naming the radius.  Accuracy is limited by the table
    resolution.

    The power-law tail is fitted by least squares on the outer quarter of
    the table's log-range unless both tail parameters are supplied.
    No extrapolation: evaluation beyond the table, or at NaN, raises
    DomainError.
    """
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

    edges, series = _quintic_pieces(s, fvals)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)

    def piece(x):
        """The radii x as an array, with the piece index and its xi at each, after one range check."""
        x = np.asarray(x, float)
        if not np.all((x >= s[0] - 1e-12) & (x <= s[-1] * (1 + 1e-12))):
            raise DomainError(f"tabulated profile defined only on [{s[0]}, {s[-1]}]")
        i = np.searchsorted(edges[1:-1], x.ravel(), side="right")
        return x, i, (x.ravel() - mid[i]) / half[i]

    def fn(x):  # series[:, 0] as the first columns of a view, which take reads without copying the whole array
        x, i, xi = piece(x)
        return _chebyshev_sum(series.reshape(6, -1).take(i, axis=1), xi).reshape(x.shape)

    def jet(x):  # f, f' and f'' in one Clenshaw pass
        x, i, xi = piece(x)
        return tuple(v.reshape(x.shape) for v in _chebyshev_sum(series.take(i, axis=2), xi))

    _require_positive(series, mid, half)

    if tail_coefficient is None or tail_exponent is None:
        log_lo = np.log(max(s[0], 1e-12))
        cut = np.log(s[-1]) - 0.25 * (np.log(s[-1]) - log_lo)
        mask = np.log(np.maximum(s, 1e-12)) >= cut  # a row at s = 0 stays out
        mask[-5:] = True  # the outer quarter ends the table; fit at least 5 rows
        fitted_beta, log_c = line_fit(np.log(s[mask]), np.log(fvals[mask]))
        tail_exponent = fitted_beta if tail_exponent is None else tail_exponent
        tail_coefficient = math.exp(log_c) if tail_coefficient is None else tail_coefficient
        log.info("fitted table tail law f ~ %.6g * s^%.6g", tail_coefficient, tail_exponent)

    return WarpFunction("user_table", fn, jet, params={"n_rows": float(len(s))},
                        domain_start=float(s[0]), inclusive_start=True, domain_end=float(s[-1]),
                        tail_coefficient=float(tail_coefficient), tail_exponent=float(tail_exponent))


def load_table_csv(path, **kwargs) -> WarpFunction:
    """Read a `s,f` CSV (header required) into a tabulated warp profile.

    One np.array call per column applies float() to its fields; only when one
    fails are the rows read again, in file order, for the first bad one."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a byte-order mark is not part of the header
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read table {path}: {getattr(exc, 'strerror', None) or exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["s", "f"]:
            raise UsageError(f"{path}: expected CSV header 's,f'")
        rows = list(filter(None, reader))
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise UsageError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise UsageError(f"{path}: empty table")
    try:
        s, fvals = (np.array([r[k] for r in rows], float) for k in (0, 1))
    except (ValueError, IndexError):
        reader = csv.reader(io.StringIO(text, newline=""))
        next(reader)
        for r in filter(None, reader):
            try:
                float(r[0]), float(r[1])
            except (ValueError, IndexError):
                raise UsageError(f"{path}, line {reader.line_num}: expected two "
                                 f"numbers s,f, got {','.join(r)!r}") from None
        raise
    return from_table(s, fvals, **kwargs)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvaturePoint:
    """All curvature scalars of the warped metric at one radius, or at each
    radius of an array (then every field is an array of that shape).

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


def _curvature(f, df, d2f):
    """(k_rad, k_tan, ric_rad, ric_tan, scalar) from f, f' and f''; scaling
    by 2 and 4 is exact, so these equal the formulas written out in full."""
    k_rad = -d2f / f
    k_tan = (1.0 - df * df) / (f * f)
    return k_rad, k_tan, 2.0 * k_rad, k_rad + k_tan, 4.0 * k_rad + 2.0 * k_tan


def _point(s, f, df, d2f) -> CurvaturePoint:
    """The curvature at radii s from f, f' and f'' there, evaluated on at
    least one axis; floats for a 0-d s."""
    values = (np.atleast_1d(s), f, *_curvature(f, df, d2f))
    if s.ndim == 0:
        return CurvaturePoint(*(float(v[0]) for v in values))
    return CurvaturePoint(*values)


def curvature_at(metric: WarpFunction, s) -> CurvaturePoint:
    """Evaluate all curvature scalars at radius s, a float or an array of
    radii; every radius must lie in the domain."""
    s = np.asarray(s, float)
    metric.require_contains(s)
    # a 0-d radius is evaluated as a 1-element array: numpy's scalar x**2 and
    # its array square can differ in the last bit, and both paths must agree
    return _point(s, *metric.jet(np.atleast_1d(s)))


def finite_difference_curvature_oracle(metric: WarpFunction, s, h) -> CurvaturePoint:
    """Recompute the curvature using only values of f.

    Five-point central stencils of step h recover f' and f'' from f at
    s, s +- h and s +- 2h, and the same warped-product formulas are then
    applied.  This is the independent cross-check for ``curvature_at``; it never reuses
    the profile's analytic derivatives.  s and h are floats or arrays
    that broadcast together.
    """
    s, h = np.broadcast_arrays(np.asarray(s, float), np.asarray(h, float))
    bad = (h <= 0) | (s + h == s)
    if bad.any():
        raise NumericError(f"finite-difference step {h[bad][0]} underflows at s={s[bad][0]}")
    metric.require_contains(s - 2 * h)
    metric.require_contains(s + 2 * h)
    step = np.atleast_1d(h)
    v = metric.f(nodes(np.atleast_1d(s), step))  # f at s - 2h .. s + 2h, s at the centre
    return _point(s, v[..., 2], first_from(v[..., FIRST], step), second_from(v, step))


# ---------------------------------------------------------------------------
# Ricci pinching
# ---------------------------------------------------------------------------

#: Slack used when comparing floating-point curvature ratios against the
#: requested pinching constant; round spheres sit exactly on the 1/3
#: boundary and (1 - cos^2) vs sin^2 differ in the last ulp.
PINCH_SLACK = 1e-12

#: most radii a PinchReport's margin curve keeps
MARGIN_POINTS = 400


@dataclass(frozen=True)
class PinchReport:
    """Outcome of a Ricci-pinching check over ascending radii.

    ``margin_eps_star`` holds the pointwise pinching margin
    eps*(s) = min(ric_rad, ric_tan) / R at the radii ``margin_s``; where
    R vanishes the condition degenerates to plain Ricci nonnegativity,
    recorded as +inf (satisfied) or -inf (violated).  The margin curve is
    every checked radius, or a strided subsample of at most MARGIN_POINTS
    that keeps the radius of the least margin and the first failing one,
    so ``eps_star_min`` is the least margin over all checked radii.
    """

    epsilon_requested: float
    passed: bool
    first_failure_s: Optional[float]
    margin_s: np.ndarray
    margin_eps_star: np.ndarray

    @property
    def eps_star_min(self) -> float:
        return float(np.min(self.margin_eps_star))


def _pinch_margins(ric_rad, ric_tan, scalar):
    """(eps_star, ric_ok) from the Ricci eigenvalues and the scalar curvature."""
    min_ric = np.minimum(ric_rad, ric_tan)
    scale = np.abs(ric_rad) + 2.0 * np.abs(ric_tan) + 1e-300
    r_positive = scalar > PINCH_SLACK * scale
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the ratio is read only where r_positive
        ratio = min_ric / scalar
    ratio = np.where(ratio == 0.0, 0.0, ratio)  # normalize -0.0
    eps_star = np.where(
        r_positive, ratio,
        np.where(min_ric >= -PINCH_SLACK * scale, np.inf, -np.inf),
    )
    ric_ok = min_ric >= -PINCH_SLACK * scale
    return eps_star, ric_ok


def positive_epsilon(epsilon) -> float:
    """``epsilon`` as a float; a usage error unless it is positive, NaN included."""
    if not float(epsilon) > 0:
        raise UsageError(f"pinching constant must be positive, got {epsilon}")
    return float(epsilon)


def pinched_where(eps_star, epsilon: float):
    """Where Ric >= eps R g holds, from the margin ``eps_star`` of ``_pinch_margins``.
    For eps > 0 that implies ``ric_ok`` (Ric >= 0): where R > 0, min Ric >= -PINCH_SLACK R
    and R <= |ric_rad| + 2 |ric_tan|; elsewhere eps_star is +inf only with ``ric_ok``."""
    return eps_star >= epsilon - PINCH_SLACK


def pinched(metric: WarpFunction, s, epsilon: float):
    """Where Ric >= eps R g holds at the radii s, and the margins.

    Returns (mask, eps_star) with eps_star as in ``PinchReport``.
    """
    point = curvature_at(metric, s)
    eps_star = _pinch_margins(point.ric_rad, point.ric_tan, point.scalar)[0]
    return pinched_where(eps_star, epsilon), eps_star


def check_pinching(metric: WarpFunction, epsilon: float, s, eps_star) -> PinchReport:
    """Whether Ric >= eps * R * g, and with it Ric >= 0, holds at ascending
    radii s whose margins ``eps_star`` are given, as a series carries them.

    Passing means every given radius satisfies the condition; a smooth
    margin between sign changes makes the verdict reliable for the catalog
    profiles.  Only the first failure is evaluated anew: it is refined
    between the radius before it and itself, one ``pinched`` call of 32
    radii per round, to 1e-6, or to adjacent floats where 1e-6 is below
    one ulp.
    """
    epsilon = positive_epsilon(epsilon)
    s = np.asarray(s, float)
    if s.size < 2:
        raise UsageError("pinching check needs at least 2 radii")
    if s[0] <= 0 or not np.all(s[1:] > s[:-1]):
        raise DomainError("pinching radii must be positive and strictly increasing")

    ok = pinched_where(eps_star, epsilon)
    passed = bool(np.all(ok))
    i = int(np.argmin(ok))  # first False; 0 when every radius passes
    first_failure = None if passed else float(s[0])
    if i > 0:
        lo, hi = float(s[i - 1]), float(s[i])
        while hi - lo > 1e-6:
            inner = lin_grid(lo, hi, 34)[1:-1]
            inner = inner[(inner > lo) & (inner < hi)]
            if not inner.size:  # adjacent floats: 1e-6 is below one ulp
                break
            fails = ~pinched(metric, inner, epsilon)[0]
            j = int(np.argmax(fails)) if fails.any() else inner.size
            lo, hi = float(inner[j - 1]) if j else lo, float(inner[j]) if j < inner.size else hi
        first_failure = hi

    step = -(-s.size // (MARGIN_POINTS - 3)) if s.size > MARGIN_POINTS else 1
    keep = np.arange(s.size) % step == 0  # a mask keeps each radius once, in order; np.unique imports numpy.ma
    keep[[-1, np.argmin(eps_star), i]] = True
    return PinchReport(epsilon, passed, first_failure, s[keep], np.asarray(eps_star)[keep])


# ---------------------------------------------------------------------------
# Volumes and growth
# ---------------------------------------------------------------------------

def volume_ball(metric: WarpFunction, r):
    """Volume of the centred ball of arclength radius r.

    Vol(B_r) = 4 pi * integral of f(s)^2 over [s_min, r], a sum of whole
    panels: exact to roundoff where f^2 is smooth.  A power law's f^2 =
    c^2 s^(2 beta) is not smooth at the pole s = 0, and the panel [0, a]
    there errs by up to 5e-7 of its own integral.  Every r is a breakpoint,
    so ``panel_edges`` ends a at 2^-13 of the smallest r or less, and V(r)
    errs by up to 5e-7 (a/r)^(2 beta + 1) < 5e-7 * 2^-26 = 7.5e-15 relative
    at every r.  The tests check this against the closed form.
    """
    r_arr = np.atleast_1d(np.asarray(r, float))
    if not np.all((metric.domain_start < r_arr) & (r_arr <= metric.domain_end) & np.isfinite(r_arr)):
        raise DomainError(f"ball radius outside domain of {metric.label}")
    # each radius is a panel edge and the grid ends at the largest, so each volume is a sum of whole panels
    edges = panel_edges(metric.domain_start, r_arr.max(), (*metric.breakpoints, *r_arr))
    return 4.0 * math.pi * PanelQuadrature(lambda s: metric.f(s) ** 2, edges).integral_from_start(r)


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


def line_fit(x, y) -> Tuple[float, float]:
    """Least-squares (slope, intercept) of the arrays y against x, centred on
    the mean of x; ufunc sums, since a BLAS dot bills every core on long tails."""
    dx, y_mean = x - x.mean(), y.mean()
    slope = float((dx * (y - y_mean)).sum() / (dx * dx).sum())
    return slope, float(y_mean - slope * x.mean())


def growth_fit(metric: WarpFunction, r_lo: float, r_hi: float) -> GrowthReport:
    """Fit the growth exponent to ball volumes at 25 log-spaced radii (``line_fit`` in logs)."""
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not metric.domain_start < r_lo < r_hi:
        raise DomainError(f"bad growth window [{r_lo}, {r_hi}]")
    r = log_grid(r_lo, r_hi, 25)
    with np.errstate(over="ignore", invalid="ignore"):
        vol = volume_ball(metric, r)
    if not np.all(np.isfinite(vol)):
        raise DomainError(f"{metric.label}: ball volumes overflow up to the growth window top r={r_hi:g}")
    slope, intercept = line_fit(np.log(r), np.log(vol))
    alpha = slope - 1.0
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
        path = params.pop("path", None)
        if not (isinstance(path, str) and path):
            raise UsageError(f"user_table parameter 'path' must name a CSV file, got {path!r}")
        return load_table_csv(path, **{key: number(f"parameter {key!r}", value)
                                       for key, value in params.items() if value is not None})
    return entry["build"]({name: number(f"parameter {name!r}", params.get(name, default))
                           for name, (default, _) in entry["params"].items()})


def default_catalog():
    """The five parametric catalog metrics with their default parameters."""
    return [(kind, build_metric(kind)) for kind, entry in CATALOG.items() if entry["build"]]
