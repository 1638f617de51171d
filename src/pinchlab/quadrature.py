"""Composite Gauss-Legendre quadrature on fixed panel grids.

All radial integrals in the package (warp tail integrals, ball volumes)
are integrals of smooth positive integrands over ranges that can span
dozens of decades.  Adaptive scalar quadrature is too slow for the volume
of queries the level-set machinery generates, so instead we lay down a
deterministic panel grid once (logarithmic, linear near a zero inner
edge, split at the metric's breakpoints) and evaluate the integrand on
all Gauss-Legendre nodes in one vectorized call.  The node values give
the panel sums and, per panel, a Chebyshev series for the integral of the
node interpolant to the panel end, so an integral to the grid end is a
suffix sum plus one series and evaluates no integrand; an integral from
the grid start is asked for at panel edges only and is a prefix sum.

With 16-point panels at >= 40 panels per decade the panel rule is exact
to machine precision for the smooth integrands used here; accuracy is
exercised against closed forms in the test suite.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev, legendre

from .errors import DomainError

GL_ORDER = 16
_GL_X, _GL_W = legendre.leggauss(GL_ORDER)


def _partial_integral_matrix():
    """The 16 x 16 map from a panel's node values to the Chebyshev coefficients
    of the integral of their interpolant over [xi, 1], divided by 1 - xi, on
    [-1, 1].  The Gauss-Legendre rule, exact to degree 31, gives the
    interpolant's Legendre coefficients."""
    to_legendre = (np.arange(GL_ORDER)[:, None] + 0.5) * legendre.legvander(_GL_X, GL_ORDER - 1).T * _GL_W
    pts = chebyshev.chebpts1(GL_ORDER + 1)
    to_chebyshev = np.linalg.solve(chebyshev.chebvander(pts, GL_ORDER), legendre.legvander(pts, GL_ORDER))
    integral = to_chebyshev @ -legendre.legint(to_legendre, lbnd=1.0)
    return np.array([chebyshev.chebdiv(q, [1.0, -1.0])[0] for q in integral.T]).T


_TO_S = _partial_integral_matrix()


def _chebyshev_sum(coef, xi):
    """Clenshaw sum of the Chebyshev series with coefficient rows ``coef`` at xi."""
    x2 = 2.0 * xi
    b1, b2, tmp = coef[-1].copy(), np.zeros_like(xi), np.empty_like(xi)
    for c in coef[-2:0:-1]:
        np.multiply(x2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    return coef[0] + xi * b1 - b2


def panel_edges(lo, hi, breakpoints=()):
    """Panel edges on [lo, hi]: log-spaced, 40 per decade, from lo, or for
    lo == 0 (where log spacing is impossible) after 64 linear panels on
    [0, min(hi, 1)].  Interior breakpoints are inserted, and never dropped,
    so each is a panel edge and piecewise-defined integrands are never
    integrated across a seam.
    """
    lo = float(lo)
    hi = float(hi)
    if not hi > lo:
        raise DomainError(f"empty quadrature range [{lo}, {hi}]")
    lin_hi = lo if lo > 0 else min(hi, 1.0)
    pieces = []
    if lin_hi > lo:
        pieces.append(np.linspace(lo, lin_hi, 65))
    if hi > lin_hi:
        n_log = max(8, int(np.ceil(40 * (np.log10(hi) - np.log10(lin_hi)))))
        pieces.append(np.geomspace(lin_hi, hi, n_log + 1))
    interior = np.asarray([b for b in breakpoints if lo < b < hi], float)
    edges = np.unique(np.concatenate([*pieces, interior]))
    # drop grid edges nearly coincident with an inserted breakpoint; relative,
    # so an inserted edge close to a zero lo stays, and neither a breakpoint nor hi is dropped
    keep = np.concatenate([[True], np.diff(edges) > 1e-14 * edges[1:]])
    keep[np.searchsorted(edges, interior)] = keep[-1] = True
    return edges[keep]


class PanelQuadrature:
    """Cumulative integrals of ``fn`` over a fixed panel grid.

    ``fn`` is evaluated once, on every Gauss-Legendre node, at
    construction; the quadrature keeps the panel sums as prefix and
    suffix sums and, per panel, the Chebyshev coefficient column S with
    integral over [x, b] = (b - x) S(xi), where xi maps the panel [a, b]
    onto [-1, 1].  A query for the integral to the grid end costs one
    searchsorted plus one Clenshaw sum and is fully vectorized over query
    points; the integral from the grid start is a prefix sum, answered at
    panel edges only.
    """

    def __init__(self, fn, edges):
        self.edges = np.asarray(edges, float)
        mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        half = 0.5 * (self.edges[1:] - self.edges[:-1])
        nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
        vals = fn(nodes.ravel()).reshape(nodes.shape)
        panel = half * (vals * _GL_W[None, :]).sum(axis=1)
        self.prefix = np.concatenate([[0.0], np.cumsum(panel)])
        # summed from the end, so a tail that is a tiny part of the total keeps its digits
        self.suffix = np.concatenate([np.cumsum(panel[::-1])[::-1], [0.0]])
        self.S = _TO_S @ vals.T

    def integral_from_start(self, x):
        """Integral of fn over [edges[0], x] for x on the panel edges, vectorized in x."""
        x = np.asarray(x, float)
        i = np.searchsorted(self.edges, x)
        if not np.all(self.edges[np.minimum(i, len(self.edges) - 1)] == x):
            raise DomainError("from-start quadrature query off the panel edges")
        return float(self.prefix[i]) if x.ndim == 0 else self.prefix[i]

    def integral_to_end(self, x):
        """Integral of fn over [x, edges[-1]], vectorized in x."""
        x = np.asarray(x, float)
        lo, hi = self.edges[0], self.edges[-1]
        if not np.all((lo * (1 - 1e-12) - 1e-300 <= x) & (x <= hi * (1 + 1e-12))):
            raise DomainError(f"quadrature query outside panel grid [{lo}, {hi}]")
        xc = np.clip(np.atleast_1d(x), lo, hi)
        # an edge query lands in the panel that ends there, whose partial vanishes
        i = np.clip(np.searchsorted(self.edges, xc) - 1, 0, len(self.edges) - 2)
        # the offsets from the panel edges are formed directly: 1 +- xi would drop their digits
        left, right = xc - self.edges[i], self.edges[i + 1] - xc
        xi = (left - right) / (left + right)
        # take() keeps each gathered coefficient row contiguous for the Clenshaw loop
        out = self.suffix[i + 1] + right * _chebyshev_sum(self.S.take(i, axis=1), xi)
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def integral_to_end_at(self, xi, n):
        """Integrals to the grid end from the points xi (an array) of each of the first n panels."""
        val = chebyshev.chebvander(xi, GL_ORDER - 1) @ self.S[:, :n]  # S(xi): a dot per point, no gather
        return self.suffix[1:n + 1, None] + 0.5 * (1.0 - xi) * np.diff(self.edges[:n + 1])[:, None] * val.T
