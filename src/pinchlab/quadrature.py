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

The grid starts at 10 log panels per decade, and a panel whose error
estimate, from the trailing Chebyshev coefficients of its series, is over
budget is halved.  The catalog profiles need no split; a tabulated one,
C^4 at its rows, may.  The tests check accuracy against closed forms and
a finer Gauss-Legendre oracle.

Every radial and level grid in the package -- the panel edges here, the
probe radii, fit windows, level grids and check grids elsewhere -- comes
from ``lin_grid`` or ``log_grid``.  They return exactly the bytes of
``np.linspace`` and ``np.geomspace`` for the finite float ends the
package passes, by doing numpy's own arithmetic without its dtype
promotion, sign rotation and dispatch, which cost several times the
arithmetic on the short grids that make most of the calls.
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
#: log panels per decade of ``panel_edges``, before any split
PANELS_PER_DECADE = 10
#: a panel's error estimate, as a share of the integral a query through it reads, above which it is
#: halved: a tenth of the 1e-12 headroom the level round trip keeps under its 1e-10 contract
PANEL_BUDGET = 1e-13
#: rounds of halving; the benchmark's 200- to 800-row tables need at most one
SPLIT_ROUNDS = 4
#: knots per panel of the level map's seed, its own density: 120 per decade on the coarse log panels (a split
#: half keeps 12).  The worst level residual (the blend) is ~1.5e-13 with 12, ~9e-12 with 6, 2.9e-10 with 3
SEED_KNOTS_PER_PANEL = 12
SEED_FRACTIONS = np.arange(SEED_KNOTS_PER_PANEL) / SEED_KNOTS_PER_PANEL  # of the panel width, from its start
_SEED_VANDER = chebyshev.chebvander(2.0 * SEED_FRACTIONS - 1.0, GL_ORDER - 1)  # knots x 16: T_k at each knot's xi


def _nodes(a, b):
    """The Gauss-Legendre nodes of the panels [a, b], a row per panel on a new last axis."""
    return (0.5 * (a + b))[..., None] + (0.5 * (b - a))[..., None] * _GL_X


def _chebyshev_sum(coef, xi):
    """Clenshaw sum of the Chebyshev series with coefficient rows ``coef`` at xi, which
    broadcasts against a row: a row of shape (m, n) sums m series at the n points xi."""
    x2 = 2.0 * xi
    b1, b2, tmp = coef[-1].copy(), np.zeros_like(coef[-1]), np.empty_like(coef[-1])
    for c in coef[-2:0:-1]:
        np.multiply(x2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    return coef[0] + xi * b1 - b2


def lin_grid(lo, hi, n):
    """``np.linspace(lo, hi, n)``, bit for bit: arange(n) * ((hi - lo) / (n - 1)) + lo with the last
    point pinned to hi, or, for a step that underflows to 0, arange(n) / (n - 1) * (hi - lo) + lo."""
    lo, hi = float(lo), float(hi)
    y = np.arange(float(n))
    div = max(n - 1, 1)
    step = (hi - lo) / div
    if n > 1 and step != 0.0:
        y *= step
    else:  # one point, [0 * (hi - lo) + lo] with its signed zero, or a step underflowing to 0, as numpy
        y /= div
        y *= hi - lo
    y += lo
    if n > 1:
        y[-1] = hi
    return y


def log_grid(lo, hi, n):
    """``np.geomspace(lo, hi, n)`` for 0 < lo, 0 < hi and n >= 2, bit for bit: 10 ** lin_grid(log10 lo,
    log10 hi, n) with both ends pinned, since 10 ** log10(x) need not be x."""
    y = 10.0 ** lin_grid(np.log10(lo), np.log10(hi), n)
    y[0], y[-1] = lo, hi
    return y


def panel_edges(lo, hi, breakpoints=()):
    """Panel edges on [lo, hi]: log-spaced, PANELS_PER_DECADE to a decade, from
    lo, or for lo == 0 (where log spacing is impossible) after 64 linear
    panels on [0, min(hi, 1)].  Interior breakpoints are inserted, and never
    dropped, so each is a panel edge and piecewise-defined integrands are
    never integrated across a seam.  ``PanelQuadrature`` halves a panel its
    integrand needs finer.
    """
    lo = float(lo)
    hi = float(hi)
    if not hi > lo:
        raise DomainError(f"empty quadrature range [{lo}, {hi}]")
    lin_hi = lo if lo > 0 else min(hi, 1.0)
    pieces = []
    if lin_hi > lo:
        pieces.append(lin_grid(lo, lin_hi, 65))
    if hi > lin_hi:
        n_log = max(8, int(np.ceil(PANELS_PER_DECADE * (np.log10(hi) - np.log10(lin_hi)))))
        pieces.append(log_grid(lin_hi, hi, n_log + 1))
    interior = np.asarray([b for b in breakpoints if lo < b < hi], float)
    edges = np.sort(np.concatenate([*pieces, interior]))  # np.unique would import numpy.ma
    # drop repeated edges and grid edges nearly coincident with an inserted breakpoint; relative,
    # so an inserted edge close to a zero lo stays, and neither a breakpoint nor hi is dropped
    keep = np.concatenate([[True], np.diff(edges) > 1e-14 * edges[1:]])
    keep[np.searchsorted(edges, interior)] = keep[-1] = True
    return edges[keep]


class PanelQuadrature:
    """Cumulative integrals of ``fn`` over a panel grid.

    ``fn`` is evaluated at construction only: on every Gauss-Legendre node
    of the given grid, then on the nodes of the halves of each panel over
    budget, for up to SPLIT_ROUNDS rounds; every given edge stays an edge.
    The quadrature keeps the panel sums as prefix and suffix sums and, per
    panel, the Chebyshev coefficient column S with integral over [x, b] =
    (b - x) S(xi), where xi maps the panel [a, b] onto [-1, 1].  A partial
    integral errs by about the panel width times the two trailing
    coefficients of S; its budget is PANEL_BUDGET of the smaller of the
    integrals a query through the panel reads (the suffix from its start,
    the prefix to its end), not of the panel's own integral.  At a pole,
    where f^2 = c^2 s^(2 beta), halving the first panel keeps its own
    relative error, so a panel at a zero edge is not graded.

    A query for the integral to the grid end, vectorized over its points,
    costs one test against the grid-end bounds formed at construction, one
    searchsorted over the interior edges and one Clenshaw sum; the integral
    from the grid start is a prefix sum, answered at panel edges only.
    """

    def __init__(self, fn, edges):
        edges = np.asarray(edges, float)
        half = 0.5 * (edges[1:] - edges[:-1])
        vals = fn(_nodes(edges[:-1], edges[1:]).ravel()).reshape(-1, GL_ORDER)
        for split_round in range(SPLIT_ROUNDS + 1):
            panel = (vals @ _GL_W) * half
            self.prefix, self.suffix = np.zeros(panel.size + 1), np.zeros(panel.size + 1)
            np.cumsum(panel, out=self.prefix[1:])
            # summed from the end, so a tail that is a tiny part of the total keeps its digits
            np.cumsum(panel[::-1], out=self.suffix[-2::-1])
            self.S = _TO_S @ vals.T
            over = half * np.abs(self.S[-2:]).sum(axis=0) > 0.5 * PANEL_BUDGET * np.minimum(
                self.prefix[1:], self.suffix[:-1])
            over[0] &= edges[0] != 0.0
            if split_round == SPLIT_ROUNDS or not over.any():
                break
            i = np.flatnonzero(over)
            a, b = edges[i], edges[i + 1]
            mid = 0.5 * (a + b)
            halves = fn(_nodes(np.stack([a, mid]), np.stack([mid, b])).ravel()).reshape(2, -1, GL_ORDER)
            edges = np.insert(edges, i + 1, mid)
            half = 0.5 * (edges[1:] - edges[:-1])
            vals = np.repeat(vals, over + 1, axis=0)
            left = i + np.arange(i.size)  # each split panel's left half, in the new grid
            vals[left], vals[left + 1] = halves
        self.edges = edges
        self._x_lo, self._x_hi = float(edges[0] * (1 - 1e-12) - 1e-300), float(edges[-1] * (1 + 1e-12))

    def integral_from_start(self, x):
        """Integral of fn over [edges[0], x] for x on the panel edges, vectorized in x."""
        x = np.asarray(x, float)
        i = np.searchsorted(self.edges, x)
        if not np.all(self.edges[np.minimum(i, len(self.edges) - 1)] == x):
            raise DomainError("from-start quadrature query off the panel edges")
        return float(self.prefix[i]) if x.ndim == 0 else self.prefix[i]

    def integral_to_end(self, x):
        """Integral of fn over [x, edges[-1]], vectorized in x; x within 1e-12 (relative) past an end is clamped."""
        x = np.asarray(x, float)
        if not ((self._x_lo <= x) & (x <= self._x_hi)).all():  # False for NaN as well
            raise DomainError(f"quadrature query outside panel grid [{self.edges[0]}, {self.edges[-1]}]")
        xc = np.minimum(np.maximum(np.atleast_1d(x), self.edges[0]), self.edges[-1])
        # an edge query lands in the panel that ends there, whose partial vanishes
        i = np.searchsorted(self.edges[1:-1], xc)  # over the interior edges
        # the offsets from the panel edges are formed directly: 1 +- xi would drop their digits
        left, right = xc - self.edges[i], self.edges[i + 1] - xc
        xi = (left - right) / (left + right)
        # take() keeps each gathered coefficient row contiguous for the Clenshaw loop
        out = self.suffix[i + 1] + right * _chebyshev_sum(self.S.take(i, axis=1), xi)
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def integral_to_end_at(self, n):
        """Integrals to the grid end from the SEED_FRACTIONS of each of the first n panels."""
        val = _SEED_VANDER @ self.S[:, :n]  # S at the seed knots: a dot per point, no gather
        return self.suffix[1:n + 1, None] + (1.0 - SEED_FRACTIONS) * np.diff(self.edges[:n + 1])[:, None] * val.T
