"""Composite Gauss-Legendre quadrature on fixed panel grids.

All radial integrals in the package (warp tail integrals, ball volumes)
are integrals of smooth positive integrands over ranges that can span
dozens of decades.  Adaptive scalar quadrature is too slow for the volume
of queries the level-set machinery generates, so instead we lay down a
deterministic panel grid once (logarithmic, linear near a zero inner
edge, split at the metric's breakpoints), evaluate the integrand
on all Gauss-Legendre nodes in one vectorized call, and answer arbitrary
sub-interval queries from cumulative panel sums plus a partial panel.

With 16-point panels at >= 40 panels per decade the panel rule is exact
to machine precision for the smooth integrands used here; accuracy is
exercised against closed forms in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

GL_ORDER = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)


def panel_edges(lo, hi, breakpoints=()):
    """Panel edges on [lo, hi]: log-spaced, 40 per decade, from lo, or for
    lo == 0 (where log spacing is impossible) after 64 linear panels on
    [0, min(hi, 1)].  Interior breakpoints are inserted so that
    piecewise-defined integrands are never integrated across a seam.
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
        n_log = max(8, int(np.ceil(40 * np.log10(hi / lin_hi))))
        pieces.append(np.geomspace(lin_hi, hi, n_log + 1))
    edges = np.unique(np.concatenate(pieces))
    interior = [b for b in breakpoints if lo < b < hi]
    if interior:
        edges = np.unique(np.concatenate([edges, np.asarray(interior, float)]))
    # drop nearly-coincident edges produced by breakpoint insertion
    keep = np.concatenate([[True], np.diff(edges) > 1e-14 * np.maximum(1.0, edges[1:])])
    return edges[keep]


def _partial(fn, a, b):
    """Vectorized Gauss-Legendre integral of fn over each [a_i, b_i]."""
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    return half * (vals * _GL_W[None, :]).sum(axis=1)


class PanelQuadrature:
    """Cumulative integrals of ``fn`` over a fixed panel grid.

    Panel integrals are computed once at construction; queries for
    integrals from the grid start (or to the grid end) cost one
    searchsorted plus a single partial-panel evaluation and are fully
    vectorized over query points.
    """

    def __init__(self, fn, edges):
        self.fn = fn
        self.edges = np.asarray(edges, float)
        panel = _partial(fn, self.edges[:-1], self.edges[1:])
        self.prefix = np.concatenate([[0.0], np.cumsum(panel)])
        # summed from the end, so a tail that is a tiny part of the total keeps its digits
        self.suffix = np.concatenate([np.cumsum(panel[::-1])[::-1], [0.0]])

    @property
    def lo(self):
        return self.edges[0]

    @property
    def hi(self):
        return self.edges[-1]

    def _locate(self, x):
        x = np.asarray(x, float)
        if not np.all((self.lo * (1 - 1e-12) - 1e-300 <= x) & (x <= self.hi * (1 + 1e-12))):
            raise DomainError(
                f"quadrature query outside panel grid [{self.lo}, {self.hi}]"
            )
        xc = np.clip(x, self.lo, self.hi)
        idx = np.clip(np.searchsorted(self.edges, xc, side="right") - 1, 0, len(self.edges) - 2)
        return xc, idx

    def integral_from_start(self, x):
        """Integral of fn over [edges[0], x], vectorized in x."""
        x = np.asarray(x, float)
        scalar = x.ndim == 0
        xc, idx = self._locate(x)
        xf = np.atleast_1d(xc)
        out = self.prefix[np.atleast_1d(idx)] + _partial(self.fn, self.edges[np.atleast_1d(idx)], xf)
        return float(out[0]) if scalar else out.reshape(x.shape)

    def integral_to_end(self, x):
        """Integral of fn over [x, edges[-1]], vectorized in x."""
        x = np.asarray(x, float)
        scalar = x.ndim == 0
        xc, idx = self._locate(x)
        xf = np.atleast_1d(xc)
        i = np.atleast_1d(idx)
        # integrate the remainder of the containing panel, then add full panels
        rest = _partial(self.fn, xf, self.edges[i + 1])
        out = rest + self.suffix[i + 1]
        return float(out[0]) if scalar else out.reshape(x.shape)
