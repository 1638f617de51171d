"""PanelQuadrature queries against an independent Gauss-Legendre oracle."""

import numpy as np
import pytest

import pinchlab as pl
from pinchlab.errors import DomainError
from pinchlab.quadrature import (GL_ORDER, PANEL_BUDGET, PanelQuadrature, _chebyshev_sum, lin_grid, log_grid,
                                 panel_edges)

_X, _W = np.polynomial.legendre.leggauss(16)


def gauss_legendre_16(fn, a, b):
    """16-node Gauss-Legendre rule on each [a_i, b_i]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * (fn(mid[:, None] + half[:, None] * _X) * _W).sum(axis=1)


KINDS = ("flat", "power", "schwarzschild", "sphere_cap_blend")


@pytest.fixture(scope="module", params=KINDS)
def tail_quad(request):
    metric = pl.build_metric(request.param)
    fn = lambda s: metric.f(s) ** -2.0
    edges = panel_edges(0.5, 50.0, metric.breakpoints)
    return fn, edges, PanelQuadrature(fn, edges)


def query_points(edges, seed=0):
    """Random points in every panel, and points 1e-13 of a panel width
    inside either edge of every panel."""
    a, b = edges[:-1], edges[1:]
    width = b - a
    u = np.random.default_rng(seed).random(a.size)
    x = np.concatenate([a + u * width, a + 1e-13 * width, b - 1e-13 * width])
    i = np.concatenate([np.arange(a.size)] * 3)
    return x, i


def test_partials_match_gauss_legendre_oracle(tail_quad):
    fn, edges, quad = tail_quad
    x, i = query_points(edges)
    whole = gauss_legendre_16(fn, edges[:-1], edges[1:])
    before = np.concatenate([[0.0], np.cumsum(whole)])
    after = np.concatenate([np.cumsum(whole[::-1])[::-1], [0.0]])
    to_end = gauss_legendre_16(fn, x, edges[i + 1]) + after[i + 1]
    assert np.abs(quad.integral_from_start(edges[1:]) / before[1:] - 1.0).max() <= 1e-13
    assert np.abs(quad.integral_to_end(x) / to_end - 1.0).max() <= 1e-13


def test_partials_vanish_at_panel_edges(tail_quad):
    _, edges, quad = tail_quad
    assert np.array_equal(quad.integral_from_start(edges[:-1]), quad.prefix[:-1])
    assert np.array_equal(quad.integral_to_end(edges[1:]), quad.suffix[1:])
    assert quad.integral_from_start(edges[0]) == 0.0
    assert quad.integral_to_end(edges[-1]) == 0.0


def _to_end_with_clips(quad, x):
    """integral_to_end as it read with np.clip on the query and on a full-edge panel index."""
    x = np.asarray(x, float)
    lo, hi = quad.edges[0], quad.edges[-1]
    xc = np.clip(np.atleast_1d(x), lo, hi)
    i = np.clip(np.searchsorted(quad.edges, xc) - 1, 0, len(quad.edges) - 2)
    left, right = xc - quad.edges[i], quad.edges[i + 1] - xc
    xi = (left - right) / (left + right)
    out = quad.suffix[i + 1] + right * _chebyshev_sum(quad.S.take(i, axis=1), xi)
    return out.reshape(x.shape)


def test_to_end_matches_the_clipped_index_bit_for_bit(tail_quad):
    _, edges, quad = tail_quad
    x, _ = query_points(edges, seed=3)
    x = np.concatenate([x, edges, [edges[0] * (1 - 1e-12), edges[-1] * (1 + 1e-12)]])
    assert np.array_equal(quad.integral_to_end(x), _to_end_with_clips(quad, x))


def test_to_end_clamps_within_1e12_of_either_grid_end(tail_quad):
    _, edges, quad = tail_quad
    assert quad.integral_to_end(edges[0] * (1 - 1e-12)) == quad.integral_to_end(edges[0])
    assert quad.integral_to_end(edges[-1] * (1 + 1e-12)) == 0.0
    # an interior edge, asked alone, gives its suffix as the array query does
    assert quad.integral_to_end(edges[5]) == quad.suffix[5]
    for outside in (edges[0] * (1 - 3e-12), edges[-1] * (1 + 3e-12), np.nan):
        with pytest.raises(DomainError, match=r"quadrature query outside panel grid \["):
            quad.integral_to_end(np.array([edges[3], outside]))


def test_to_end_keeps_the_query_shape(tail_quad):
    _, edges, quad = tail_quad
    x, _ = query_points(edges)
    grid = x[:12].reshape(3, 4)
    out = quad.integral_to_end(grid)
    assert out.shape == (3, 4) and np.array_equal(out.ravel(), quad.integral_to_end(x[:12]))
    one = quad.integral_to_end(np.asarray(x[1]))
    assert type(one) is float and one == quad.integral_to_end(x[:2])[1]


def test_from_start_off_panel_edges_raises(tail_quad):
    # integrals from the grid start are whole-panel prefix sums only
    _, edges, quad = tail_quad
    x, _ = query_points(edges)
    with pytest.raises(DomainError, match="off the panel edges"):
        quad.integral_from_start(x)
    for point in (x[0], np.nextafter(edges[1], np.inf), np.nextafter(edges[-1], np.inf)):
        with pytest.raises(DomainError, match="off the panel edges"):
            quad.integral_from_start(point)


def test_quadrature_keeps_only_the_to_end_table(tail_quad):
    _, edges, quad = tail_quad
    assert not hasattr(quad, "R")
    assert quad.S.shape == (16, edges.size - 1)


def test_requested_breakpoints_are_never_dropped():
    # 0.5 lies on the linear grid of [0, 1]; the float after it must still be an edge
    r = np.nextafter(0.5, 1.0)
    edges = panel_edges(0.0, 100.0, (r,))
    assert r in edges and 0.5 in edges


def test_grid_ends_at_hi_next_to_a_breakpoint():
    # a breakpoint one float below hi stays an edge, and so does hi
    b = np.nextafter(10.0, 0.0)
    edges = panel_edges(1.0, 10.0, (b,))
    assert edges[-1] == 10.0 and b in edges


def test_range_wider_than_the_float_range_gets_10_panels_per_decade():
    # hi / lo = 1e600 overflows; the decade count is a difference of logs
    edges = panel_edges(1e-300, 1e300)
    assert edges.size == 10 * 600 + 1 and edges[0] == 1e-300 and edges[-1] == 1e300


def _budget_excess(quad):
    """Each panel's error estimate over its budget; the first panel at a zero edge (a pole) is not graded."""
    est = np.diff(quad.edges) * np.abs(quad.S[-2:]).sum(axis=0)
    excess = est / (PANEL_BUDGET * np.minimum(quad.prefix[1:], quad.suffix[:-1]))
    excess[0] *= quad.edges[0] != 0.0
    return excess


_CATALOG_PROFILES = {**{kind: pl.build_metric(kind) for kind in ("cone", *KINDS)},
                     "power-0.53": pl.power_law(1.0, 0.53), "blend-0.15": pl.sphere_cap_blend(1.46, 0.15)}


@pytest.mark.parametrize("name", _CATALOG_PROFILES)
def test_catalog_integrands_need_no_split(name):
    # at 10 panels per decade the trailing coefficients of f^-2 and f^2 sit at roundoff for every
    # catalog profile, so the quadrature keeps the grid it was given, over I(s)'s range and a ball's
    metric = _CATALOG_PROFILES[name]
    for lo, hi, fn in ((max(metric.domain_start, 1e-3), 1e8, lambda s: metric.f(s) ** -2.0),
                       (metric.domain_start, 1e4, lambda s: metric.f(s) ** 2)):
        edges = panel_edges(lo, hi, metric.breakpoints)
        quad = PanelQuadrature(fn, edges)
        assert np.array_equal(quad.edges, edges)
        assert _budget_excess(quad).max() <= 0.1


def _benchmark_table(rows):
    """A power law on log-spaced rows from 0.1 to 1e3, as the benchmark's tables."""
    s = log_grid(0.1, 1e3, rows)
    return pl.from_table(s, 1.2 * s ** 0.8)


@pytest.mark.parametrize("rows", [200, 500])
@pytest.mark.parametrize("integrand", ["tail", "volume"])
def test_table_panels_split_until_within_budget(rows, integrand):
    # the quintic spline is C^4 at its rows, so a coarse panel across rows may be over budget: it is
    # halved, the integrand is evaluated on the new halves only, and every given edge stays an edge
    metric = _benchmark_table(rows)
    power = -2.0 if integrand == "tail" else 2.0
    points = []

    def counting(s):
        points.append(s.size)
        return metric.f(s) ** power

    edges = panel_edges(0.5 if integrand == "tail" else 0.1, 1e3, (3.7, 12.0))
    quad = PanelQuadrature(counting, edges)
    splits = quad.edges.size - edges.size
    assert (splits > 0) == (rows == 200)
    assert np.isin(edges, quad.edges).all()
    assert sum(points) == GL_ORDER * (edges.size - 1 + 2 * splits)
    assert _budget_excess(quad).max() <= 1.0
    # against a Gauss-Legendre oracle on 16 sub-panels per panel, each query errs by less than the
    # budget's share of the integral it reads: the suffix to the end, or the prefix at an edge
    sub = np.linspace(0.0, 1.0, 17)
    fine = lambda a, b: gauss_legendre_16(counting, (a[:, None] + (b - a)[:, None] * sub[:-1]).ravel(),
                                          (a[:, None] + (b - a)[:, None] * sub[1:]).ravel()).reshape(-1, 16).sum(1)
    whole = fine(quad.edges[:-1], quad.edges[1:])
    x, i = query_points(quad.edges)
    to_end = fine(x, quad.edges[i + 1]) + np.concatenate([np.cumsum(whole[::-1])[::-1], [0.0]])[i + 1]
    assert (np.abs(quad.integral_to_end(x) - to_end) <= PANEL_BUDGET * quad.suffix[i]).all()
    assert np.abs(quad.prefix[1:] / np.cumsum(whole) - 1.0).max() <= PANEL_BUDGET


def test_integrand_is_evaluated_only_at_construction():
    metric = pl.build_metric("power")
    points = []

    def counting(s):
        points.append(np.size(s))
        return metric.f(s) ** -2.0

    edges = panel_edges(1.0, 1e4)
    quad = PanelQuadrature(counting, edges)
    assert sum(points) == 16 * (edges.size - 1)
    x = np.geomspace(1.0, 1e4, 1001)
    quad.integral_from_start(edges)
    quad.integral_to_end(x)
    quad.integral_to_end(3.0)
    assert sum(points) == 16 * (edges.size - 1)
    assert not hasattr(quad, "fn")


def test_grids_are_numpys_bit_for_bit():
    # ends log-uniform over 1e-300 .. 1e300, far apart or within three decades, in either order;
    # lin_grid also from zero, negative and equal ends
    rng = np.random.default_rng(30)
    for _ in range(1500):
        lo = 10.0 ** rng.uniform(-300.0, 300.0)
        hi = 10.0 ** rng.uniform(-300.0, 300.0) if rng.random() < 0.5 else lo * 10.0 ** rng.uniform(-3.0, 3.0)
        n = int(rng.choice([1, 2, 3, 25, 34, 65, 1226, 5001]))
        if n > 1:
            assert log_grid(lo, hi, n).tobytes() == np.geomspace(lo, hi, n).tobytes(), (lo, hi, n)
        for a in (lo, -lo, 0.0, -0.0, hi):
            assert lin_grid(a, hi, n).tobytes() == np.linspace(a, hi, n).tobytes(), (a, hi, n)
    # one point, signed zeros included, and steps that underflow to 0 (numpy's y / div * delta)
    cases = [(-0.0, 5.0, 1), (0.0, -5.0, 1), (-0.0, -5.0, 1),
             (0.0, 5e-324, 3), (-5e-324, 5e-324, 65), (0.0, 1e-320, 5001), (2.5, 2.5, 34)]
    for lo, hi, n in cases:
        assert n == 1 or (hi - lo) / (n - 1) == 0.0
        assert lin_grid(lo, hi, n).tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)
