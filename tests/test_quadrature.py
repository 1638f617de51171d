"""PanelQuadrature queries against an independent Gauss-Legendre oracle."""

import numpy as np
import pytest

import pinchlab as pl
from pinchlab.errors import DomainError
from pinchlab.quadrature import PanelQuadrature, panel_edges

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
