import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl
from pinchlab.errors import DomainError, NonparabolicityError
from pinchlab.potential import TailIntegrator
from pinchlab.stencils import five_point_first, five_point_second

from test_metrics import schw_arclength


# ---------------------------------------------------------------------------
# tail integrals
# ---------------------------------------------------------------------------

def test_tail_integral_flat():
    assert TailIntegrator(pl.flat_space(), 2.0, 2.0).value(2.0) == pytest.approx(0.5, rel=1e-9)


def test_tail_integral_cone():
    assert TailIntegrator(pl.cone(0.5), 1.0, 1.0).value(1.0) == pytest.approx(4.0, rel=1e-9)


def test_tail_integral_power():
    assert TailIntegrator(pl.power_law(1.0, 0.8), 1.0, 1.0).value(1.0) == pytest.approx(1.0 / 0.6, rel=1e-9)


def test_tail_integral_schwarzschild():
    # I(r) = (1 - sqrt(1 - 2m/r)) / m, via the substitution that makes the
    # radial integrand an exact differential
    metric = pl.schwarzschild_slice(1.0)
    for r in (2.0, 3.0, 10.0):
        s = schw_arclength(r)
        expect = 1.0 - math.sqrt(1.0 - 2.0 / r)
        assert TailIntegrator(metric, s, s).value(s) == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("beta", [0.5, 0.4, 0.2])
def test_nonparabolic_tail_rejected(beta):
    metric = pl.power_law(1.0, beta)
    with pytest.raises(NonparabolicityError):
        TailIntegrator(metric, 1.0, 1.0)
    with pytest.raises(NonparabolicityError):
        pl.solve_potential(pl.ExteriorDomain(metric, 1.0))


def test_superlinear_tail_rejected():
    with pytest.raises(DomainError):
        TailIntegrator(pl.power_law(1.0, 1.2), 1.0, 1.0)


# ---------------------------------------------------------------------------
# solve_potential closed forms
# ---------------------------------------------------------------------------

def test_flat_potential_is_newtonian(solve_cache):
    sol = solve_cache("flat", 1.0)
    s = np.geomspace(1.0, 100.0, 40)
    assert np.abs(sol.u(s) * s - 1.0).max() < 1e-9
    assert np.abs(sol.w(s) - np.log(s)).max() < 1e-9
    assert np.abs(sol.grad_w(s) * s - 1.0).max() < 1e-9
    assert sol.ncap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("s0", [0.5, 1.0, 2.0])
def test_cone_capacity(solve_cache, s0):
    sol = solve_cache("cone", s0)
    assert sol.ncap == pytest.approx(0.25 * s0, rel=1e-9)
    s = np.geomspace(s0, 50 * s0, 20)
    assert np.abs(sol.u(s) * s / s0 - 1.0).max() < 1e-9


@pytest.mark.parametrize("mass", [1.0, 2.5])
def test_schwarzschild_horizon_capacity_is_mass(mass):
    metric = pl.schwarzschild_slice(mass)
    sol = pl.solve_potential(pl.ExteriorDomain(metric, 0.0), t_max=3.0)
    assert sol.ncap == pytest.approx(mass, rel=1e-9)


def test_schwarzschild_horizon_potential_closed_form(solve_cache):
    sol = solve_cache("schwarzschild", 0.0)
    for r in (2.5, 4.0, 8.0, 50.0):
        s = schw_arclength(r)
        assert sol.u(s) == pytest.approx(1.0 - math.sqrt(1.0 - 2.0 / r), rel=1e-9)


def test_potential_range_and_monotonicity(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        u = np.atleast_1d(sol.u(series.s))
        assert u.max() <= 1.0 + 1e-12
        assert u.min() > 0.0
        assert np.all(np.diff(u) < 0), name
        w = np.atleast_1d(sol.w(series.s))
        assert abs(w[0]) < 1e-12
        assert np.all(np.diff(w) > 0), name


def test_radial_harmonic_flux(catalog_bundle):
    # (f^2 u')' = 0: the flux f^2 u' must equal -ncap everywhere
    for name, (metric, sol, series) in catalog_bundle.items():
        s = np.atleast_1d(sol.s_of_t(np.linspace(0.3, 4.5, 9)))
        du = five_point_first(sol.u, s, 0.01 * s)
        resid = np.abs(metric.f(s) ** 2 * du / sol.ncap + 1.0)
        assert resid.max() < 1e-6, name


def test_log_potential_equation(catalog_bundle):
    # w'' + (2 f'/f) w' = (w')^2, the radial form of Delta w = |grad w|^2
    for name, (metric, sol, series) in catalog_bundle.items():
        s = np.atleast_1d(sol.s_of_t(np.linspace(0.3, 4.5, 9)))
        gw = np.atleast_1d(sol.grad_w(s))
        d2w = five_point_second(sol.w, s, 0.01 * s)
        resid = np.abs(d2w + 2.0 * metric.df(s) / metric.f(s) * gw - gw * gw)
        assert (resid / (gw * gw)).max() < 1e-6, name


def test_grad_w_equals_minus_log_derivative(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        s = np.atleast_1d(sol.s_of_t(np.linspace(0.25, 4.75, 10)))
        du = five_point_first(sol.u, s, 0.003 * s)
        rel = np.abs(-du / np.atleast_1d(sol.u(s)) / np.atleast_1d(sol.grad_w(s)) - 1.0)
        assert rel.max() < 1e-9, name


# ---------------------------------------------------------------------------
# level-set parametrization
# ---------------------------------------------------------------------------

def test_level_radius_flat(solve_cache):
    sol = solve_cache("flat", 1.0)
    assert sol.s_of_t(1.0) == pytest.approx(math.e, abs=1e-10)


def test_level_radius_boundary_is_exact(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        assert sol.s_of_t(0.0) == sol.s0, name


def test_level_radius_power(solve_cache):
    # t(s) = 0.6 log s for the beta = 0.8 profile from s0 = 1
    sol = solve_cache("power", 1.0)
    assert sol.s_of_t(0.6) == pytest.approx(math.e, abs=1e-10)


def test_level_radius_monotone(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        s = np.atleast_1d(sol.s_of_t(np.linspace(0.0, 5.0, 101)))
        assert np.all(np.diff(s) > 0), name


def test_level_radius_beyond_grid_raises(solve_cache):
    sol = solve_cache("flat", 1.0)
    with pytest.raises(DomainError):
        sol.s_of_t(sol.t_usable + 1.0)
    with pytest.raises(DomainError):
        sol.s_of_t(-0.5)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, 5.0))
def test_level_roundtrip_property(solve_cache, t):
    sol = solve_cache("power", 1.0)
    s = sol.s_of_t(t)
    assert abs(float(sol.w(s)) - t) < 1e-10


def test_levelset_fields(solve_cache):
    sol = solve_cache("flat", 1.0)
    lev = sol.level_set(1.0)
    assert lev.genus == 0
    assert lev.traceless_second_fundamental_form_norm == 0.0
    assert lev.tangential_grad_norm == 0.0
    assert lev.area == pytest.approx(4 * math.pi * math.e**2, rel=1e-10)
    assert lev.H == pytest.approx(2 / math.e, rel=1e-10)
    assert lev.grad_w > 0


# ---------------------------------------------------------------------------
# capacity scaling
# ---------------------------------------------------------------------------

def test_capacity_scaling_flat(solve_cache):
    dev = pl.capacity_scaling_check(solve_cache("flat", 1.0), np.linspace(0, 5, 26))
    assert dev < 1e-9


def test_capacity_scaling_power(solve_cache):
    dev = pl.capacity_scaling_check(solve_cache("power", 1.0), np.linspace(0, 5, 26))
    assert dev < 1e-8


def test_capacity_scaling_schwarzschild(solve_cache):
    dev = pl.capacity_scaling_check(solve_cache("schwarzschild", 0.0, t_max=3.0),
                                    np.linspace(0, 3, 26))
    assert dev < 1e-6


# ---------------------------------------------------------------------------
# domain validation
# ---------------------------------------------------------------------------

def test_domain_rejects_pole_boundary():
    with pytest.raises(DomainError):
        pl.ExteriorDomain(pl.flat_space(), 0.0)
    with pytest.raises(DomainError):
        pl.ExteriorDomain(pl.cone(0.5), 0.0)


def test_domain_accepts_horizon_boundary():
    dom = pl.ExteriorDomain(pl.schwarzschild_slice(1.0), 0.0)
    assert dom.s0 == 0.0


def test_table_metric_through_potential(tmp_path):
    # tabulated flat profile must reproduce the Newtonian potential within
    # the table accuracy, with levels capped at the table end
    s = np.geomspace(0.5, 2000.0, 900)
    metric = pl.from_table(s, s.copy())
    sol = pl.solve_potential(pl.ExteriorDomain(metric, 1.0), t_max=5.0)
    assert sol.ncap == pytest.approx(1.0, rel=1e-6)
    probe = np.geomspace(1.0, 50.0, 20)
    assert np.abs(sol.u(probe) * probe - 1.0).max() < 1e-6
