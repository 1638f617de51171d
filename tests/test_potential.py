import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl
from pinchlab.errors import DomainError, NonparabolicityError, NumericError
from pinchlab.potential import TailIntegrator
from pinchlab.quadrature import PanelQuadrature
from pinchlab.stencils import FIRST, first_from, nodes, second_from

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
        pl.PotentialSolution(pl.ExteriorDomain(metric, 1.0))


def test_superlinear_tail_rejected():
    with pytest.raises(DomainError):
        TailIntegrator(pl.power_law(1.0, 1.2), 1.0, 1.0)


@pytest.mark.parametrize("kind, params, s0, cause", [
    ("power", {"c": 1e170, "beta": 0.8}, 1.0, "underflows to 0 at s0=1"),  # f^-2 underflows on every node
    ("flat", {}, 1e-300, "overflows at s0=1e-300"),  # f^-2 overflows on the nodes near s0
])
def test_tail_integrator_checks_the_integral_at_its_lower_end(kind, params, s0, cause):
    # the solver and the Li-Yau fit each build one, so they raise the same error
    metric = pl.build_metric(kind, params)
    named = re.escape(f"I(s0), the integral of f^-2, {cause}")
    with pytest.raises(NumericError, match=named):
        TailIntegrator(metric, s0, 1000.0)
    with pytest.raises(NumericError, match=named):
        pl.PotentialSolution(pl.ExteriorDomain(metric, s0))
    with pytest.raises(NumericError, match=named):
        pl.li_yau_fit(pl.ExteriorDomain(metric, s0), 10.0, 1000.0)


# ---------------------------------------------------------------------------
# PotentialSolution closed forms
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
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 0.0), t_max=3.0)
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
        du = first_from(sol.u(nodes(s, 0.01 * s)[..., FIRST]), 0.01 * s)
        resid = np.abs(metric.f(s) ** 2 * du / sol.ncap + 1.0)
        assert resid.max() < 1e-6, name


def test_log_potential_equation(catalog_bundle):
    # w'' + (2 f'/f) w' = (w')^2, the radial form of Delta w = |grad w|^2
    for name, (metric, sol, series) in catalog_bundle.items():
        s = np.atleast_1d(sol.s_of_t(np.linspace(0.3, 4.5, 9)))
        gw = np.atleast_1d(sol.grad_w(s))
        d2w = second_from(sol.w(nodes(s, 0.01 * s)), 0.01 * s)
        resid = np.abs(d2w + 2.0 * metric.df(s) / metric.f(s) * gw - gw * gw)
        assert (resid / (gw * gw)).max() < 1e-6, name


def test_grad_w_equals_minus_log_derivative(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        s = np.atleast_1d(sol.s_of_t(np.linspace(0.25, 4.75, 10)))
        du = first_from(sol.u(nodes(s, 0.003 * s)[..., FIRST]), 0.003 * s)
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


def test_level_map_non_convergence_raises():
    sol = pl.PotentialSolution(pl.ExteriorDomain(pl.power_law(1.0, 0.8), 1.0))
    # every level seeded at the boundary, which is far from the level t = 5
    sol._seed[1:] = [[sol.s0], [0.0], [0.0]]  # (s, s', s'') at every knot
    with pytest.raises(NumericError, match="did not converge"):
        sol.s_of_t(5.0)


#: a table whose ripple, of wavelength 0.157, is shorter than the rows' spacing above s ~ 4
RIPPLE_S = np.geomspace(0.1, 1e4, 300)
RIPPLE_F = RIPPLE_S ** 0.8 * (1.0 + 0.3 * np.sin(40.0 * RIPPLE_S))


@pytest.mark.parametrize("s0", [1.0, 3.0])
def test_harmonic_check_rejects_a_table_too_rough_for_the_solve(s0):
    # flux residuals 1.25e-4 (s0 = 1) and 1.16e-4 (s0 = 3) against 1e-6; the type is the contract
    with pytest.raises(NumericError):
        pl.PotentialSolution(pl.ExteriorDomain(pl.from_table(RIPPLE_S, RIPPLE_F), s0))


def test_harmonic_check_stencil_stays_off_blend_breakpoints():
    # a level at s = 1.3438 whose stencil, 2% of s wide, would straddle
    # both blend breakpoints 1.3573 and 1.3757 (flux residual 1.49e-6)
    metric = pl.sphere_cap_blend(1.357313119594852, 0.01842796282132959)
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 0.6430607954720912))
    assert sol.t_max == 8.0


@pytest.mark.parametrize("t_max", [8.0, 25.0])
@pytest.mark.parametrize("s0", [1e-4, 0.004, 1.0, 3.0])
@pytest.mark.parametrize("kind, params, rate", [
    ("flat", {}, 1.0), ("cone", {"a": 0.5}, 1.0),
    ("power", {"beta": 0.8}, 1.0 / 0.6), ("power", {"c": 2.0, "beta": 0.6}, 5.0),
])
def test_level_radius_matches_closed_form(kind, params, rate, s0, t_max):
    # for an exact tail law c s^beta, t(s) = (2 beta - 1) log(s / s0)
    sol = pl.PotentialSolution(pl.ExteriorDomain(pl.build_metric(kind, params), s0), t_max=t_max)
    t = np.linspace(0.0, t_max, 51)
    exact = s0 * np.exp(rate * t)
    assert np.abs(sol.s_of_t(t) / exact - 1.0).max() < 1e-12


@pytest.mark.parametrize("t_max", [0.3, 8.0, 25.0])
@pytest.mark.parametrize("s0", [1e-3, 1.0])
@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
def test_level_map_makes_two_quadrature_queries(monkeypatch, kind, s0, t_max):
    # the quintic Hermite seed is accurate enough to need no Newton step: one
    # query checks the residual at the seed radius, which the map returns
    metric = pl.build_metric(kind)
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, s0), t_max=t_max)
    t = np.linspace(0.0, sol.t_max, 2001)
    queries = []
    integral_to_end = PanelQuadrature.integral_to_end

    def spy(self, x):
        queries.append(np.size(x))
        return integral_to_end(self, x)

    monkeypatch.setattr(PanelQuadrature, "integral_to_end", spy)
    s = sol.s_of_t(t)
    assert queries == [t.size]
    queries.clear()
    sol.s_of_t(0.5 * sol.t_max)
    assert queries == [1]
    monkeypatch.undo()
    assert np.abs(sol.w(s) - t).max() <= 1e-12
    s_map, tail = sol._level_map(t)  # the radius s_of_t returns, with I there
    assert np.array_equal(s_map, s) and np.array_equal(tail, sol.tail(s))
    assert s[0] == sol.s0 and tail[0] == sol.tail(sol.s0)
    if kind in ("flat", "cone", "power"):  # exact tail laws, as in the closed-form test
        exact = s0 * np.exp(t / (2.0 * metric.tail_exponent - 1.0))
        assert np.abs(s / exact - 1.0).max() < 1e-12


def _table_metric():
    s = np.geomspace(0.1, 1e4, 500)
    return pl.from_table(s, 1.3 * s ** 0.75)


_RESIDUAL_CASES = (
    [pytest.param(lambda kind=kind: pl.build_metric(kind), s0, t_max, id=f"{kind}-{s0}-{t_max}")
     for kind in ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend")
     for s0 in (1e-4, 1e-3, 0.25, 1.0, 4.0) for t_max in (0.3, 8.0, 25.0)]
    + [pytest.param(lambda w=w: pl.sphere_cap_blend(1.0, w), s0, 8.0, id=f"blend-{w}-{s0}")
       for w in (0.05, 0.15, 0.018) for s0 in (0.3, 0.64, 1.0)]
    + [pytest.param(lambda: pl.power_law(0.78, 0.507), 3.25, 8.0, id="power-0.507"),
       pytest.param(lambda: pl.power_law(1.0, 0.53), 1.0, 8.0, id="power-0.53")]
    + [pytest.param(lambda m=m: pl.schwarzschild_slice(m), None, 8.0, id=f"horizon-{m}")
       for m in (0.1, 10.0)]
    + [pytest.param(_table_metric, 1.0, 8.0, id="table-500")])


@pytest.mark.parametrize("make_metric, s0, t_max", _RESIDUAL_CASES)
def test_level_map_residual_on_dense_series(make_metric, s0, t_max):
    # the seed is the returned radius, so its error is the level residual;
    # narrow blends and near-1/2 power laws are where it is largest
    metric = make_metric()
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, metric.domain_start if s0 is None else s0),
                               t_max=t_max)
    t = np.linspace(0.0, sol.t_max, 20001)
    assert np.abs(sol.w(sol.s_of_t(t)) - t).max() <= 1e-11


NON_FINITE_CALLS = {
    "t_max_nan": lambda sol: pl.PotentialSolution(pl.ExteriorDomain(sol.metric, sol.s0), t_max=math.nan),
    "t_max_inf": lambda sol: pl.PotentialSolution(pl.ExteriorDomain(sol.metric, sol.s0), t_max=math.inf),
    "s_of_t": lambda sol: sol.s_of_t(math.nan),
    "s_of_t_array": lambda sol: sol.s_of_t(np.array([1.0, math.nan])),
    "u": lambda sol: sol.u(math.nan),
    "grad_w_array": lambda sol: sol.grad_w(np.array([2.0, math.nan])),
    "tail_value": lambda sol: sol._integ.value(math.nan),
    "integral_to_end": lambda sol: sol._integ.quad.integral_to_end(math.nan),
    "integral_from_start": lambda sol: sol._integ.quad.integral_from_start(math.nan),
}


@pytest.mark.parametrize("kind", ["flat", "power", "schwarzschild", "sphere_cap_blend"])
def test_level_map_ends_on_the_first_and_last_knot(kind):
    sol = pl.PotentialSolution(pl.ExteriorDomain(pl.build_metric(kind), 1.0))
    s, tail = sol._level_map(np.array([-1e-12, 0.0, sol.t_usable, sol.t_usable + 1e-9]))
    assert list(s) == [sol.s0, sol.s0, sol._seed[1, -1], sol._seed[1, -1]]
    assert np.array_equal(tail, sol.tail(s))


def test_seed_knots_end_on_the_top_of_the_queried_range():
    # the radius of t_max is bounded with a margin of 0.1 in t; a coarse panel (0.1 decade, 0.23 in t
    # at beta = 1) ending below that bound would stop the seed short of t_max
    metric = pl.sphere_cap_blend(0.23555751620614332, 0.9472100906134675)
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 1.336434686029795))
    assert sol._seed[1, -1] == sol._integ.usable_hi and sol.t_usable > sol.t_max == 8.0


def _range_calls(sol):
    """(call, message) pairs for arguments just past each bound an I(s) query checks, and NaN."""
    integ, quad = sol._integ, sol._integ.quad
    edges = quad.edges
    return [
        *((lambda x=x: sol.tail(np.array([2.0, x])), "inside the boundary sphere or at NaN")
          for x in (sol.s0 * (1 - 3e-12), math.nan)),
        *((lambda x=x: integ.value(np.array([2.0, x])), "beyond usable radius")
          for x in (integ.usable_hi * (1 + 3e-9), math.nan)),
        *((lambda x=x: quad.integral_to_end(np.array([2.0, x])), "outside panel grid")
          for x in (edges[0] * (1 - 3e-12), edges[-1] * (1 + 3e-12), math.nan)),
        *((lambda t=t: sol._level_map(np.array([1.0, t])), "level value outside")
          for t in (-3e-12, sol.t_usable + 3e-9, math.nan)),
    ]


def test_out_of_range_and_nan_queries_raise_named_domain_errors(solve_cache):
    for call, message in _range_calls(solve_cache("power", 1.0)):
        with pytest.raises(DomainError, match=message):
            call()


def test_table_ending_at_the_boundary_maps_no_level():
    # within rounding of s0 every seed knot has t = 0, so one knot is left and no level can be mapped
    s = np.linspace(0.1, 1.0 + 1e-13, 50)
    with pytest.raises(NumericError, match="reaches t=0 only"):
        pl.PotentialSolution(pl.ExteriorDomain(pl.from_table(s, s ** 0.75), 1.0))


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_arguments_raise_domain_error(solve_cache, call):
    with pytest.raises(DomainError):
        call(solve_cache("flat", 1.0))


def test_levelset_fields(solve_cache):
    sol = solve_cache("flat", 1.0)
    lev = pl.sample_at(sol, 1.0)
    assert lev.area == pytest.approx(4 * math.pi * math.e**2, rel=1e-10)
    assert lev.H == pytest.approx(2 / math.e, rel=1e-10)
    assert lev.grad_w > 0


# ---------------------------------------------------------------------------
# capacity scaling
# ---------------------------------------------------------------------------

def test_capacity_scaling_flat(solve_cache):
    sol = solve_cache("flat", 1.0)
    dev = pl.capacity_scaling_check(sol, pl.sample_at(sol, np.linspace(0, 5, 26)))
    assert dev < 1e-9


def test_capacity_scaling_power(solve_cache):
    sol = solve_cache("power", 1.0)
    dev = pl.capacity_scaling_check(sol, pl.sample_at(sol, np.linspace(0, 5, 26)))
    assert dev < 1e-8


def test_capacity_scaling_schwarzschild(solve_cache):
    sol = solve_cache("schwarzschild", 0.0, t_max=3.0)
    dev = pl.capacity_scaling_check(sol, pl.sample_at(sol, np.linspace(0, 3, 26)))
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
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 1.0), t_max=5.0)
    assert sol.ncap == pytest.approx(1.0, rel=1e-6)
    probe = np.geomspace(1.0, 50.0, 20)
    assert np.abs(sol.u(probe) * probe - 1.0).max() < 1e-6


@pytest.mark.parametrize("s_end", [521.0, 563.0, 2000.0])
def test_table_levels_end_at_last_row(s_end):
    # the level t_max = 8 of a flat profile lies at s = e^8 > s_end, so the
    # levels stop at the table's last row, t = log(s_end), with a warning;
    # exp(log(s_end)) equals s_end, exceeds it or falls short of it
    s = np.geomspace(0.5, s_end, 900)
    sol = pl.PotentialSolution(pl.ExteriorDomain(pl.from_table(s, s.copy()), 1.0), t_max=8.0)
    assert sol.t_max == sol.t_usable
    assert sol.t_max == pytest.approx(math.log(s_end), rel=1e-6)


# ---------------------------------------------------------------------------
# tail truncation sized once
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.505, 1.0), c=st.floats(0.25, 4.0), s0=st.floats(0.25, 4.0),
       t_max=st.sampled_from([1.0, 5.0, 8.0]))
def test_power_capacity_closed_form_over_beta_range(beta, c, s0, t_max):
    metric = pl.power_law(c, beta)
    # for an exact tail law the level t_max + 0.1 sits at s0 e^((t_max + 0.1)/(2 beta - 1))
    if math.log(s0) + (t_max + 0.1) / (2.0 * beta - 1.0) > math.log(1e300):
        with pytest.raises(NumericError, match="where the tail-law probe ends"):
            pl.PotentialSolution(pl.ExteriorDomain(metric, s0), t_max=t_max)
        return
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, s0), t_max=t_max)
    assert sol.ncap == pytest.approx(c * c * (2.0 * beta - 1.0) * s0 ** (2.0 * beta - 1.0), rel=1e-9)
    assert sol.t_usable >= t_max


def test_one_tail_integrator_per_solve(monkeypatch):
    builds = []
    init = TailIntegrator.__init__

    def spy(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(TailIntegrator, "__init__", spy)
    for name, metric in pl.default_catalog():
        for s0 in (0.5, 1.0, 2.0):
            builds.clear()
            pl.PotentialSolution(pl.ExteriorDomain(metric, s0), t_max=8.0)
            assert len(builds) == 1, (name, s0)

