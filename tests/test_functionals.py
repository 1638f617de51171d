import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl
from pinchlab.config import ScenarioConfig
from pinchlab.functionals import FOUR_PI, SIXTEEN_PI, CSV_COLUMNS
from pinchlab.verify import run_verify


# ---------------------------------------------------------------------------
# closed-form samples
# ---------------------------------------------------------------------------

def test_flat_samples_are_constant(solve_cache):
    sol = solve_cache("flat", 1.0)
    for t in (0.0, 1.7, 4.2):
        smp = pl.sample_at(sol, t)
        assert smp.F == pytest.approx(FOUR_PI, abs=1e-9)
        assert smp.G == pytest.approx(FOUR_PI, abs=1e-9)
        assert smp.willmore == pytest.approx(SIXTEEN_PI, abs=1e-9)


def test_cone_samples(solve_cache):
    sol = solve_cache("cone", 1.0)
    for t in (0.0, 2.3):
        smp = pl.sample_at(sol, t)
        assert smp.F == pytest.approx(math.pi, abs=1e-9)
        assert smp.G == pytest.approx(math.pi, abs=1e-9)
        assert smp.willmore == pytest.approx(4 * math.pi, abs=1e-9)


def test_power_samples_decay(solve_cache):
    # F = 2.4 pi e^{-2t/3}, G = 1.44 pi e^{-2t/3} for f = s^0.8 from s0 = 1
    sol = solve_cache("power", 1.0)
    for t in (0.0, 1.0, 3.5, 5.0):
        smp = pl.sample_at(sol, t)
        assert smp.F == pytest.approx(2.4 * math.pi * math.exp(-2 * t / 3), rel=1e-9)
        assert smp.G == pytest.approx(1.44 * math.pi * math.exp(-2 * t / 3), rel=1e-9)


def test_explicit_dF_flat_and_cone(solve_cache):
    for kind in ("flat", "cone"):
        sol = solve_cache(kind, 1.0)
        for t in (0.0, 1.0, 4.0):
            assert abs(pl.sample_at(sol, t).dF_explicit) < 1e-9


def test_explicit_dF_power_at_boundary(solve_cache):
    sol = solve_cache("power", 1.0)
    assert pl.sample_at(sol, 0.0).dF_explicit == pytest.approx(-1.6 * math.pi, abs=1e-9)


def test_explicit_dF_matches_series_column(solve_cache):
    sol = solve_cache("power", 1.0)
    series = pl.build_series(sol, n=11)
    for i in (0, 5, 10):
        assert series.dF_explicit[i] == pytest.approx(
            pl.sample_at(sol, float(series.t[i])).dF_explicit, rel=1e-13)


# ---------------------------------------------------------------------------
# series construction and CSV
# ---------------------------------------------------------------------------

def test_series_grid_is_uniform_and_monotone(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        dt = np.diff(series.t)
        assert np.allclose(dt, dt[0], rtol=1e-12), name
        assert np.all(np.diff(series.s) > 0), name


def test_series_csv_format(solve_cache, tmp_path):
    sol = solve_cache("flat", 1.0)
    series = pl.build_series(sol, n=17)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 18
    # 17 significant digits round-trip exactly
    values = [float(v) for v in lines[1].split(",")]
    assert values[5] == series.F[0]
    assert values[9] == series.ncap_t[0]


def test_series_csv_deterministic(solve_cache):
    sol = solve_cache("flat", 1.0)
    a = pl.build_series(sol, n=101).to_csv_string()
    b = pl.build_series(sol, n=101).to_csv_string()
    assert a == b


# ---------------------------------------------------------------------------
# monotonicity and the G ODE
# ---------------------------------------------------------------------------

def test_monotonicity_power(catalog_bundle):
    _, _, series = catalog_bundle["power"]
    report = pl.check_monotonicity(series)
    assert report.hypothesis_met
    assert report.monotone_ok
    assert report.derivative_ok
    assert report.max_derivative_error < 1e-4


def test_monotonicity_flat_constant(catalog_bundle):
    _, _, series = catalog_bundle["flat"]
    report = pl.check_monotonicity(series)
    assert report.hypothesis_met
    assert report.monotone_ok
    assert report.max_increase < 1e-10


def test_monotonicity_schwarzschild_hypothesis_unmet(catalog_bundle):
    _, _, series = catalog_bundle["schwarzschild"]
    report = pl.check_monotonicity(series)
    assert not report.hypothesis_met
    assert report.monotone_ok is None
    # the derivative cross-check still runs and passes
    assert report.derivative_ok
    # F genuinely increases here (it starts negative near the horizon)
    assert series.F[-1] > series.F[0]


def test_g_ode_residuals(catalog_bundle):
    expectations = {"flat": 1e-9, "power": 1e-5, "schwarzschild": 1e-4,
                    "cone": 1e-9, "sphere_cap_blend": 1e-4}
    for name, tol in expectations.items():
        _, _, series = catalog_bundle[name]
        assert pl.check_G_ode(series) < tol, name


def test_g_bounds_under_nonnegative_ricci(catalog_bundle):
    for name in ("flat", "cone", "power", "sphere_cap_blend"):
        _, _, series = catalog_bundle[name]
        assert series.G.min() >= -1e-9, name
        assert (series.G - series.F).max() <= 1e-9, name
    # flat and cone saturate G = F exactly
    for name in ("flat", "cone"):
        _, _, series = catalog_bundle[name]
        assert np.abs(series.G - series.F).max() < 1e-9, name


# ---------------------------------------------------------------------------
# pinched-sphere inequality
# ---------------------------------------------------------------------------

def test_genus_zero_on_round_cap(solve_cache):
    sol = solve_cache("sphere_cap_blend", 0.2)
    t = float(sol.w(0.5))
    res = pl.genus_zero_inequality_check(sol, t, 1.0 / 3.0)
    assert res.hypothesis_met
    assert res.passed
    assert res.lhs == pytest.approx(SIXTEEN_PI * math.sin(0.5) ** 2, rel=1e-9)
    assert res.rhs == pytest.approx(SIXTEEN_PI / 3 * math.sin(0.5) ** 2, rel=1e-9)


def test_genus_zero_flat_equality(solve_cache):
    sol = solve_cache("flat", 1.0)
    res = pl.genus_zero_inequality_check(sol, 1.0, 0.2)
    assert res.hypothesis_met  # vacuous pinching, R = 0
    assert res.passed
    assert abs(res.lhs) < 1e-9
    assert abs(res.rhs) < 1e-9


def test_genus_zero_unpinched_cone(solve_cache):
    sol = solve_cache("cone", 1.0, a=0.9)
    res = pl.genus_zero_inequality_check(sol, 0.5, 0.01)
    assert not res.hypothesis_met
    assert res.passed is None


# ---------------------------------------------------------------------------
# boundary Willmore energy
# ---------------------------------------------------------------------------

def test_boundary_willmore_flat_is_borderline(solve_cache):
    bw = pl.boundary_willmore(solve_cache("flat", 1.0))
    assert bw.value == pytest.approx(SIXTEEN_PI, abs=1e-12)
    assert not bw.below_threshold


def test_boundary_willmore_cap(solve_cache):
    bw = pl.boundary_willmore(solve_cache("sphere_cap_blend", 0.2))
    assert bw.value == pytest.approx(SIXTEEN_PI * math.cos(0.2) ** 2, abs=1e-9)
    assert bw.below_threshold


def test_boundary_willmore_cone(solve_cache):
    bw = pl.boundary_willmore(solve_cache("cone", 1.0))
    assert bw.value == pytest.approx(4 * math.pi, abs=1e-12)
    assert bw.below_threshold


def test_small_sphere_willmore_limit(solve_cache):
    values = []
    for s0 in (0.05, 0.1, 0.2):
        bw = pl.boundary_willmore(solve_cache("sphere_cap_blend", s0, t_max=1.0))
        assert bw.value == pytest.approx(SIXTEEN_PI * math.cos(s0) ** 2, abs=1e-7)
        assert bw.below_threshold
        values.append(bw.value)
    # increases back to 16 pi as the boundary sphere shrinks
    assert values[0] > values[1] > values[2]
    assert SIXTEEN_PI - values[0] < SIXTEEN_PI - values[1]


def test_F0_below_4pi_whenever_boundary_willmore_below_16pi(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        bw = pl.boundary_willmore(sol)
        if bw.below_threshold:
            assert series.F[0] < FOUR_PI, name


# ---------------------------------------------------------------------------
# algebraic bound F <= willmore / 4
# ---------------------------------------------------------------------------

def test_flux_bound_on_catalog(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        assert (series.F - series.willmore / 4).max() <= 1e-9, name


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, 5.0),
       kind=st.sampled_from(["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"]))
def test_flux_bound_property(solve_cache, t, kind):
    sol = solve_cache(kind, 1.0)
    smp = pl.sample_at(sol, t)
    assert smp.F <= smp.willmore / 4 + 1e-9
    # equality exactly when H = 2 |grad w|
    if abs(smp.H - 2 * smp.grad_w) < 1e-12:
        assert smp.F == pytest.approx(smp.willmore / 4, abs=1e-9)


def test_derivative_check_one_sided_at_blend_seam():
    # with s0 = 0.5 inside the cap, a central difference of F straddles the
    # C^2 seam at s_cap, where F'' jumps, and is only first order there
    cfg = ScenarioConfig(s0=0.5, epsilon=0.01, t_max=3.0, suite="monotonicity")
    results, code = run_verify(cfg, stream=io.StringIO())
    assert code == 0
    assert [r.name for r in results if r.status == "FAIL"] == []
