import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl
from pinchlab import metrics, verify
from pinchlab.config import ScenarioConfig
from pinchlab.errors import UsageError
from pinchlab.functionals import FOUR_PI, SIXTEEN_PI, CSV_COLUMNS, FunctionalSample
from pinchlab.quadrature import PanelQuadrature
from pinchlab.verify import run_verify


# ---------------------------------------------------------------------------
# closed-form samples
# ---------------------------------------------------------------------------

KINDS = ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"]


def _counting_solution(kind):
    """A solve on the catalog profile, with a list that grows by the name
    ("fn" or "jet") and the number of points of every profile evaluation."""
    metric = pl.build_metric(kind)
    points = []

    def counting(name, fn):
        def wrapped(s):
            points.append((name, np.size(s)))
            return fn(s)
        return wrapped

    counted = dataclasses.replace(metric, fn=counting("fn", metric.fn),
                                  jet=counting("jet", metric.jet))
    return pl.PotentialSolution(pl.ExteriorDomain(counted, 1.0), t_max=5.0), points


@pytest.mark.parametrize("kind", KINDS)
def test_series_profile_evaluations_per_level(kind):
    # I(s) queries read the quadrature's stored series and the level map's
    # seed needs no Newton step, so the series costs one jet of f, f' and
    # f'' at its level radii, for the fields, and no profile evaluation in
    # the level map
    sol, points = _counting_solution(kind)
    points.clear()
    pl.build_series(sol, n=2001)
    assert points == [("jet", 2001)]


def test_schwarzschild_series_inverts_each_level_radius_once(monkeypatch):
    # fn is r(s) itself, and the jet calls it through its closure: count both
    metric = pl.build_metric("schwarzschild")
    inverted, r_of_s = [], metric.fn

    def counting(s):
        inverted.append(np.size(s))
        return r_of_s(s)

    jet = metric.jet
    monkeypatch.setattr(jet.__closure__[jet.__code__.co_freevars.index("r_of_s")], "cell_contents", counting)
    sol = pl.PotentialSolution(pl.ExteriorDomain(dataclasses.replace(metric, fn=counting), 1.0), t_max=5.0)
    inverted.clear()
    pl.build_series(sol, n=2001)
    assert inverted == [2001]


@pytest.mark.parametrize("kind", KINDS)
def test_series_makes_two_quadrature_queries(monkeypatch, kind):
    # the level map makes one query, at the seed radius it checks and
    # returns, and |grad w| is formed from that I: no second query
    sol = pl.PotentialSolution(pl.ExteriorDomain(pl.build_metric(kind), 1.0), t_max=5.0)
    queries = []
    integral_to_end = PanelQuadrature.integral_to_end

    def spy(self, x):
        queries.append(np.size(x))
        return integral_to_end(self, x)

    monkeypatch.setattr(PanelQuadrature, "integral_to_end", spy)
    series = pl.build_series(sol, n=2001)
    assert queries == [2001]
    monkeypatch.undo()
    assert np.array_equal(series.grad_w, sol.grad_w(series.s))
    assert np.abs(sol.w(series.s) - series.t).max() <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_series_checks_evaluate_no_profile(kind):
    # the series carries the curvature at its level radii, so the checks
    # that read it evaluate no f, f' or f''
    sol, points = _counting_solution(kind)
    series = pl.build_series(sol, n=2001)
    points.clear()
    pl.decay_check(series, 1.0 / 3.0)
    pl.check_monotonicity(series)
    assert points == []


@pytest.mark.parametrize("kind", KINDS)
def test_series_pinching_columns_match_profile(catalog_bundle, kind):
    # the reference recomputes the curvature from the profile at series.s
    metric, _, series = catalog_bundle[kind]
    s = series.s
    f, df, d2f = metric.f(s), metric.df(s), metric.d2f(s)
    _, _, ric_rad, ric_tan, scalar = metrics._curvature(f, df, d2f)
    eps_star, ric_ok = metrics._pinch_margins(ric_rad, ric_tan, scalar)
    assert np.array_equal(series.ric_rad, ric_rad)
    assert np.array_equal(series.eps_star, eps_star)
    assert np.array_equal(series.ric_ok, ric_ok)
    for epsilon in (0.01, 1.0 / 3.0):
        mask, eps_ref = metrics.pinched(metric, s, epsilon)
        assert np.array_equal(series.eps_star, eps_ref)
        assert np.array_equal(metrics.pinched_where(series.eps_star, epsilon), mask)


@pytest.mark.parametrize("kind", KINDS)
def test_sample_at_array_matches_scalar_calls(solve_cache, kind):
    sol = solve_cache(kind, 1.0)
    t = np.linspace(0.0, 5.0, 51)
    arr = pl.sample_at(sol, t)
    names = [fld.name for fld in dataclasses.fields(arr)]
    for i, ti in enumerate(t):
        smp = pl.sample_at(sol, float(ti))
        assert all(type(getattr(smp, k)) in (float, bool) for k in names)
        assert [getattr(smp, k) for k in names] == [getattr(arr, k)[i] for k in names]


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


@pytest.mark.parametrize("kind", KINDS)
def test_series_fields_match_sample_at_bit_for_bit(solve_cache, kind):
    # FunctionalSeries extends FunctionalSample: each shared field of the
    # series is the array sample_at gives at the series levels
    sol = solve_cache(kind, 1.0)
    series = pl.build_series(sol, n=201)
    smp = pl.sample_at(sol, series.t)
    for fld in dataclasses.fields(FunctionalSample):
        got, want = getattr(series, fld.name), getattr(smp, fld.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), fld.name


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


def test_series_csv_deterministic(solve_cache, tmp_path):
    sol = solve_cache("flat", 1.0)
    pl.build_series(sol, n=101).to_csv(tmp_path / "a.csv")
    pl.build_series(sol, n=101).to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# monotonicity and the G ODE
# ---------------------------------------------------------------------------

def test_monotonicity_power(catalog_bundle):
    _, _, series = catalog_bundle["power"]
    report = pl.check_monotonicity(series)
    assert report.hypothesis_met
    assert report.max_increase <= 1e-7
    assert report.max_derivative_error < 1e-4


def test_monotonicity_flat_constant(catalog_bundle):
    _, _, series = catalog_bundle["flat"]
    report = pl.check_monotonicity(series)
    assert report.hypothesis_met
    assert report.max_increase < 1e-10  # well inside the 1e-7 step tolerance


def test_monotonicity_schwarzschild_hypothesis_unmet(catalog_bundle):
    _, _, series = catalog_bundle["schwarzschild"]
    report = pl.check_monotonicity(series)
    assert not report.hypothesis_met
    # the derivative cross-check still runs and passes
    assert report.max_derivative_error <= 1e-4
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


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
@pytest.mark.parametrize("check", ["check_pinching", "decay_check", "genus_zero_inequality_check"])
def test_pinching_constant_must_be_positive(catalog_bundle, check, epsilon):
    # pinching implies Ric >= 0 only for eps > 0, and NaN compares false
    _, sol, series = catalog_bundle["cone"]
    call = {"check_pinching": lambda: pl.check_pinching(series.metric, epsilon, series.s, series.eps_star),
            "decay_check": lambda: pl.decay_check(series, epsilon),
            "genus_zero_inequality_check": lambda: pl.genus_zero_inequality_check(sol, 1.0, epsilon)}
    with pytest.raises(UsageError, match="pinching constant must be positive"):
        call[check]()


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


def test_small_sphere_willmore_check_solves_nothing(monkeypatch, solve_cache):
    # the check reads f'(s0) off a domain; its value is the one it read off solutions
    radii = (0.05, 0.1, 0.2)
    solved = [pl.boundary_willmore(solve_cache("sphere_cap_blend", s0, t_max=1.0)).value for s0 in radii]
    want = max(abs(v - SIXTEEN_PI * math.cos(s0) ** 2) for s0, v in zip(radii, solved))

    def no_solve(*args, **kwargs):
        raise AssertionError("the boundary Willmore check solved for a potential")

    monkeypatch.setattr(pl.PotentialSolution, "__init__", no_solve)
    check = next(c for c in verify.CATALOG_CHECKS if c.name.endswith("/small_sphere_willmore"))
    assert (check.measure(), check.tol) == (want, 1e-7)


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
