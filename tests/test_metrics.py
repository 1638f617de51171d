import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl
from pinchlab.errors import DomainError, NumericError, UsageError
from pinchlab.metrics import _curvature_arrays


def schw_arclength(r, m=1.0):
    # independent closed form used as oracle for the catalog implementation
    xi = math.sqrt(r - 2 * m)
    return xi * math.sqrt(r) + 2 * m * math.log((math.sqrt(r) + xi) / math.sqrt(2 * m))


# ---------------------------------------------------------------------------
# curvature_at
# ---------------------------------------------------------------------------

def test_flat_curvature_vanishes():
    point = pl.curvature_at(pl.flat_space(), 2.0)
    assert point.k_rad == 0.0
    assert point.k_tan == 0.0
    assert point.ric_rad == 0.0
    assert point.ric_tan == 0.0
    assert point.scalar == 0.0
    assert point.areal_radius == 2.0


def test_sphere_curvature(sine_profile):
    point = pl.curvature_at(sine_profile, 0.5)
    assert point.k_rad == pytest.approx(1.0, abs=1e-14)
    assert point.k_tan == pytest.approx(1.0, abs=1e-14)
    assert point.ric_rad == pytest.approx(2.0, abs=1e-14)
    assert point.ric_tan == pytest.approx(2.0, abs=1e-14)
    assert point.scalar == pytest.approx(6.0, abs=1e-13)


def test_schwarzschild_horizon_curvature():
    metric = pl.schwarzschild_slice(1.0)
    point = pl.curvature_at(metric, 0.0)  # horizon, areal radius 2
    assert point.areal_radius == pytest.approx(2.0, abs=1e-14)
    assert point.ric_rad == pytest.approx(-0.25, abs=1e-13)
    assert point.ric_tan == pytest.approx(0.125, abs=1e-13)
    assert abs(point.scalar) < 1e-13


def test_schwarzschild_scalar_flat_along_profile():
    metric = pl.schwarzschild_slice(1.0)
    s = np.linspace(0.0, 100.0, 501)
    scalar = _curvature_arrays(metric, s)[5]
    assert np.abs(scalar).max() < 1e-8


def test_schwarzschild_arclength_matches_closed_form():
    metric = pl.schwarzschild_slice(1.0)
    for r in (2.0, 2.001, 3.0, 10.0, 1e4, 1e9):
        s = schw_arclength(r)
        assert metric.f(s) == pytest.approx(r, rel=1e-13)


def _reference_r_of_s(m, s):
    # the allocating form of the slice's Newton inversion; the in-place
    # loop must reproduce it bit for bit
    s = np.asarray(s, float)
    sqrt2m = math.sqrt(2.0 * m)

    def s_of_xi(xi):
        r = 2.0 * m + xi * xi
        return xi * np.sqrt(r) + 2.0 * m * np.log((np.sqrt(r) + xi) / sqrt2m)

    xi = np.sqrt(s)
    for _ in range(12):
        xi = xi - (s_of_xi(xi) - s) / (2.0 * np.sqrt(2.0 * m + xi * xi))
        xi = np.maximum(xi, 0.0)
    return 2.0 * m + xi * xi


@pytest.mark.parametrize("mass", [0.3, 1.0, 2.5])
def test_schwarzschild_profile_is_bit_identical_to_reference(mass):
    metric = pl.schwarzschild_slice(mass)
    s = np.concatenate([[0.0], np.geomspace(1e-9, 1e9, 20001)])
    r = _reference_r_of_s(mass, s)
    assert np.array_equal(metric.f(s), r)
    assert np.array_equal(metric.df(s), np.sqrt(1.0 - 2.0 * mass / r))
    assert np.array_equal(metric.d2f(s), mass / r**2)
    for point in (0.0, 3.7):
        value = metric.f(np.float64(point))
        assert np.ndim(value) == 0
        assert value == _reference_r_of_s(mass, point)
    assert metric.f(0.0) == 2.0 * mass


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
def test_trace_identity_on_catalog(kind):
    metric = pl.build_metric(kind)
    s = np.geomspace(0.05, 1e3, 300)
    if metric.kind == "schwarzschild":
        s = np.concatenate([[0.0], s])
    _, _, _, ric_rad, ric_tan, scalar = _curvature_arrays(metric, s)
    resid = np.abs(scalar - (ric_rad + 2 * ric_tan)) / np.maximum(1.0, np.abs(scalar))
    assert resid.max() < 1e-12


@settings(max_examples=80, deadline=None)
@given(c=st.floats(0.2, 3.0), beta=st.floats(0.3, 1.0), s=st.floats(0.05, 50.0))
def test_trace_identity_property(c, beta, s):
    point = pl.curvature_at(pl.power_law(c, beta), s)
    assert point.scalar == pytest.approx(point.ric_rad + 2 * point.ric_tan,
                                         abs=1e-12 * max(1.0, abs(point.scalar)))


def test_curvature_domain_errors():
    with pytest.raises(DomainError):
        pl.curvature_at(pl.cone(0.5), 0.0)  # cone vertex excluded
    with pytest.raises(DomainError):
        pl.curvature_at(pl.flat_space(), -1.0)
    with pytest.raises(DomainError):
        pl.curvature_at(pl.schwarzschild_slice(1.0), -0.1)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_oracle_flat():
    a = pl.curvature_at(pl.flat_space(), 3.0)
    b = pl.finite_difference_curvature_oracle(pl.flat_space(), 3.0, 1e-3)
    for field in ("k_rad", "k_tan", "ric_rad", "ric_tan", "scalar"):
        assert abs(getattr(a, field) - getattr(b, field)) < 1e-6


def test_fd_oracle_power():
    metric = pl.power_law(1.0, 0.8)
    a = pl.curvature_at(metric, 2.0)
    b = pl.finite_difference_curvature_oracle(metric, 2.0, 1e-3)
    for field in ("k_rad", "k_tan", "ric_rad", "ric_tan", "scalar"):
        assert abs(getattr(a, field) - getattr(b, field)) < 1e-6


def test_fd_oracle_blend_interior():
    metric = pl.build_metric("sphere_cap_blend")  # blend on [1.0, 1.5]
    s = 1.25
    a = pl.curvature_at(metric, s)
    b = pl.finite_difference_curvature_oracle(metric, s, 1e-3)
    for field in ("k_rad", "k_tan", "ric_rad", "ric_tan", "scalar"):
        assert abs(getattr(a, field) - getattr(b, field)) < 1e-5


def test_fd_oracle_blend_junction_is_c2():
    # at the seam only f''' jumps, so the stencil error is O(h * jump), far
    # below the O(1) discrepancy a mere C^1 junction would give
    metric = pl.build_metric("sphere_cap_blend")
    for s in metric.breakpoints:
        a = pl.curvature_at(metric, s)
        b = pl.finite_difference_curvature_oracle(metric, s, 1e-3)
        assert abs(a.k_rad - b.k_rad) < 5e-3
        assert abs(a.k_tan - b.k_tan) < 5e-3


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
def test_fd_oracle_across_domain(kind):
    metric = pl.build_metric(kind)
    for s in np.geomspace(0.11, 500.0, 40):
        h = max(1e-3, 1e-4 * s)
        if any(abs(s - b) < 5 * h for b in metric.breakpoints):
            continue
        a = pl.curvature_at(metric, float(s))
        b = pl.finite_difference_curvature_oracle(metric, float(s), h)
        for field in ("k_rad", "k_tan", "ric_rad", "ric_tan", "scalar"):
            assert abs(getattr(a, field) - getattr(b, field)) < 1e-5


def test_fd_oracle_step_underflow():
    with pytest.raises(NumericError):
        pl.finite_difference_curvature_oracle(pl.flat_space(), 1.0, 0.0)
    with pytest.raises(NumericError):
        pl.finite_difference_curvature_oracle(pl.flat_space(), 1.0, 1e-300)


# ---------------------------------------------------------------------------
# pinching
# ---------------------------------------------------------------------------

def test_pinching_sphere_passes_at_one_third(sine_profile):
    report = pl.check_pinching(sine_profile, 1.0 / 3.0, (0.1, 1.0), 50)
    assert report.passed
    assert report.eps_star_min == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.first_failure_s is None


def test_pinching_cone_fails_with_zero_margin():
    report = pl.check_pinching(pl.cone(0.5), 0.01, (1.0, 10.0), 50)
    assert not report.passed
    assert report.eps_star_min == 0.0
    assert report.first_failure_s == pytest.approx(1.0, abs=1e-9)


def test_pinching_flat_passes_via_sentinel():
    report = pl.check_pinching(pl.flat_space(), 0.3, (0.5, 100.0), 40)
    assert report.passed
    assert np.all(np.isinf(report.margin_eps_star))


def test_pinching_schwarzschild_fails_ric_nonneg():
    report = pl.check_pinching(pl.schwarzschild_slice(1.0), 0.01, (0.5, 50.0), 50)
    assert not report.passed
    assert report.eps_star_min == -math.inf


def test_pinching_witness_refined_by_bisection():
    metric = pl.power_law(1.0, 0.8)
    s_target = 5.0
    eps_star, _ = pl.metrics._pinch_margins(metric, np.array([s_target]))
    report = pl.check_pinching(metric, float(eps_star[0]), (1.0, 25.0), 60)
    assert not report.passed
    assert report.first_failure_s == pytest.approx(s_target, abs=2e-6)


@settings(max_examples=20, deadline=2000)
@given(epsilon=st.floats(0.0085, 0.0099))
def test_pinching_bisection_ends_where_ulp_exceeds_tolerance(epsilon):
    # the first failure lies past 1e14, where adjacent floats are further
    # apart than the 1e-6 bisection tolerance
    metric = pl.power_law(1.0, 0.99)
    report = pl.check_pinching(metric, epsilon, (1.0, 1e18), 400)
    assert not report.passed
    assert 1e14 < report.first_failure_s <= 1e18
    assert not pl.metrics.pinched(metric, np.array([report.first_failure_s]), epsilon)[0][0]


def test_pinching_usage_errors():
    with pytest.raises(UsageError):
        pl.check_pinching(pl.flat_space(), 0.1, (1.0, 2.0), 1)
    with pytest.raises(UsageError):
        pl.check_pinching(pl.flat_space(), -0.1, (1.0, 2.0), 10)
    with pytest.raises(DomainError):
        pl.check_pinching(pl.flat_space(), 0.1, (0.0, 2.0), 10)


def test_pinching_trace_bound():
    # wherever the scan passes with R > 0 somewhere, the margin is <= 1/3
    for kind in ("power", "cone", "sphere_cap_blend"):
        metric = pl.build_metric(kind)
        report = pl.check_pinching(metric, 1e-6, (0.5, 20.0), 100)
        finite = np.isfinite(report.margin_eps_star)
        if finite.any():
            assert report.margin_eps_star[finite].max() <= 1.0 / 3.0 + 1e-12


# ---------------------------------------------------------------------------
# volume and growth
# ---------------------------------------------------------------------------

def test_volume_flat_ball():
    assert pl.volume_ball(pl.flat_space(), 2.0) == pytest.approx(32 * math.pi / 3, rel=1e-12)


def test_volume_cone_closed_form():
    a = 0.5
    metric = pl.cone(a)
    for r in (1.0, 10.0, 250.0):
        assert pl.volume_ball(metric, r) == pytest.approx(4 * math.pi / 3 * a**2 * r**3, rel=1e-11)


def test_volume_power_closed_form():
    metric = pl.power_law(1.0, 0.8)
    for r in (10.0, 40.0, 100.0):
        assert pl.volume_ball(metric, r) == pytest.approx(4 * math.pi * r**2.6 / 2.6, rel=1e-10)


def test_volume_ball_is_history_independent():
    fresh = pl.power_law(1.0, 0.8)
    used = pl.power_law(1.0, 0.8)
    pl.volume_ball(used, 1e4)
    assert pl.volume_ball(used, 10.0) == pl.volume_ball(fresh, 10.0)


@pytest.mark.parametrize("blend_width", [0.01, 0.3, 1.0, 3.0])
def test_capped_cone_solves_slope_equation(blend_width):
    for slope in np.linspace(0.02, 0.98, 25):
        s_cap = pl.capped_cone(slope, blend_width).params["s_cap"]
        residual = math.cos(s_cap) - (blend_width / 3.0) * math.sin(s_cap) - slope
        assert abs(residual) <= 1e-15, slope


def test_volume_capped_cone_leading_order():
    metric = pl.capped_cone(0.5, 0.3)
    lead = lambda r: 4 * math.pi / 3 * 0.25 * r**3
    # the affine tail a*s + b has b ~ 0.34, so the pure-cone coefficient is
    # approached like 3b/(a r): ~2% at r=100, inside 1% from r ~ 250 out
    assert abs(pl.volume_ball(metric, 300.0) / lead(300.0) - 1) < 0.01
    assert abs(pl.volume_ball(metric, 1000.0) / lead(1000.0) - 1) < 0.003


def test_growth_fit_flat():
    report = pl.growth_fit(pl.flat_space(), 10.0, 1000.0)
    assert report.alpha_fit == pytest.approx(2.0, abs=0.01)
    assert report.avr == pytest.approx(1.0, abs=0.01)


def test_growth_fit_power():
    report = pl.growth_fit(pl.power_law(1.0, 0.8), 10.0, 1000.0)
    assert report.alpha_fit == pytest.approx(1.6, abs=0.02)
    assert report.avr is None


def test_growth_fit_capped_cone():
    report = pl.growth_fit(pl.capped_cone(0.5, 0.3), 100.0, 10000.0)
    assert report.alpha_fit == pytest.approx(2.0, abs=0.02)
    assert report.avr == pytest.approx(0.25, abs=0.01)


def test_growth_fit_usage_error():
    with pytest.raises(UsageError):
        pl.growth_fit(pl.flat_space(), 10.0, 100.0, n_points=2)


def test_bishop_gromov_volume_ratio_monotone():
    r = np.geomspace(0.5, 1000.0, 120)
    for metric in (pl.flat_space(), pl.capped_cone(0.5, 0.3), pl.power_law(1.0, 0.8)):
        ratio = pl.volume_ball(metric, r) / r**3
        assert np.all(np.diff(ratio) <= 1e-12 * ratio[:-1])


def test_pole_smooth_small_ball_limit():
    for metric in (pl.flat_space(), pl.build_metric("sphere_cap_blend")):
        ratio = pl.volume_ball(metric, 1e-2) / (4 * math.pi / 3 * 1e-6)
        assert abs(ratio - 1.0) < 0.01


# ---------------------------------------------------------------------------
# tabulated profiles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def power_table():
    s = np.geomspace(0.5, 50.0, 600)
    return s, s**0.8


def test_table_interpolation_accuracy(power_table):
    s, f = power_table
    metric = pl.from_table(s, f)
    probe = np.geomspace(0.6, 40.0, 200)
    assert np.abs(metric.f(probe) / probe**0.8 - 1).max() < 1e-10
    assert np.abs(metric.df(probe) - 0.8 * probe**-0.2).max() < 1e-7
    assert np.abs(metric.d2f(probe) + 0.16 * probe**-1.2).max() < 1e-5


def test_table_tail_fit(power_table):
    s, f = power_table
    metric = pl.from_table(s, f)
    assert metric.tail_exponent == pytest.approx(0.8, abs=1e-6)
    assert metric.tail_coefficient == pytest.approx(1.0, rel=1e-5)


def test_table_no_extrapolation(power_table):
    s, f = power_table
    metric = pl.from_table(s, f)
    with pytest.raises(DomainError):
        metric.f(60.0)
    with pytest.raises(DomainError):
        pl.curvature_at(metric, 0.4)


def test_table_csv_roundtrip(tmp_path, power_table):
    s, f = power_table
    path = tmp_path / "profile.csv"
    with open(path, "w") as fh:
        fh.write("s,f\n")
        for a, b in zip(s, f):
            fh.write(f"{a:.17g},{b:.17g}\n")
    metric = pl.load_table_csv(path)
    assert metric.f(3.0) == pytest.approx(3.0**0.8, rel=1e-10)


def test_table_validation_errors(tmp_path):
    with pytest.raises(UsageError):
        pl.from_table([1, 2, 3], [1, 2, 3])  # too few rows
    s = np.linspace(1, 2, 10)
    with pytest.raises(UsageError):
        pl.from_table(s, -np.ones_like(s))  # nonpositive f
    bad = s.copy()
    bad[4] = bad[3]
    with pytest.raises(UsageError):
        pl.from_table(bad, np.ones_like(s))  # not strictly increasing
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,1\n")
    with pytest.raises(UsageError):
        pl.load_table_csv(path)


# ---------------------------------------------------------------------------
# catalog plumbing
# ---------------------------------------------------------------------------

def test_catalog_has_six_kinds():
    assert len(pl.metrics.CATALOG) == 6
    assert set(pl.metrics.CATALOG) == {
        "flat", "cone", "power", "schwarzschild", "sphere_cap_blend", "user_table",
    }


def test_build_metric_unknown_kind_names_valid_ones():
    with pytest.raises(UsageError, match="flat"):
        pl.build_metric("saddle")


def test_build_metric_unknown_param():
    with pytest.raises(UsageError, match="beta"):
        pl.build_metric("power", {"gamma": 2.0})


def test_constructor_validation():
    with pytest.raises(UsageError):
        pl.cone(0.0)
    with pytest.raises(UsageError):
        pl.power_law(-1.0, 0.8)
    with pytest.raises(UsageError):
        pl.sphere_cap_blend(2.0, 0.5)  # cap radius beyond pi/2
    with pytest.raises(UsageError):
        pl.sphere_cap_blend(1.5, 50.0)  # blend flattens the profile
