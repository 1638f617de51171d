import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl
from pinchlab.errors import DomainError, NumericError, UsageError
from pinchlab.potential import TailIntegrator


def schw_arclength(r, m=1.0):
    # independent closed form used as oracle for the catalog implementation
    xi = math.sqrt(r - 2 * m)
    return xi * math.sqrt(r) + 2 * m * math.log((math.sqrt(r) + xi) / math.sqrt(2 * m))


def capped_cone(slope, blend_width=0.3):
    """The sphere_cap_blend whose asymptotic cone slope is exactly ``slope``.

    cos(s_cap) - (w/3) sin(s_cap) = slope has the closed-form root below,
    since the left side is hypot(1, w/3) cos(s_cap + atan(w/3)).
    """
    w = blend_width
    return pl.sphere_cap_blend(math.acos(slope / math.hypot(1.0, w / 3.0)) - math.atan(w / 3.0), w)


def scan(metric, epsilon, s_range, n):
    """check_pinching on n log-spaced radii, their margins from curvature_at."""
    s = np.geomspace(*s_range, n)
    p = pl.curvature_at(metric, s)
    return pl.check_pinching(metric, epsilon, s,
                             pl.metrics._pinch_margins(p.ric_rad, p.ric_tan, p.scalar)[0])


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
    scalar = pl.curvature_at(metric, s).scalar
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
    for _ in range(6):
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


def _mp_r_of_s(m, s):
    # r(s) by Newton in xi at 40 digits, from the same upper seed sqrt(s);
    # independent of the float loop, so it measures the inversion's error
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m, s = mpmath.mpf(m), mpmath.mpf(s)
        xi = mpmath.sqrt(s)
        for _ in range(200):
            r = 2 * m + xi * xi
            step = (xi * mpmath.sqrt(r) + 2 * m * mpmath.log((mpmath.sqrt(r) + xi) / mpmath.sqrt(2 * m))
                    - s) / (2 * mpmath.sqrt(r))
            xi -= step
            if abs(step) <= abs(xi) * mpmath.mpf(10) ** -38:
                break
        return float(2 * m + xi * xi)


@pytest.mark.parametrize("mass", [0.01, 1.0, 100.0])
def test_schwarzschild_r_of_s_matches_high_precision_inversion(mass):
    metric = pl.schwarzschild_slice(mass)
    s = np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 60)])
    want = np.array([_mp_r_of_s(mass, x) for x in s])
    assert np.abs(metric.f(s) / want - 1.0).max() <= 4.5e-16


_TABLE_S = np.geomspace(0.5, 500.0, 400)


@pytest.mark.parametrize("metric", [*(pl.build_metric(kind) for kind in
                                      ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend")),
                                    pl.from_table(_TABLE_S, _TABLE_S**0.8 * (1.0 + 0.1 * np.sin(_TABLE_S)))],
                         ids=lambda metric: metric.kind)
def test_jet_equals_f_df_d2f(metric):
    # fn and the jet are separate code paths; they agree to the bit at the
    # domain start, at every breakpoint and on a grid through both
    hi = 50.0 if math.isinf(metric.domain_end) else metric.domain_end
    s = np.unique(np.concatenate([[metric.domain_start, hi], metric.breakpoints,
                                  np.linspace(metric.domain_start, hi, 1001)]))
    with np.errstate(divide="ignore"):  # a power law's f' and f'' are infinite at s = 0
        jet = metric.jet(s)
        for got, want in zip(jet, (metric.f(s), metric.df(s), metric.d2f(s))):
            assert np.array_equal(got, want)


def test_warp_function_defaults():
    # a profile built from kind, fn and jet alone: pole-free, open at 0, unbounded,
    # with the unit tail law and no breakpoints
    metric = pl.WarpFunction("line", np.asarray, lambda s: (s, np.ones_like(s), np.zeros_like(s)))
    assert (metric.params, metric.domain_start, metric.pole_smooth, metric.inclusive_start) == ({}, 0.0, False, False)
    assert (metric.tail_coefficient, metric.tail_exponent, metric.breakpoints) == (1.0, 1.0, ())
    assert metric.domain_end == math.inf
    assert metric.label == "line"
    assert pl.WarpFunction("line", np.asarray, metric.jet).params is not metric.params


@pytest.mark.parametrize("point", [np.inf, np.array([1.0, np.inf])])
def test_schwarzschild_unconvergeable_radius_raises(point):
    # at s = inf the Newton step is nan; the inversion says so instead of
    # returning nan (the inf arithmetic warns, hence the errstate)
    metric = pl.schwarzschild_slice(1.0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="did not converge"):
        metric.f(point)


@pytest.mark.parametrize("mass", [0.01, 1.0, 100.0])
def test_schwarzschild_inversion_converges_over_domain(mass):
    # the convergence check passes from the horizon out to the 1e300 probe end
    s = np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 4001)])
    assert np.all(np.isfinite(pl.schwarzschild_slice(mass).f(s)))


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
def test_trace_identity_on_catalog(kind):
    metric = pl.build_metric(kind)
    s = np.geomspace(0.05, 1e3, 300)
    if metric.kind == "schwarzschild":
        s = np.concatenate([[0.0], s])
    p = pl.curvature_at(metric, s)
    resid = np.abs(p.scalar - (p.ric_rad + 2 * p.ric_tan)) / np.maximum(1.0, np.abs(p.scalar))
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


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
def test_array_curvature_matches_scalar_calls(kind):
    # one call over an array of radii gives, radius by radius, the bits of
    # the per-point calls, for the analytic curvature and for the oracle
    metric = pl.build_metric(kind)
    s = np.geomspace(0.05, 1e4, 401)
    h = np.maximum(1e-3, 1e-4 * s)
    fields = ("s", "areal_radius", "k_rad", "k_tan", "ric_rad", "ric_tan", "scalar")
    curv = pl.curvature_at(metric, s)
    fd = pl.finite_difference_curvature_oracle(metric, s, h)
    for i in range(len(s)):
        for arr, point in ((curv, pl.curvature_at(metric, float(s[i]))),
                           (fd, pl.finite_difference_curvature_oracle(metric, float(s[i]),
                                                                      float(h[i])))):
            assert all(type(getattr(point, k)) is float for k in fields)
            assert [getattr(point, k) for k in fields] == [getattr(arr, k)[i] for k in fields]


def test_array_curvature_checks_extreme_radii():
    with pytest.raises(DomainError):
        pl.curvature_at(pl.cone(0.5), np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        pl.finite_difference_curvature_oracle(pl.cone(0.5), np.array([1.0, 0.001]), 1e-3)
    with pytest.raises(NumericError):
        pl.finite_difference_curvature_oracle(pl.flat_space(), np.array([1.0, 2.0]),
                                              np.array([1e-3, 0.0]))
    assert pl.curvature_at(pl.flat_space(), np.array([])).scalar.shape == (0,)


def test_fd_oracle_step_underflow():
    with pytest.raises(NumericError):
        pl.finite_difference_curvature_oracle(pl.flat_space(), 1.0, 0.0)
    with pytest.raises(NumericError):
        pl.finite_difference_curvature_oracle(pl.flat_space(), 1.0, 1e-300)


# ---------------------------------------------------------------------------
# pinching
# ---------------------------------------------------------------------------

def test_pinching_sphere_passes_at_one_third(sine_profile):
    report = scan(sine_profile, 1.0 / 3.0, (0.1, 1.0), 50)
    assert report.passed
    assert report.eps_star_min == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.first_failure_s is None


def test_pinching_cone_fails_with_zero_margin():
    report = scan(pl.cone(0.5), 0.01, (1.0, 10.0), 50)
    assert not report.passed
    assert report.eps_star_min == 0.0
    assert report.first_failure_s == pytest.approx(1.0, abs=1e-9)


def test_pinching_flat_passes_via_sentinel():
    report = scan(pl.flat_space(), 0.3, (0.5, 100.0), 40)
    assert report.passed
    assert np.all(np.isinf(report.margin_eps_star))


def test_pinching_schwarzschild_fails_ric_nonneg():
    report = scan(pl.schwarzschild_slice(1.0), 0.01, (0.5, 50.0), 50)
    assert not report.passed
    assert report.eps_star_min == -math.inf


def test_pinching_witness_refined_by_bisection():
    metric = pl.power_law(1.0, 0.8)
    s_target = 5.0
    p = pl.curvature_at(metric, np.array([s_target]))
    eps_star, _ = pl.metrics._pinch_margins(p.ric_rad, p.ric_tan, p.scalar)
    report = scan(metric, float(eps_star[0]), (1.0, 25.0), 60)
    assert not report.passed
    assert report.first_failure_s == pytest.approx(s_target, abs=2e-6)


@settings(max_examples=20, deadline=2000)
@given(epsilon=st.floats(0.0085, 0.0099))
def test_pinching_bisection_ends_where_ulp_exceeds_tolerance(epsilon):
    # the first failure lies past 1e14, where adjacent floats are further
    # apart than the 1e-6 refinement tolerance
    metric = pl.power_law(1.0, 0.99)
    report = scan(metric, epsilon, (1.0, 1e18), 400)
    assert not report.passed
    assert 1e14 < report.first_failure_s <= 1e18
    assert not pl.metrics.pinched(metric, np.array([report.first_failure_s]), epsilon)[0][0]


def test_pinching_usage_errors():
    with pytest.raises(UsageError):
        scan(pl.flat_space(), 0.1, (1.0, 2.0), 1)
    with pytest.raises(UsageError):
        scan(pl.flat_space(), -0.1, (1.0, 2.0), 10)
    with pytest.raises(DomainError):
        pl.check_pinching(pl.flat_space(), 0.1, np.array([0.0, 2.0]), np.full(2, np.inf))
    with pytest.raises(DomainError):
        pl.check_pinching(pl.flat_space(), 0.1, np.array([2.0, 1.0]), np.full(2, np.inf))


def test_pinching_margin_curve_keeps_the_least_margin():
    # the curve of 1000 radii is a strided subsample (every third radius)
    # that keeps the least margin, here at an index off the stride
    s = np.geomspace(1.0, 10.0, 1000)
    eps_star = np.full(1000, 0.3)
    eps_star[500] = 0.2
    report = pl.check_pinching(pl.flat_space(), 0.1, s, eps_star)
    assert report.passed
    assert len(report.margin_s) <= 400
    assert report.margin_s[0] == s[0] and report.margin_s[-1] == s[-1]
    assert s[500] in report.margin_s
    assert report.eps_star_min == 0.2


def test_pinching_trace_bound():
    # wherever the scan passes with R > 0 somewhere, the margin is <= 1/3
    for kind in ("power", "cone", "sphere_cap_blend"):
        metric = pl.build_metric(kind)
        report = scan(metric, 1e-6, (0.5, 20.0), 100)
        finite = np.isfinite(report.margin_eps_star)
        if finite.any():
            assert report.margin_eps_star[finite].max() <= 1.0 / 3.0 + 1e-12


@settings(max_examples=500, deadline=None)
@given(scale=st.floats(-15.0, 3.0), big=st.floats(-1.0, 1.0),
       small=st.one_of(st.floats(-1.0, 1.0), st.floats(-3e-12, 3e-12)), small_is_radial=st.booleans(),
       r_near_zero=st.booleans(), r_jitter=st.floats(-1.0, 1.0),
       epsilon=st.one_of(st.floats(0.0, 1.0 / 3.0, exclude_min=True), st.floats(0.0, 3e-12, exclude_min=True)))
def test_pinching_margin_implies_nonnegative_ricci(scale, big, small, small_is_radial, r_near_zero,
                                                   r_jitter, epsilon):
    # pinched_where reads eps_star alone: for eps > 0 the margin test must
    # imply ric_ok, with R a rounded trace (1e-13 relative) or within
    # PINCH_SLACK of 0 (the +-inf sentinel branch)
    slack = pl.metrics.PINCH_SLACK
    unit = 10.0 ** scale
    ric_rad, ric_tan = (small * unit, big * unit) if small_is_radial else (big * unit, small * unit)
    if r_near_zero:
        scalar = r_jitter * slack * (abs(ric_rad) + 2.0 * abs(ric_tan))
    else:
        scalar = (ric_rad + 2.0 * ric_tan) * (1.0 + 1e-13 * r_jitter)
    eps_star, ric_ok = pl.metrics._pinch_margins(np.array([ric_rad]), np.array([ric_tan]), np.array([scalar]))
    if pl.metrics.pinched_where(eps_star, epsilon)[0]:
        assert ric_ok[0]


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


@pytest.mark.parametrize("metric,a", [(pl.flat_space(), 1.0), (pl.cone(0.5), 0.5)])
def test_volume_small_balls_closed_form(metric, a):
    # f^2 vanishes at the zero inner edge, so a ball reaching only part way
    # into the first panel must still keep full relative accuracy
    r = np.array([1e-15, 1e-6, 1e-4, 1e-3, 1e-2])
    exact = 4 * math.pi / 3 * a**2 * r**3
    assert np.abs(pl.volume_ball(metric, r) / exact - 1.0).max() <= 1e-13
    for radius, vol in zip(r, exact):
        assert abs(pl.volume_ball(metric, radius) / vol - 1.0) <= 1e-13


@pytest.mark.parametrize("beta", [0.55, 0.8, 0.95])
def test_power_ball_volume_within_its_pole_bound(beta):
    # f^2 = s^(2 beta) is not smooth at the pole: the panel [0, a] there errs by up to 5e-7 of its own
    # integral, so V(r) errs by 5e-7 (a/r)^(2 beta + 1), where panel_edges sets a = 2^-13 min(max r, 1,
    # smallest r); so a multi-decade array reads as well as one radius per call
    metric = pl.power_law(1.0, beta)
    r = np.geomspace(1e-4, 100.0, 61)
    exact = 4 * math.pi * r ** (2 * beta + 1) / (2 * beta + 1)
    single = np.array([pl.volume_ball(metric, radius) for radius in r])
    bound = 5e-7 * (np.minimum(r, 1.0) / 64 / 128 / r) ** (2 * beta + 1) + 1e-15
    assert (np.abs(single / exact - 1.0) <= bound).all()
    together = pl.volume_ball(metric, r)
    assert (np.abs(together / exact - 1.0) <= 5e-7 * (r[0] / 128 / r) ** (2 * beta + 1) + 1e-15).all()
    assert (np.abs(together / exact - 1.0) <= 1e-10).all()
    # ten decades in one call: a = 2^-13 1e-6, so every radius is within 5e-7 2^-26 = 7.5e-15
    r = np.geomspace(1e-6, 1e4, 61)
    together = pl.volume_ball(metric, r)
    assert (np.abs(together / (4 * math.pi * r ** (2 * beta + 1) / (2 * beta + 1)) - 1.0) <= 1e-14).all()
    # the growth fit reads 25 radii over [r_hi/50, r_hi] in one call: alpha = 2 beta for a window below 1
    assert abs(pl.growth_fit(metric, 1.0 / 50.0, 1.0).alpha_fit - 2 * beta) <= 1e-9


def test_volume_ball_at_a_radius_next_to_a_grid_edge():
    # 10.0 is an edge of the log panels that panel_edges(0, 100) lays on [1, 100]; the radius
    # one float above it must become an edge of its own, not be merged into 10.0
    r = np.array([np.nextafter(10.0, 100.0), 100.0])
    assert np.abs(pl.volume_ball(pl.flat_space(), r) / (4 * math.pi / 3 * r**3) - 1.0).max() <= 1e-15


def test_default_growth_fit_evaluates_1184_integrand_nodes():
    # one ball grid for the 25 radii of [100, 1e4]: 14 pole panels on [0, 1], 40 log panels on
    # [1, 1e4] and 20 more where a radius is not a log edge; 16 Gauss-Legendre nodes each, no split
    flat = pl.flat_space()
    nodes = []

    def counting(s):
        nodes.append(s.size)
        return flat.fn(s)

    pl.growth_fit(dataclasses.replace(flat, fn=counting), 100.0, 1e4)
    assert nodes == [16 * (14 + 40 + 20)]


@pytest.mark.parametrize("metric", [pl.flat_space(), pl.power_law(1.0, 0.8)], ids=["flat", "power"])
def test_volume_ball_nan_radius_is_outside_domain(metric):
    for r in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError, match="ball radius outside domain"):
            pl.volume_ball(metric, r)


def test_volume_ball_infinite_radius_is_outside_domain():
    # the domain of flat space is infinite, but no panel grid reaches r = inf
    for r in (math.inf, np.array([1.0, math.inf])):
        with pytest.raises(DomainError, match="ball radius outside domain"):
            pl.volume_ball(pl.flat_space(), r)


def test_volume_ball_is_history_independent():
    fresh = pl.power_law(1.0, 0.8)
    used = pl.power_law(1.0, 0.8)
    pl.volume_ball(used, 1e4)
    assert pl.volume_ball(used, 10.0) == pl.volume_ball(fresh, 10.0)


@pytest.mark.parametrize("blend_width", [0.01, 0.3, 1.0, 3.0])
def test_capped_cone_solves_slope_equation(blend_width):
    for slope in np.linspace(0.02, 0.98, 25):
        s_cap = capped_cone(slope, blend_width).params["s_cap"]
        residual = math.cos(s_cap) - (blend_width / 3.0) * math.sin(s_cap) - slope
        assert abs(residual) <= 1e-15, slope


def test_volume_capped_cone_leading_order():
    metric = capped_cone(0.5, 0.3)
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
    report = pl.growth_fit(capped_cone(0.5, 0.3), 100.0, 10000.0)
    assert report.alpha_fit == pytest.approx(2.0, abs=0.02)
    assert report.avr == pytest.approx(0.25, abs=0.01)


def test_line_fit_matches_polyfit(catalog_bundle):
    # the growth, Li-Yau, decay-tail and table-tail fits, against numpy's least squares
    metric, _, series = catalog_bundle["power"]
    r, s = np.geomspace(10.0, 1000.0, 25), np.geomspace(10.0, 1000.0, 40)
    integ = TailIntegrator(pl.power_law(1.0, 0.8), 2.0, 1000.0)  # u = (s/2)^-0.6, intercept not 0
    rows = _TABLE_S[-5:]
    for x, y in [(np.log(r), np.log(pl.volume_ball(metric, r))), (np.log(s), np.log(integ.value(s) / integ.i_lo)),
                 (series.t[1:], np.log(series.F[1:])), (np.log(rows), np.log(rows**0.8 * (1.0 + 0.1 * np.sin(rows))))]:
        want = np.polyfit(x, y, 1)
        assert np.allclose(pl.metrics.line_fit(x, y), want, rtol=1e-12, atol=0.0), len(x)


def test_bishop_gromov_volume_ratio_monotone():
    r = np.geomspace(0.5, 1000.0, 120)
    for metric in (pl.flat_space(), capped_cone(0.5, 0.3), pl.power_law(1.0, 0.8)):
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


def test_table_reproduces_quintic_polynomial():
    # a quintic lies in the spline space, so the interpolant is the polynomial
    # itself; the k-th derivative keeps roundoff of f amplified by spacing^-k
    rng = np.random.default_rng(7)
    h = 0.04
    s = 0.5 + h * (np.arange(40) + rng.uniform(-0.3, 0.3, 40))
    poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 6)) + 100.0
    metric = pl.from_table(s, poly(s))
    x = np.linspace(s[0], s[-1], 1001)
    scale = np.abs(poly(x)).max()
    for k, fn in enumerate((metric.f, metric.df, metric.d2f)):
        assert np.abs(fn(x) - poly.deriv(k)(x)).max() <= 1e-13 * scale / h**k, k


def test_table_spline_is_c4_at_interior_knots():
    s = np.geomspace(0.5, 50.0, 60)
    f = s**0.8 * (1.0 + 0.1 * np.sin(3.0 * np.log(s)))
    edges, series = pl.metrics._quintic_pieces(s, f)
    half = 0.5 * np.diff(edges)
    coef = series[:, 0]
    for k in range(5):  # f, f', f'', f''', f'''' from both sides of each interior knot
        left = np.polynomial.chebyshev.chebval(1.0, coef)[:-1]
        right = np.polynomial.chebyshev.chebval(-1.0, coef)[1:]
        assert np.abs(left - right).max() <= 1e-9 * np.abs(right).max(), k
        coef = np.polynomial.chebyshev.chebder(coef) / half


def test_table_with_many_rows():
    # 20,000 rows: the banded solve never forms a rows x rows array
    s, h = np.linspace(0.01, 200.0, 20_000, retstep=True)
    metric = pl.from_table(s, np.sqrt(1.0 + s * s))
    x = np.linspace(0.02, 199.995, 5003)
    root = np.sqrt(1.0 + x * x)
    for k, (fn, exact) in enumerate(((metric.f, root), (metric.df, x / root), (metric.d2f, root**-3))):
        assert np.abs(fn(x) - exact).max() <= 1e-13 * root.max() / h**k, k


def test_table_with_a_row_at_zero():
    # the tail fit takes logs of the rows with s > 0 only; the suite turns
    # RuntimeWarnings into errors, so a log of s = 0 would fail the load
    s = np.r_[0.0, np.geomspace(0.1, 1e3, 60)]
    metric = pl.from_table(s, 1e-6 + 2.0 * s)
    assert metric.tail_exponent == pytest.approx(1.0, abs=1e-4)
    assert metric.tail_coefficient == pytest.approx(2.0, rel=1e-3)
    assert metric.f(0.0) == pytest.approx(1e-6, abs=1e-12)


def test_table_rejects_nan(power_table):
    metric = pl.from_table(*power_table)
    for fn in (metric.f, metric.df, metric.d2f):
        with pytest.raises(DomainError):
            fn(np.nan)
        with pytest.raises(DomainError):
            fn(np.array([1.0, np.nan, 2.0]))


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


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("text, expect", [
    # quoted fields, extra columns, blank lines and spaces around fields and header names
    (' s , f ,note\n"1.5","2.5",x\n\n 2 , 3 \n3,4,5,6\n\n"4",5\n', ([1.5, 2.0, 3.0, 4.0], [2.5, 3.0, 4.0, 5.0])),
    ("s,f\n1_000,2e3\nnan,1\n3,inf\n-Infinity,4\n", ([1000.0, _NAN, 3.0, -_INF], [2000.0, 1.0, _INF, 4.0])),
    ('s,f\n"1\n",1\n0.1,1e-320\n', ([1.0, 0.1], [1.0, 1e-320])),  # a quoted field over two lines
    ("s,f\n1,1\n2,2\n3\n4,4\n", "line 4: expected two numbers s,f, got '3'"),  # a one-field row
    ("s,f\n1,1\n2,x\ny,3\n", "line 3: expected two numbers s,f, got '2,x'"),  # bad f, then a bad s
    ("s,f\n1,1\n \n2,2\n", "line 3: expected two numbers s,f, got ' '"),
    ('s,f\n"1\n",1\n\n2,2\n3,1__0\n', "line 6: expected two numbers s,f, got '3,1__0'"),
    ("s,f\n\n\n", "empty table"),
])
def test_table_csv_parse_compatibility(tmp_path, monkeypatch, text, expect):
    # the arrays load_table_csv hands to from_table hold float() of each field,
    # and a bad row is named by the line where csv.reader ends it
    path = tmp_path / "t.csv"
    path.write_text(text)
    loaded = []
    monkeypatch.setattr(pl.metrics, "from_table", lambda s, f, **kwargs: loaded.append((s, f)))
    if isinstance(expect, str):
        with pytest.raises(UsageError) as info:
            pl.load_table_csv(path)
        assert str(info.value) == (f"{path}, {expect}" if "line" in expect else f"{path}: {expect}")
        return
    pl.load_table_csv(path)
    for got, want in zip(loaded[0], expect):
        assert got.dtype == np.float64 and got.tobytes() == np.array(want, float).tobytes()


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


def test_table_dip_between_rows_names_the_radius():
    # the row nearest s = 0.5 is 1e-6, and the interpolant dips below zero between it
    # and the next row, in the first decades, which a linear scan of the table's range skips
    s = np.geomspace(0.1, 1e4, 300)
    f = s**0.8
    f[np.argmin(np.abs(s - 0.5))] = 1e-6
    with pytest.raises(UsageError, match=r"dips to f=-0\.00035 at s=0\.5042"):
        pl.from_table(s, f)


def _per_series(edges, series, x):
    """The series[:, k] of f, f' and f'' at x by one Clenshaw sum each, over its own 6 - k rows."""
    x = np.asarray(x, float)
    i = np.searchsorted(edges[1:-1], x.ravel(), side="right")
    xi = (x.ravel() - 0.5 * (edges[i] + edges[i + 1])) / (0.5 * (edges[i + 1] - edges[i]))
    return tuple(pl.quadrature._chebyshev_sum(series[:6 - k, k].take(i, axis=1), xi).reshape(x.shape)
                 for k in range(series.shape[1]))


def test_table_jet_is_bit_identical_to_separate_series():
    # one Clenshaw pass over f, f' and f'', zero-padded to one degree, at the rows,
    # the knots, between them and inside the end tolerance, for any shape of radii
    s = np.geomspace(0.1, 3e4, 517)
    f = 1.3 * s**0.75 * (1.0 + 0.2 * np.sin(2.0 * np.log(s)))
    metric = pl.from_table(s, f)
    edges, series = pl.metrics._quintic_pieces(s, f)
    x = np.concatenate([s, edges, np.geomspace(s[0], s[-1], 4001), [s[-1] * (1 + 1e-12)]])
    for points in (x, x.reshape(2, -1), np.array(3.7), x[:1]):
        got, want = metric.jet(points), _per_series(edges, series, points)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_table_positivity_matches_a_dense_sample_of_each_piece():
    # seeded smooth, noisy and rippled tables: no accepted table reaches f <= 0 on 1025
    # points of each piece, and every table positive there is accepted, whether or not
    # a linear scan of 4096 radii over the whole table saw a dip
    rng = np.random.default_rng(29)
    xi = np.linspace(-1.0, 1.0, 1025)
    verdicts = []
    for k in range(240):
        family = ("smooth", "noisy", "rippled")[k % 3]
        s = np.geomspace(0.1, 10.0 ** rng.uniform(1.0, 4.0), int(rng.integers(12, 120)))
        if family == "smooth":
            f = rng.uniform(0.5, 2.0) * s ** rng.uniform(0.55, 1.0)
        elif family == "noisy":
            f = s**0.8 * np.exp(rng.normal(0.0, rng.uniform(0.01, 0.5), s.size))
            f[rng.integers(0, s.size)] *= 10.0 ** rng.uniform(-8.0, 0.0)
        else:
            f = s**0.8 * (1.0 + rng.uniform(0.6, 0.999) * np.sin(rng.uniform(2.0, 20.0) * np.log(s)))
        edges, series = pl.metrics._quintic_pieces(s, f)
        dense = np.polynomial.chebyshev.chebval(xi, series[:, 0]).min()
        scan = _per_series(edges, series[:, :1], np.linspace(s[0], s[-1], 4096))[0].min()
        try:
            pl.from_table(s, f)
            accepted = True
        except UsageError as exc:
            assert "dips to f=" in str(exc)
            accepted = False
        assert not accepted or dense > 0, (k, family, dense)
        assert accepted or dense <= 0 or scan <= 0, (k, family, dense, scan)
        verdicts.append((accepted, bool(scan > 0)))
    assert min(verdicts.count((True, True)), verdicts.count((False, False))) >= 40
    assert verdicts.count((False, True)) >= 5  # dips a scan over the whole table missed


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
