import math
import sys

import numpy as np
import pytest

import pinchlab as pl
from pinchlab import asymptotics
from pinchlab.config import ScenarioConfig
from pinchlab.metrics import _pinch_margins

from test_metrics import schw_arclength


# ---------------------------------------------------------------------------
# exponential decay of F
# ---------------------------------------------------------------------------

def _pinch_on_series(series, epsilon):
    return pl.check_pinching(series.metric, epsilon,
                             (float(series.s[0]), float(series.s[-1])), 300)


def test_decay_flat_threshold_never_reached(catalog_bundle):
    # F = 4 pi > pi = threshold(1/3): the excluded trivial case, fit skipped
    _, _, series = catalog_bundle["flat"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0, _pinch_on_series(series, 1.0 / 3.0))
    assert not fit.threshold_reached
    assert fit.passed is None
    assert fit.hypothesis_met  # vacuously pinched (R = 0)
    assert fit.pointwise_ok


def test_decay_pointwise_checks_every_interior_flat_level(catalog_bundle):
    # F = 4 pi at every level, so last-bit rounding must not pick the levels
    _, _, series = catalog_bundle["flat"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0, _pinch_on_series(series, 1.0 / 3.0))
    assert fit.n_pointwise_checked == len(series.t) - 2
    assert fit.pointwise_ok


def test_decay_cone_sits_exactly_on_threshold(catalog_bundle):
    # F = pi equals the eps = 1/3 threshold; the strict margin keeps the
    # threshold detection from flapping on roundoff
    _, _, series = catalog_bundle["cone"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0, _pinch_on_series(series, 1.0 / 3.0))
    assert not fit.threshold_reached


def test_decay_power_hypothesis_unmet(catalog_bundle):
    # F decays like e^{-2t/3}, slower than the e^{-2t} bound; consistent
    # because the fixed-eps pinching hypothesis fails along the tail
    _, _, series = catalog_bundle["power"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0, _pinch_on_series(series, 1.0 / 3.0))
    assert fit.threshold_reached
    assert not fit.hypothesis_met
    assert fit.passed is False
    assert fit.decay_rate == pytest.approx(-2.0 / 3.0, abs=1e-3)


def test_decay_pointwise_inequality_power_with_window_margin(solve_cache):
    # choosing eps = inf eps*(s) over the window makes pinching hold at every
    # level, and the pointwise branch F' <= eps (2F - 8 pi) must then hold
    sol = solve_cache("power", 1.0)
    series = pl.build_series(sol, n=2001)
    eps_star, _ = _pinch_margins(series.metric, series.s)
    eps = float(eps_star.min()) * 0.999
    pinch = _pinch_on_series(series, eps)
    assert pinch.passed
    fit = asymptotics.decay_check(series, eps, pinch)
    assert fit.hypothesis_met
    assert fit.n_pointwise_checked > 1000
    assert fit.pointwise_ok


def test_decay_pointwise_on_round_cap(solve_cache):
    # levels inside the sine cap are pinched at exactly 1/3
    sol = solve_cache("sphere_cap_blend", 0.2)
    series = pl.build_series(sol, n=2001)
    pinch = _pinch_on_series(series, 1.0 / 3.0)
    fit = asymptotics.decay_check(series, 1.0 / 3.0, pinch)
    assert fit.n_pointwise_checked > 100
    assert fit.pointwise_ok


def test_decay_bound_passes_where_hypothesis_holds():
    # beta = 0.55 decays at rate 2(1-beta)/(2 beta - 1) = 9, much faster than
    # the e^{-2t} bound, and a small eps keeps pinching valid across the
    # whole window: the one profile where every branch of the decay estimate engages
    beta = 0.55
    metric = pl.power_law(1.0, beta)
    sol = pl.solve_potential(pl.ExteriorDomain(metric, 1.0), t_max=0.9)
    series = pl.build_series(sol, t_max=0.9, n=2001)
    eps_star, _ = _pinch_margins(metric, series.s)
    eps = float(eps_star.min()) * 0.999
    pinch = pl.check_pinching(metric, eps, (1.0, float(series.s[-1])), 300)
    assert pinch.passed
    fit = asymptotics.decay_check(series, eps, pinch)
    assert fit.hypothesis_met
    assert fit.threshold_reached
    assert fit.passed
    assert fit.decay_constant == pytest.approx(4 * math.pi * math.exp(2 * fit.t_tilde), rel=1e-12)
    assert fit.decay_rate == pytest.approx(-9.0, abs=1e-2)
    assert fit.pointwise_ok


# ---------------------------------------------------------------------------
# potential decay exponent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.7, 0.8, 0.9, 1.0])
def test_li_yau_exponent_power(solve_cache, beta):
    sol = solve_cache("power", 1.0, t_max=2.0, s_max=1000.0, beta=beta)
    slope = asymptotics.li_yau_fit(sol, 10.0, 1000.0)
    expect = 1.0 - 2.0 * beta
    assert abs(slope / expect - 1.0) < 0.02


def test_li_yau_exponent_flat(solve_cache):
    sol = solve_cache("flat", 1.0, t_max=2.0, s_max=1000.0)
    assert asymptotics.li_yau_fit(sol, 10.0, 1000.0) == pytest.approx(-1.0, abs=0.01)


def test_li_yau_exponent_schwarzschild():
    # u ~ m/r exactly, but in arclength the slope carries a 2m log(s)/s
    # correction (~3% at s = 50); at s >= 500 it is inside the 2% band
    metric = pl.schwarzschild_slice(1.0)
    sol = pl.solve_potential(pl.ExteriorDomain(metric, 0.0), t_max=2.0,
                             s_max=schw_arclength(6000.0))
    slope = asymptotics.li_yau_fit(sol, 500.0, 5000.0)
    assert slope == pytest.approx(-1.0, abs=0.02)


# ---------------------------------------------------------------------------
# coarea and Hoelder saturation
# ---------------------------------------------------------------------------

def test_coarea_examples(catalog_bundle):
    grid = np.linspace(0.1, 4.5, 20)
    for name, tol in (("flat", 1e-6), ("power", 1e-5), ("cone", 1e-6)):
        _, sol, _ = catalog_bundle[name]
        assert asymptotics.coarea_check(sol, grid) < tol, name


def test_coarea_all_catalog(catalog_bundle):
    grid = np.linspace(0.1, 4.5, 20)
    for name, (metric, sol, series) in catalog_bundle.items():
        assert asymptotics.coarea_check(sol, grid) < 1e-4, name


def test_holder_saturation_examples(catalog_bundle):
    grid = np.linspace(0.0, 5.0, 21)
    for name, tol in (("flat", 1e-10), ("power", 1e-8), ("schwarzschild", 1e-6)):
        _, sol, _ = catalog_bundle[name]
        assert asymptotics.holder_chain_check(sol, grid) < tol, name


def test_holder_saturation_all_catalog(catalog_bundle):
    grid = np.linspace(0.0, 5.0, 21)
    for name, (metric, sol, series) in catalog_bundle.items():
        assert asymptotics.holder_chain_check(sol, grid) < 1e-6, name


# ---------------------------------------------------------------------------
# refutation certificates
# ---------------------------------------------------------------------------

def test_refute_cone():
    report = asymptotics.refute(pl.ExteriorDomain(pl.cone(0.5), 1.0), ScenarioConfig())
    assert not report.pinching_pass
    assert report.growth_pass
    assert report.growth.alpha_fit == pytest.approx(2.0, abs=0.02)
    assert report.boundary.below_threshold
    assert report.boundary.value == pytest.approx(4 * math.pi, abs=1e-9)
    assert report.conclusion.startswith("pinching fails")
    assert report.pinching.first_failure_s is not None


def test_refute_power():
    report = asymptotics.refute(pl.ExteriorDomain(pl.power_law(1.0, 0.8), 1.0),
                                ScenarioConfig())
    assert not report.pinching_pass  # margin tends to zero along the tail
    assert report.growth_pass       # alpha = 1.6 > 4/3
    assert report.boundary.below_threshold
    assert report.conclusion.startswith("pinching fails")


def test_refute_flat_boundary_equality():
    report = asymptotics.refute(pl.ExteriorDomain(pl.flat_space(), 1.0), ScenarioConfig())
    assert report.pinching_pass     # vacuous, R = 0
    assert report.growth_pass
    assert not report.boundary.below_threshold
    assert report.boundary.value == pytest.approx(16 * math.pi, abs=1e-12)
    assert report.conclusion.startswith("boundary condition fails")


def test_refute_chain_evaluation_crosses():
    # alpha = 1.6 gives chain exponent 2.6/0.6 < 7, so e^{7t} - 1 must
    # overtake the calibrated right side at some sampled level
    report = asymptotics.refute(pl.ExteriorDomain(pl.power_law(1.0, 0.8), 1.0),
                                ScenarioConfig())
    assert report.chain_exponent == pytest.approx(2.6 / 0.6, abs=0.05)
    assert report.crossing_t is not None
    i = int(np.searchsorted(report.chain_t, report.crossing_t))
    assert report.chain_lhs[i] > report.chain_rhs[i]


def test_refute_json_fields():
    report = asymptotics.refute(pl.ExteriorDomain(pl.cone(0.5), 1.0), ScenarioConfig())
    doc = report.to_json_dict()
    for key in ("pinching", "growth", "boundary_willmore", "chain", "conclusion"):
        assert key in doc
    assert doc["pinching"]["pass"] is False
    assert doc["boundary_willmore"]["pass"] is True
    # sentinels serialize as strings, never as bare IEEE infinities
    flat_doc = asymptotics.refute(pl.ExteriorDomain(pl.flat_space(), 1.0),
                                  ScenarioConfig()).to_json_dict()
    assert set(flat_doc["pinching"]["margin_curve"]["eps_star"]) == {"inf"}
    import json
    json.dumps(flat_doc)  # must be serializable


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
@pytest.mark.parametrize("s0", [0.5, 1.0, 2.0])
def test_refute_soundness(kind, s0):
    metric = pl.build_metric(kind)
    report = asymptotics.refute(pl.ExteriorDomain(metric, s0), ScenarioConfig())
    assert not report.conclusion.startswith("CONTRADICTION")
    assert report.failed_hypotheses() or report.crossing_t is not None


def test_parametric_kinds_solve_without_scipy(monkeypatch):
    for name in ("scipy", "scipy.interpolate", "scipy.optimize"):
        monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ImportError):
        import scipy.interpolate  # noqa: F401
    for kind in ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend"):
        report = asymptotics.refute(pl.ExteriorDomain(pl.build_metric(kind), 1.0),
                                    ScenarioConfig())
        assert report.failed_hypotheses() or report.crossing_t is not None, kind
    sol = pl.solve_potential(pl.ExteriorDomain(pl.capped_cone(0.5, 0.3), 1.0))
    assert sol.t_max == 8.0
