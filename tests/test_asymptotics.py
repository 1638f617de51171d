import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest

import pinchlab as pl
from pinchlab import asymptotics
from pinchlab.config import ScenarioConfig
from pinchlab.errors import DomainError
from pinchlab.verify import SUITE_DT, run_verify

from test_metrics import capped_cone


# ---------------------------------------------------------------------------
# exponential decay of F
# ---------------------------------------------------------------------------

def _pinch_on_series(series, epsilon):
    return pl.check_pinching(series.metric, epsilon, series.s, series.eps_star)


def test_decay_flat_threshold_never_reached(catalog_bundle):
    # F = 4 pi > pi = threshold(1/3): the excluded trivial case, fit skipped
    _, _, series = catalog_bundle["flat"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0)
    assert fit.t_tilde is None
    assert fit.passed is None
    assert _pinch_on_series(series, 1.0 / 3.0).passed  # vacuously pinched (R = 0)
    assert fit.max_pointwise_violation <= 1e-9


def test_decay_pointwise_checks_every_interior_flat_level(catalog_bundle):
    # F = 4 pi at every level, so last-bit rounding must not pick the levels
    _, _, series = catalog_bundle["flat"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0)
    assert fit.n_pointwise_checked == len(series.t) - 2
    assert fit.max_pointwise_violation <= 1e-9


def test_decay_cone_sits_exactly_on_threshold(catalog_bundle):
    # F = pi equals the eps = 1/3 threshold; the strict margin keeps the
    # threshold detection from flapping on roundoff
    _, _, series = catalog_bundle["cone"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0)
    assert fit.t_tilde is None


def test_decay_power_hypothesis_unmet(catalog_bundle):
    # F decays like e^{-2t/3}, slower than the e^{-2t} bound; consistent
    # because the fixed-eps pinching hypothesis fails along the tail
    _, _, series = catalog_bundle["power"]
    fit = asymptotics.decay_check(series, 1.0 / 3.0)
    assert fit.t_tilde is not None
    assert not _pinch_on_series(series, 1.0 / 3.0).passed
    assert fit.passed is False
    assert fit.decay_rate == pytest.approx(-2.0 / 3.0, abs=1e-3)


def test_decay_pointwise_inequality_power_with_window_margin(solve_cache):
    # choosing eps = inf eps*(s) over the window makes pinching hold at every
    # level, and the pointwise branch F' <= eps (2F - 8 pi) must then hold
    sol = solve_cache("power", 1.0)
    series = pl.build_series(sol, n=2001)
    eps = float(series.eps_star.min()) * 0.999
    pinch = _pinch_on_series(series, eps)
    assert pinch.passed
    fit = asymptotics.decay_check(series, eps)
    assert fit.n_pointwise_checked > 1000
    assert fit.max_pointwise_violation <= 1e-9


def test_decay_pointwise_on_round_cap(solve_cache):
    # levels inside the sine cap are pinched at exactly 1/3
    sol = solve_cache("sphere_cap_blend", 0.2)
    series = pl.build_series(sol, n=2001)
    fit = asymptotics.decay_check(series, 1.0 / 3.0)
    assert fit.n_pointwise_checked > 100
    assert fit.max_pointwise_violation <= 1e-9


def test_decay_bound_passes_where_hypothesis_holds():
    # beta = 0.55 decays at rate 2(1-beta)/(2 beta - 1) = 9, much faster than
    # the e^{-2t} bound, and a small eps keeps pinching valid across the
    # whole window: the one profile where every branch of the decay estimate engages
    beta = 0.55
    metric = pl.power_law(1.0, beta)
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 1.0), t_max=0.9)
    series = pl.build_series(sol, n=2001)
    eps = float(series.eps_star.min()) * 0.999
    pinch = pl.check_pinching(metric, eps, series.s, series.eps_star)
    assert pinch.passed
    fit = asymptotics.decay_check(series, eps)
    assert fit.t_tilde is not None
    assert fit.passed
    assert fit.decay_constant == pytest.approx(4 * math.pi * math.exp(2 * fit.t_tilde), rel=1e-12)
    assert fit.decay_rate == pytest.approx(-9.0, abs=1e-2)
    assert fit.max_pointwise_violation <= 1e-9


# ---------------------------------------------------------------------------
# potential decay exponent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.7, 0.8, 0.9, 1.0])
def test_li_yau_exponent_power(solve_cache, beta):
    sol = solve_cache("power", 1.0, t_max=2.0, beta=beta)
    slope = asymptotics.li_yau_fit(sol, 10.0, 1000.0)
    expect = 1.0 - 2.0 * beta
    assert abs(slope / expect - 1.0) < 0.02


def test_li_yau_exponent_flat(solve_cache):
    sol = solve_cache("flat", 1.0, t_max=2.0)
    assert asymptotics.li_yau_fit(sol, 10.0, 1000.0) == pytest.approx(-1.0, abs=0.01)


@pytest.mark.parametrize("kind, params", [("power", {"beta": 0.8}), ("flat", {})])
def test_li_yau_fit_reads_only_metric_and_s0(kind, params):
    domain = pl.ExteriorDomain(pl.build_metric(kind, params), 1.0)
    sol = pl.PotentialSolution(domain, t_max=2.0)
    assert asymptotics.li_yau_fit(domain, 10.0, 1000.0) == asymptotics.li_yau_fit(sol, 10.0, 1000.0)


def test_li_yau_exponent_schwarzschild():
    # u ~ m/r exactly, but in arclength the slope carries a 2m log(s)/s
    # correction (~3% at s = 50); at s >= 500 it is inside the 2% band
    metric = pl.schwarzschild_slice(1.0)
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 0.0), t_max=2.0)
    slope = asymptotics.li_yau_fit(sol, 500.0, 5000.0)
    assert slope == pytest.approx(-1.0, abs=0.02)


# ---------------------------------------------------------------------------
# coarea and Hoelder saturation
# ---------------------------------------------------------------------------

def coarea_indices(series):
    """The series indices nearest the levels linspace(0.1, 4.5, 20)."""
    return np.rint(np.linspace(0.1, 4.5, 20) / series.dt).astype(int)


def suite_series(sol):
    """The series of sol at the level spacing verify differences at, SUITE_DT."""
    return pl.build_series(sol, n=int(round(sol.t_max / SUITE_DT)) + 1)


def test_coarea_examples(catalog_bundle):
    for name, tol in (("flat", 1e-6), ("power", 1e-5), ("cone", 1e-6)):
        series = suite_series(catalog_bundle[name][1])
        assert asymptotics.coarea_check(series, coarea_indices(series)) < tol, name


def test_coarea_all_catalog(catalog_bundle):
    for name, (metric, sol, series) in catalog_bundle.items():
        assert asymptotics.coarea_check(series, coarea_indices(series)) < 1e-4, name


def test_coarea_measures_the_identity_not_its_stencil(catalog_bundle):
    # at verify's step 1e-3 a central second-order stencil reads delta^2 3^2 / 6 = 1.5e-6
    # on Vol ~ e^{3t}; the five-point stencil leaves quadrature roundoff only
    series = suite_series(catalog_bundle["flat"][1])
    assert asymptotics.coarea_check(series, coarea_indices(series)) <= 1e-10


def test_coarea_stencil_stays_inside_the_series(catalog_bundle):
    _, _, series = catalog_bundle["flat"]
    n = len(series.t)
    assert asymptotics.coarea_check(series, [2, n - 3]) <= 1e-10
    for k in (0, 1, n - 2, n - 1, [2, 1], np.array([100, n - 2])):
        with pytest.raises(DomainError, match="coarea stencils need series indices"):
            asymptotics.coarea_check(series, k)


def test_holder_saturation_examples(catalog_bundle):
    grid = np.linspace(0.0, 5.0, 21)
    for name, tol in (("flat", 1e-10), ("power", 1e-8), ("schwarzschild", 1e-6)):
        _, sol, _ = catalog_bundle[name]
        assert asymptotics.holder_chain_check(sol, pl.sample_at(sol, grid)) < tol, name


def test_holder_saturation_all_catalog(catalog_bundle):
    grid = np.linspace(0.0, 5.0, 21)
    for name, (metric, sol, series) in catalog_bundle.items():
        assert asymptotics.holder_chain_check(sol, pl.sample_at(sol, grid)) < 1e-6, name


def test_holder_saturation_is_formed_in_logs():
    # at beta = 0.507 the level t = 5 lies near s = 1.3e155, where the area is 2.4e158 and
    # |grad w| is 1.1e-157: their quotient overflows (a RuntimeWarning), their logs do not
    sol = pl.PotentialSolution(pl.ExteriorDomain(pl.power_law(1.0, 0.507), 1.0), t_max=5.0)
    series = pl.build_series(sol, n=5001)
    assert series.area[-1] / np.finfo(float).max > series.grad_w[-1]
    assert asymptotics.holder_chain_check(sol, series) < 1e-6


# ---------------------------------------------------------------------------
# pinching verdict from the series levels
# ---------------------------------------------------------------------------

PARAMETRIC_KINDS = ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"]


def _failed(report):
    """The hypotheses a certificate finds failing, in the order pinching, growth, boundary."""
    return [name for name, held in (("pinching", report.pinching.passed), ("growth", report.growth_pass),
                                    ("boundary", report.boundary.below_threshold)) if not held]


def _recording(metric):
    """The profile ``metric`` with a list that collects every radius at which
    f, f' or f'' is evaluated."""
    radii = []

    def record(fn):
        def wrapped(s):
            radii.append(np.array(s, float).ravel())
            return fn(s)
        return wrapped

    return dataclasses.replace(metric, fn=record(metric.fn), jet=record(metric.jet)), radii


@pytest.mark.parametrize("kind, s0, epsilon", [
    ("sphere_cap_blend", 0.5, 0.1),  # fails in the blend, past the round cap
    ("schwarzschild", 0.0, 0.1),     # horizon boundary: window from level t_max/400
    ("power", 1.0, None),            # passes: epsilon just below the least margin
])
def test_margin_curve_contract(kind, s0, epsilon):
    metric = pl.build_metric(kind, {"beta": 0.55} if kind == "power" else {})
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, s0), t_max=0.9 if kind == "power" else 5.0)
    series = pl.build_series(sol, n=20001)
    i = asymptotics.pinching_window(series)
    assert i == (50 if s0 == metric.domain_start else 0)
    s, eps_star = series.s[i:], series.eps_star[i:]
    if epsilon is None:
        epsilon = float(eps_star.min()) * 0.999
    fails = ~pl.metrics.pinched_where(eps_star, epsilon)
    assert fails.any() == (kind != "power")

    report = asymptotics.series_pinching(series, epsilon)
    curve = report.margin_s
    assert report.passed == (not fails.any())
    assert len(curve) <= 400
    assert np.all(np.diff(curve) > 0)
    assert s[0] <= curve[0] and curve[-1] <= s[-1]
    assert np.isin(curve, s).all()
    if fails.any():
        assert s[np.argmax(fails)] in curve
    assert np.array_equal(report.margin_eps_star, pl.metrics.pinched(metric, curve, epsilon)[1])
    assert report.eps_star_min == eps_star.min()


@pytest.mark.parametrize("kind", PARAMETRIC_KINDS)
@pytest.mark.parametrize("s0", [0.5, 1.0, 3.0])
def test_series_verdict_matches_dense_scan(kind, s0):
    metric = pl.build_metric(kind)
    config = ScenarioConfig()
    report = asymptotics.refute(pl.ExteriorDomain(metric, s0), config)
    # an independent scan of the window, twice as dense as its levels
    s = np.geomspace(report.pinching.margin_s[0], report.pinching.margin_s[-1], 4000)
    ok = pl.metrics.pinched(metric, s, config.epsilon)[0]
    assert report.pinching.passed == ok.all()
    others = [h for h in _failed(report) if h != "pinching"]
    assert _failed(report) == ([] if ok.all() else ["pinching"]) + others
    if not ok.all():
        j, witness = int(np.argmin(ok)), report.pinching.first_failure_s
        if j == 0:
            assert witness == s[0]
        else:
            assert s[j - 1] < witness <= s[j] + 1e-6


def test_failing_table_refute_refines_in_few_pinched_calls(monkeypatch):
    s = np.geomspace(0.1, 1e4, 400)
    metric = pl.from_table(s, s ** 0.8)
    real, sizes = pl.metrics.pinched, []

    def counting(metric, radii, epsilon):
        sizes.append(np.size(radii))
        return real(metric, radii, epsilon)

    monkeypatch.setattr(pl.metrics, "pinched", counting)
    report = asymptotics.refute(pl.ExteriorDomain(metric, 1.0), ScenarioConfig(epsilon=0.1))
    witness = report.pinching.first_failure_s
    assert not report.pinching.passed
    assert witness > report.pinching.margin_s[0]  # a failure inside the window, refined
    assert 1 <= len(sizes) <= 6
    assert max(sizes) <= 32
    assert not real(metric, np.array([witness]), 0.1)[0][0]


@pytest.mark.parametrize("kind, epsilon", [("sphere_cap_blend", 0.1), ("power", 0.1),
                                           ("cone", 0.1), ("flat", 1.0 / 3.0)])
def test_check_pinching_evaluates_only_inside_the_witness_bracket(kind, epsilon):
    metric, radii = _recording(pl.build_metric(kind))
    sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 0.5), t_max=5.0)
    series = pl.build_series(sol, n=2001)
    radii.clear()
    report = asymptotics.series_pinching(series, epsilon)
    if report.passed or report.first_failure_s == series.s[0]:
        assert radii == []
        return
    k = int(np.searchsorted(series.s, report.first_failure_s))
    seen = np.concatenate(radii)
    assert np.all((seen > series.s[k - 1]) & (seen < series.s[k]))


# ---------------------------------------------------------------------------
# refutation certificates
# ---------------------------------------------------------------------------

def test_refute_cone():
    report = asymptotics.refute(pl.ExteriorDomain(pl.cone(0.5), 1.0), ScenarioConfig())
    assert not report.pinching.passed
    assert report.growth_pass
    assert report.growth.alpha_fit == pytest.approx(2.0, abs=0.02)
    assert report.boundary.below_threshold
    assert report.boundary.value == pytest.approx(4 * math.pi, abs=1e-9)
    assert report.conclusion.startswith("pinching fails")
    assert report.pinching.first_failure_s is not None


def test_refute_power():
    report = asymptotics.refute(pl.ExteriorDomain(pl.power_law(1.0, 0.8), 1.0),
                                ScenarioConfig())
    assert not report.pinching.passed  # margin tends to zero along the tail
    assert report.growth_pass       # alpha = 1.6 > 4/3
    assert report.boundary.below_threshold
    assert report.conclusion.startswith("pinching fails")


def test_refute_flat_boundary_equality():
    report = asymptotics.refute(pl.ExteriorDomain(pl.flat_space(), 1.0), ScenarioConfig())
    assert report.pinching.passed     # vacuous, R = 0
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


@pytest.mark.parametrize("metric, s0", [(pl.power_law(1.0, 0.8), 1.0), (pl.cone(0.5), 1.0)],
                         ids=["power", "cone"])
def test_judge_combines_the_verdicts_it_is_given(monkeypatch, metric, s0):
    config, domain = ScenarioConfig(epsilon=0.2), pl.ExteriorDomain(metric, s0)
    sol = pl.PotentialSolution(domain, t_max=config.t_max)
    series = pl.build_series(sol, n=config.n_samples)
    pinch, decay = asymptotics.series_pinching(series, 0.2), asymptotics.decay_check(series, 0.2)
    growth = asymptotics.windowed_growth(metric, config.growth_window)

    def forbidden(*args):
        raise AssertionError("judge made a verdict it was given")

    with monkeypatch.context() as patch:
        patch.setattr(asymptotics, "series_pinching", forbidden)
        patch.setattr(asymptotics, "decay_check", forbidden)
        report = asymptotics.judge(sol, series, pinch, decay, growth, config)
    assert report.pinching is pinch
    assert report.to_json_dict() == asymptotics.refute(domain, config).to_json_dict()


@pytest.mark.parametrize("metric, s0", [(pl.power_law(1.0, 0.8), 1.0),
                                        (pl.schwarzschild_slice(1.0), 0.0)],
                         ids=["power", "schwarzschild_horizon"])
def test_refute_defaults_to_scenario_config(metric, s0):
    domain = pl.ExteriorDomain(metric, s0)
    default = asymptotics.refute(domain).to_json_dict()
    explicit = asymptotics.refute(domain, ScenarioConfig()).to_json_dict()
    assert json.dumps(default, sort_keys=True) == json.dumps(explicit, sort_keys=True)


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
    json.dumps(flat_doc)  # must be serializable


def test_refute_json_lists_match_elementwise_reference():
    report = asymptotics.refute(pl.ExteriorDomain(pl.power_law(1.0, 0.8), 1.0), ScenarioConfig())
    eps = report.pinching.margin_eps_star.copy()
    eps[[0, 3, -1]] = [np.inf, -np.inf, np.inf]
    report = dataclasses.replace(report, pinching=dataclasses.replace(report.pinching, margin_eps_star=eps))

    def reference(values):
        return [("inf" if v > 0 else "-inf") if math.isinf(v) else float(v) for v in values]

    doc = report.to_json_dict()
    assert len(report.chain_t) > 0
    lists = {("pinching", "margin_curve", "s"): report.pinching.margin_s,
             ("pinching", "margin_curve", "eps_star"): eps,
             ("chain", "t"): report.chain_t, ("chain", "lhs"): report.chain_lhs,
             ("chain", "rhs"): report.chain_rhs}
    for path, values in lists.items():
        got = doc
        for key in path:
            got = got[key]
        want = reference(values)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
@pytest.mark.parametrize("s0", [0.5, 1.0, 2.0])
def test_refute_soundness(kind, s0):
    metric = pl.build_metric(kind)
    report = asymptotics.refute(pl.ExteriorDomain(metric, s0), ScenarioConfig())
    assert not report.conclusion.startswith("CONTRADICTION")
    assert _failed(report) or report.crossing_t is not None


def test_parametric_kinds_solve_without_scipy(monkeypatch):
    for name in ("scipy", "scipy.interpolate", "scipy.optimize"):
        monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ImportError):
        import scipy.interpolate  # noqa: F401
    for kind in ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend"):
        report = asymptotics.refute(pl.ExteriorDomain(pl.build_metric(kind), 1.0),
                                    ScenarioConfig())
        assert _failed(report) or report.crossing_t is not None, kind
    sol = pl.PotentialSolution(pl.ExteriorDomain(capped_cone(0.5, 0.3), 1.0))
    assert sol.t_max == 8.0


def test_all_kinds_refute_without_scipy(monkeypatch, tmp_path):
    for name in ("scipy", "scipy.interpolate", "scipy.optimize"):
        monkeypatch.setitem(sys.modules, name, None)
    table = tmp_path / "table.csv"
    s = np.geomspace(0.1, 1e4, 400)
    table.write_text("s,f\n" + "".join(f"{a:.17g},{a ** 0.8:.17g}\n" for a in s))
    for kind, params in [(k, {}) for k in ("flat", "cone", "power", "schwarzschild",
                                           "sphere_cap_blend")] + [("user_table", {"path": str(table)})]:
        report = asymptotics.refute(pl.ExteriorDomain(pl.build_metric(kind, params), 1.0),
                                    ScenarioConfig())
        assert not report.conclusion.startswith("CONTRADICTION"), kind
        assert _failed(report) or report.crossing_t is not None, kind


def test_fits_run_without_polyfit(monkeypatch):
    # every line fit is metrics.line_fit, so no numpy least-squares solve runs
    def no_polyfit(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(np, "polyfit", no_polyfit)
    for kind in ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend"):
        report = asymptotics.refute(pl.ExteriorDomain(pl.build_metric(kind), 1.0), ScenarioConfig())
        assert not report.conclusion.startswith("CONTRADICTION"), kind
    s = np.geomspace(0.1, 1e4, 400)
    assert pl.from_table(s, s**0.8).tail_exponent == pytest.approx(0.8, rel=1e-12)
    _, code = run_verify(ScenarioConfig(suite="all"), stream=io.StringIO())
    assert code == 0
