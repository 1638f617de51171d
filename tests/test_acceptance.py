"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  All tolerances are fixed here; nothing is calibrated at runtime.
The catalog bundles (boundary at s0 = 1, levels t in [0, 5], grid spacing
2.5e-4) come from the shared session fixture.
"""

import math

import numpy as np
import pytest

import pinchlab as pl
from pinchlab import asymptotics
from pinchlab.config import ScenarioConfig
from pinchlab.functionals import FOUR_PI, SIXTEEN_PI

CATALOG_NAMES = ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend")


def _report(num, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {verdict}: {description}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def test_criterion_01_flat_baseline(catalog_bundle, solve_cache):
    _, sol, series = catalog_bundle["flat"]
    dev_F = np.abs(series.F - FOUR_PI).max()
    dev_G = np.abs(series.G - FOUR_PI).max()
    dev_W = np.abs(series.willmore - SIXTEEN_PI).max()
    dev_ncap = max(abs(solve_cache("flat", s0, t_max=1.0).ncap - s0)
                   for s0 in (0.5, 1.0, 2.0))
    ok = dev_F < 1e-7 and dev_G < 1e-7 and dev_W < 1e-7 and dev_ncap < 1e-8
    _report(1, "flat baseline: F = G = 4pi, willmore = 16pi, ncap = s0", ok,
            f"dev F={dev_F:.2e} G={dev_G:.2e} W={dev_W:.2e} ncap={dev_ncap:.2e}")


def test_criterion_02_cone(catalog_bundle, solve_cache):
    _, sol, series = catalog_bundle["cone"]
    dev_F = np.abs(series.F - math.pi).max()
    dev_G = np.abs(series.G - math.pi).max()
    dev_W = np.abs(series.willmore - 4 * math.pi).max()
    dev_ncap = max(abs(solve_cache("cone", s0, t_max=1.0).ncap - 0.25 * s0)
                   for s0 in (0.5, 1.0, 2.0))
    dev_dF = np.abs(series.dF_explicit).max()
    ok = (dev_F < 1e-7 and dev_G < 1e-7 and dev_W < 1e-7
          and dev_ncap < 1e-7 and dev_dF < 1e-9)
    _report(2, "cone a=0.5: F = G = pi, willmore = 4pi, ncap = a^2 s0, dF = 0", ok,
            f"dev F={dev_F:.2e} ncap={dev_ncap:.2e} dF={dev_dF:.2e}")


def test_criterion_03_power_closed_forms(catalog_bundle):
    _, sol, series = catalog_bundle["power"]
    F_exact = 2.4 * math.pi * np.exp(-2.0 * series.t / 3.0)
    G_exact = 1.44 * math.pi * np.exp(-2.0 * series.t / 3.0)
    rel_F = np.abs(series.F / F_exact - 1).max()
    rel_G = np.abs(series.G / G_exact - 1).max()
    g_ode = pl.check_G_ode(series)
    dev_dF0 = abs(series.dF_explicit[0] + 1.6 * math.pi)
    ok = rel_F < 1e-6 and rel_G < 1e-6 and g_ode < 1e-5 and dev_dF0 < 1e-6
    _report(3, "power beta=0.8: F, G decay like e^{-2t/3}; G' = G - F; dF(0) = -1.6pi",
            ok, f"relF={rel_F:.2e} relG={rel_G:.2e} Gode={g_ode:.2e} dF0={dev_dF0:.2e}")


def test_criterion_04_capacity_scaling(catalog_bundle):
    grid = np.linspace(0.0, 5.0, 41)
    devs = {name: pl.capacity_scaling_check(sol, pl.sample_at(sol, grid))
            for name, (metric, sol, series) in catalog_bundle.items()}
    worst = max(devs.values())
    _report(4, "capacity of level sets scales as e^t on all catalog metrics",
            worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_05_schwarzschild(solve_cache):
    metric = pl.build_metric("schwarzschild")
    scalar = pl.curvature_at(metric, np.linspace(0.0, 100.0, 500)).scalar
    dev_R = float(np.abs(scalar).max())
    sol = solve_cache("schwarzschild", 0.0, t_max=3.0)
    dev_ncap = abs(sol.ncap - 1.0)
    dev_F0 = abs(pl.sample_at(sol, 0.0).F + math.pi)
    ok = dev_R < 1e-8 and dev_ncap < 1e-6 and dev_F0 < 1e-6
    _report(5, "schwarzschild m=1: R = 0 along profile, horizon ncap = 1, F(0) = -pi",
            ok, f"R={dev_R:.2e} ncap={dev_ncap:.2e} F0={dev_F0:.2e}")


def test_criterion_06_explicit_derivative(catalog_bundle):
    worst = {}
    for name, (metric, sol, series) in catalog_bundle.items():
        report = pl.check_monotonicity(series)
        worst[name] = report.max_derivative_error
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    _report(6, "finite-difference dF matches the explicit derivative (1e-4 relative)",
            not bad, f"worst={max(worst.values()):.2e}")


def test_criterion_07_functional_bounds(catalog_bundle):
    viol_flux = 0
    viol_G = 0
    for name, (metric, sol, series) in catalog_bundle.items():
        viol_flux += int(np.sum(series.F - series.willmore / 4 > 1e-9))
        if bool(np.all(series.ric_ok)):  # Ric >= 0 at every level radius
            viol_G += int(np.sum(series.G < -1e-9))
            viol_G += int(np.sum(series.G - series.F > 1e-9))
    ok = viol_flux == 0 and viol_G == 0
    _report(7, "F <= willmore/4 everywhere; 0 <= G <= F under Ric >= 0", ok,
            f"violations flux={viol_flux} G={viol_G}")


def test_criterion_08_pinched_sphere_inequality(solve_cache):
    sol = solve_cache("sphere_cap_blend", 0.2)
    worst_ratio = 0.0
    ok = True
    for s_level in (0.3, 0.5, 0.8):
        t = float(sol.w(s_level))
        res = pl.genus_zero_inequality_check(sol, t, 1.0 / 3.0)
        ok = ok and res.hypothesis_met and bool(res.passed)
        ok = ok and abs(res.lhs - SIXTEEN_PI * math.sin(s_level) ** 2) < 1e-6
        worst_ratio = max(worst_ratio, abs(res.lhs / res.rhs - 3.0))
    ok = ok and worst_ratio < 1e-6
    _report(8, "pinched-sphere inequality on the round cap: lhs/rhs = 3.000", ok,
            f"max |ratio - 3| = {worst_ratio:.2e}")


def test_criterion_09_small_sphere_willmore(solve_cache):
    values = []
    worst = 0.0
    below = True
    for s0 in (0.05, 0.1, 0.2):
        bw = pl.boundary_willmore(solve_cache("sphere_cap_blend", s0, t_max=1.0))
        worst = max(worst, abs(bw.value - SIXTEEN_PI * math.cos(s0) ** 2))
        below = below and bw.below_threshold
        values.append(bw.value)
    increasing = values[0] > values[1] > values[2]
    ok = worst < 1e-7 and below and increasing
    _report(9, "small boundary spheres: willmore = 16pi cos^2(s0) < 16pi, rising to 16pi",
            ok, f"max dev={worst:.2e}")


def test_criterion_10_potential_decay_exponents(solve_cache):
    worst = 0.0
    for beta in (0.7, 0.8, 0.9, 1.0):
        sol = solve_cache("power", 1.0, t_max=2.0, beta=beta)
        slope = asymptotics.li_yau_fit(sol, 10.0, 1000.0)
        worst = max(worst, abs(slope / (1.0 - 2.0 * beta) - 1.0))
    _report(10, "potential decay exponent equals 1 - 2 beta within 2%",
            worst < 0.02, f"worst rel dev={worst:.2e}")


def test_criterion_11_coarea_and_holder(catalog_bundle):
    grid = np.linspace(0.1, 4.5, 20)  # at the series levels nearest it
    worst_co = max(asymptotics.coarea_check(series, np.rint(grid / series.dt).astype(int))
                   for _, _, series in catalog_bundle.values())
    grid2 = np.linspace(0.0, 5.0, 21)
    worst_ho = max(asymptotics.holder_chain_check(sol, pl.sample_at(sol, grid2))
                   for _, sol, _ in catalog_bundle.values())
    ok = worst_co <= 1e-4 and worst_ho <= 1e-6
    _report(11, "coarea residual <= 1e-4 and Hoelder saturation <= 1e-6 on the catalog",
            ok, f"coarea={worst_co:.2e} holder={worst_ho:.2e}")


def test_criterion_12_refutation_soundness():
    cfg = ScenarioConfig()
    ok = True
    details = []
    for name in CATALOG_NAMES:
        metric = pl.build_metric(name)
        for s0 in (0.5, 1.0, 2.0):
            rep = asymptotics.refute(pl.ExteriorDomain(metric, s0), cfg)
            if rep.conclusion.startswith("CONTRADICTION"):
                ok = False
                details.append(f"{name}/s0={s0}: contradiction")
            if name in ("cone", "power"):
                if not rep.conclusion.startswith("pinching fails"):
                    ok = False
                    details.append(f"{name}/s0={s0}: {rep.conclusion[:40]}")
                witness = rep.pinching.first_failure_s
                if witness is None or not math.isfinite(witness):
                    ok = False
                    details.append(f"{name}/s0={s0}: no witness")
            if name == "flat":
                if not rep.conclusion.startswith("boundary condition fails"):
                    ok = False
                    details.append(f"flat/s0={s0}: {rep.conclusion[:40]}")
                if abs(rep.boundary.value - SIXTEEN_PI) > 1e-9:
                    ok = False
                    details.append(f"flat/s0={s0}: boundary {rep.boundary.value}")
    _report(12, "refutation is sound on the catalog (never fully consistent)", ok,
            "; ".join(details) if details else "15 scenarios")
