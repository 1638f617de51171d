import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinchlab as pl
import pinchlab.asymptotics as asymptotics
import pinchlab.cli as cli
import pinchlab.functionals as functionals
import pinchlab.metrics as metrics
import pinchlab.potential as potential
from pinchlab.config import SUITES, ScenarioConfig
from pinchlab.errors import UsageError
from pinchlab.verify import Check, SuiteResult, _run_check, run_verify

from test_asymptotics import closing_scenario_past_the_float_range
from test_golden import golden
from test_metrics import _per_series
from test_potential import RIPPLE_F, RIPPLE_S


def _no_bare_constant(name):
    raise AssertionError(f"a written JSON file holds a bare {name}")


def read_json(path):
    """A JSON file the CLI wrote; a bare Infinity, -Infinity or NaN, which is not JSON, fails the test."""
    return json.loads(path.read_text(), parse_constant=_no_bare_constant)


def counting_builds(monkeypatch, cls=potential.PotentialSolution):
    """A list that gains an entry at each construction of ``cls``, by default a PotentialSolution."""
    builds, init = [], cls.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return builds


def counting_verdicts(monkeypatch):
    """Lists that gain an entry at each ``series_pinching`` and ``decay_check`` call."""
    calls = {"series_pinching": [], "decay_check": []}
    for name, seen in calls.items():
        real = getattr(asymptotics, name)
        monkeypatch.setattr(asymptotics, name, lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    return calls


def read_csv_column(path, column):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index(column)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_lists_six_kinds(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "6 metric kinds" in out
    for kind in ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend", "user_table"):
        assert kind in out


def test_catalog_json_schema(capsys):
    assert cli.main(["catalog", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["kinds"]) == 6
    assert doc["kinds"]["power"]["params"]["beta"]["default"] == 0.8


_CATALOG_TEXT = """\
6 metric kinds:
  flat               Euclidean space, f(s) = s
  cone               metric cone f(s) = a*s (Ric >= 0, zero pinching margin)
      a                default=0.5      opening slope in (0, 1]
  power              power-law warp f(s) = c*s^beta
      c                default=1.0      tail coefficient > 0
      beta             default=0.8      tail exponent; potential solver needs (1/2, 1]
  schwarzschild      spatial Schwarzschild slice of mass m, arclength from the horizon
      m                default=1.0      mass > 0
  sphere_cap_blend   round cap f = sin(s) blended C^2 into a straight cone
      s_cap            default=1.0      cap radius in (0, pi/2)
      blend_width      default=0.5      width of the C^2 transition
  user_table         tabulated profile from a CSV with header s,f (quintic spline)
      path             default=None     CSV file with columns s,f
      tail_coefficient default=None     override fitted tail coefficient
      tail_exponent    default=None     override fitted tail exponent
"""

_CATALOG_JSON = {"kinds": {
    "cone": {"description": "metric cone f(s) = a*s (Ric >= 0, zero pinching margin)",
             "params": {"a": {"default": 0.5, "doc": "opening slope in (0, 1]"}}},
    "flat": {"description": "Euclidean space, f(s) = s", "params": {}},
    "power": {"description": "power-law warp f(s) = c*s^beta",
              "params": {"beta": {"default": 0.8, "doc": "tail exponent; potential solver needs (1/2, 1]"},
                         "c": {"default": 1.0, "doc": "tail coefficient > 0"}}},
    "schwarzschild": {"description": "spatial Schwarzschild slice of mass m, arclength from the horizon",
                      "params": {"m": {"default": 1.0, "doc": "mass > 0"}}},
    "sphere_cap_blend": {"description": "round cap f = sin(s) blended C^2 into a straight cone",
                         "params": {"blend_width": {"default": 0.5, "doc": "width of the C^2 transition"},
                                    "s_cap": {"default": 1.0, "doc": "cap radius in (0, pi/2)"}}},
    "user_table": {"description": "tabulated profile from a CSV with header s,f (quintic spline)",
                   "params": {"path": {"default": None, "doc": "CSV file with columns s,f"},
                              "tail_coefficient": {"default": None, "doc": "override fitted tail coefficient"},
                              "tail_exponent": {"default": None, "doc": "override fitted tail exponent"}}},
}}


def test_catalog_output_is_pinned(capsys):
    # the whole text and JSON documents, so that a change to the catalog's rules cannot move them
    assert cli.main(["catalog"]) == 0
    assert capsys.readouterr().out == _CATALOG_TEXT
    assert cli.main(["catalog", "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(_CATALOG_JSON, indent=2, sort_keys=True) + "\n"


def test_unknown_kind_is_usage_error(capsys):
    code = cli.main(["solve", "--kind", "saddle"])
    assert code == 64
    err = capsys.readouterr().err
    assert "saddle" in err and "flat" in err  # names the valid kinds


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_flat_writes_constant_series(tmp_path, capsys):
    code = cli.main(["solve", "--kind", "flat", "--s0", "1", "--t-max", "5",
                     "--n-samples", "501", "--out-dir", str(tmp_path)])
    assert code == 0
    F = read_csv_column(tmp_path / "series.csv", "F")
    assert np.abs(F - 4 * math.pi).max() < 1e-7
    summary = read_json(tmp_path / "summary.json")
    assert summary["ncap"] == pytest.approx(1.0, abs=1e-8)
    assert summary["alpha_fit"] == pytest.approx(2.0, abs=0.01)
    assert summary["config"]["metric_kind"] == "flat"


def test_solve_nonparabolic_exits_2(tmp_path, capsys):
    code = cli.main(["solve", "--kind", "power", "--param", "beta=0.4",
                     "--out-dir", str(tmp_path)])
    assert code == 2
    assert "1/2" in capsys.readouterr().err


def test_solve_schwarzschild_summary(tmp_path, capsys):
    code = cli.main(["solve", "--kind", "schwarzschild", "--s0", "0", "--t-max", "3",
                     "--n-samples", "101", "--out-dir", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["ncap"] == pytest.approx(1.0, abs=1e-6)


def test_solve_deterministic_bytes(tmp_path):
    argv = ["solve", "--kind", "power", "--s0", "1", "--t-max", "4",
            "--n-samples", "201", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    first_csv = (tmp_path / "series.csv").read_bytes()
    first_json = (tmp_path / "summary.json").read_bytes()
    assert cli.main(argv) == 0
    assert (tmp_path / "series.csv").read_bytes() == first_csv
    assert (tmp_path / "summary.json").read_bytes() == first_json


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_identities_full_catalog(capsys):
    code = cli.main(["verify", "--suite", "identities", "--t-max", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out
    n_checks = sum(1 for line in out.splitlines() if line.startswith(("PASS", "FAIL")))
    assert n_checks >= 25


def test_verify_single_metric(capsys):
    code = cli.main(["verify", "--suite", "monotonicity", "--kind", "power", "--t-max", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "power/F_monotone" in out


def test_verify_table_ending_below_t_max(tmp_path, capsys):
    # the levels stop at the last row (t ~ 2.35 here); the checks must too
    s = np.geomspace(0.5, 50.0, 400)
    path = tmp_path / "table.csv"
    path.write_text("s,f\n" + "".join(f"{a:.17g},{a ** 0.8:.17g}\n" for a in s.tolist()))
    code = cli.main(["verify", "--kind", "user_table", "--param", f"path={path}"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 failed" in out


@pytest.mark.parametrize("s0", ["0.5", "0.6", "0.9"])
def test_verify_table_boundary_near_first_row(tmp_path, capsys, s0):
    # the curvature grid starts at half the boundary radius, below the
    # table's first row here; it must start at the row instead
    s = np.geomspace(0.5, 5e4, 400)
    path = tmp_path / "table.csv"
    path.write_text("s,f\n" + "".join(f"{a:.17g},{a ** 0.8:.17g}\n" for a in s.tolist()))
    code = cli.main(["verify", "--kind", "user_table", "--param", f"path={path}", "--s0", s0])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "17 checks, 0 failed" in out


def test_verify_json_out_has_no_runtimes(tmp_path, capsys):
    path = tmp_path / "results.json"
    code = cli.main(["verify", "--suite", "identities", "--kind", "cone",
                     "--t-max", "5", "--json-out", str(path)])
    assert code == 0
    doc = read_json(path)
    assert len(doc) >= 6
    assert all("runtime" not in entry for entry in doc)
    assert all(entry["status"] == "PASS" for entry in doc)


@pytest.mark.parametrize("row", [SuiteResult("flat/coarea", "PASS", 1e-12, 1e-4, 0.5, "worst sub-check: coarea"),
                                 SuiteResult("cone/decay_estimate", "SKIP", None, None, 0.25)],
                         ids=["pass-with-note", "skip"])
def test_verify_json_row_is_its_fields_without_the_runtime(row):
    want = {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}
    del want["runtime_s"]
    assert list(row.to_json_dict().items()) == list(want.items())


def test_verify_names_a_nan_sub_check():
    check = Check("identities", "synthetic", lambda: {"a": 1e-9, "b": math.nan}, {"a": 1e-6, "b": 1e-6})
    res = _run_check("synthetic", check)
    assert res.status == "FAIL"
    assert math.isnan(res.measured)
    assert res.note == "worst sub-check: b"


# inputs whose Hoelder products leave the float range, and power laws near beta = 1/2 whose
# level radii pass 1e100 (exit 0); inputs whose ball volumes overflow near the coarea levels,
# whose |grad w|^2 underflows at the identity levels, or whose horizon curvature, of order
# 1/m^2, passes the float range (exit 2, naming the cause)
_OVERFLOW = "ball volumes overflow"
_SCALE_INPUTS = [(["--kind", "power", "--param", f"c={c}"], 0, "") for c in ("1e52", "1e100", "1e120", "1e140")] + [
    (["--kind", "schwarzschild", "--param", "m=1e100"], 0, "")] + [
    (["--kind", "cone", "--param", f"a={a}"], 0, "") for a in ("1e-60", "1e-100", "1e-150")] + [
    (["--kind", "power", "--param", f"c={c}"], 0, "") for c in ("1e-80", "1e-100", "1e-150")] + [
    (["--kind", "power", "--param", f"beta={b}"], 0, "") for b in ("0.51", "0.515", "0.52")] + [
    (["--s0", "1e104"], 2, _OVERFLOW), (["--kind", "schwarzschild", "--param", "m=1e120"], 2, _OVERFLOW),
    (["--kind", "power", "--param", "c=1e150"], 2, _OVERFLOW),
    (["--kind", "power", "--param", "beta=0.505"], 2, "|grad w|^2 underflows")] + [
    (["--kind", "schwarzschild", "--param", f"m={m}"], 2, "horizon curvature") for m in ("1e-160", "1e-300")]


@pytest.mark.parametrize("args, want, cause", _SCALE_INPUTS, ids=[" ".join(a) for a, _, _ in _SCALE_INPUTS])
def test_verify_integral_checks_at_extreme_scales(capsys, args, want, cause):
    code = cli.main(["verify", *args])
    out, err = capsys.readouterr()
    assert code == want, out + err
    if want == 0:
        assert "0 failed" in out
    else:
        assert cause in err


def test_verify_fault_injection_flips_ric_rad(monkeypatch, capsys):
    # corrupting the curvature assembly must be caught and named
    true_curvature = metrics._curvature

    def corrupted(f, df, d2f):
        k_rad, k_tan, ric_rad, ric_tan, scalar = true_curvature(f, df, d2f)
        return k_rad, k_tan, -ric_rad, ric_tan, scalar

    monkeypatch.setattr(metrics, "_curvature", corrupted)
    code = cli.main(["verify", "--suite", "identities", "--kind", "power", "--t-max", "2"])
    out = capsys.readouterr().out
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert any("trace_identity" in line for line in failing)


def test_verify_decay_and_chain_suites(capsys):
    code = cli.main(["verify", "--suite", "chain", "--kind", "cone", "--t-max", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pinching fails" in out


def test_verify_chain_judges_the_scenario_it_solved(capsys):
    # the level t=8 of beta=0.505 lies past s=1e300; the scenario ends at t=5 and is judged there
    code = cli.main(["verify", "--suite", "chain", "--kind", "power", "--param", "beta=0.505"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "power/refutation_soundness" in out and "growth fails" in out


def test_verify_chain_solves_each_scenario_once(monkeypatch):
    solves, integrators = counting_builds(monkeypatch), counting_builds(monkeypatch, potential.TailIntegrator)
    _, code = run_verify(ScenarioConfig(suite="chain"), stream=io.StringIO())
    assert code == 0
    assert len(solves) == 5  # the 5 catalog scenarios; the 2 Li-Yau fits solve nothing
    assert len(integrators) == 7  # one per solve and one per Li-Yau fit


def test_verify_makes_each_verdict_once_per_scenario(monkeypatch):
    calls = counting_verdicts(monkeypatch)
    _, code = run_verify(ScenarioConfig(suite="all"), stream=io.StringIO())
    assert code == 0
    assert {name: len(seen) for name, seen in calls.items()} == {"series_pinching": 5, "decay_check": 5}


def test_verify_samples_each_scenario_series_at_the_suite_spacing(monkeypatch):
    levels, build = [], asymptotics.build_series
    monkeypatch.setattr(asymptotics, "build_series", lambda sol, n: levels.append(n) or build(sol, n=n))
    _, code = run_verify(ScenarioConfig(suite="all"), stream=io.StringIO())
    assert code == 0
    assert levels == [5001] * 5  # t_max 5 at SUITE_DT = 1e-3


def test_verify_identity_rows_read_the_scenario_series(monkeypatch):
    maps, samples = [], []
    sample_at, level_map = functionals.sample_at, potential.PotentialSolution._level_map
    for module in (functionals, asymptotics):  # sample_at and any copy a module imported
        if getattr(module, "sample_at", None) is sample_at:
            monkeypatch.setattr(module, "sample_at", lambda *args: samples.append(args) or sample_at(*args))
    monkeypatch.setattr(potential.PotentialSolution, "_level_map",
                        lambda self, t: maps.append(t) or level_map(self, t))
    _, code = run_verify(ScenarioConfig(suite="all"), stream=io.StringIO())
    assert code == 0
    # per scenario: the solve's harmonic self-check, build_series and level_roundtrip's inverse map
    assert (len(maps), len(samples)) == (15, 0)


@pytest.mark.parametrize("s0", [0.5, 1.0, 3.0])
def test_verify_series_rows_keep_their_headroom(s0):
    results, code = run_verify(ScenarioConfig(suite="identities", s0=s0), stream=io.StringIO())
    assert code == 0
    rows = [r for r in results if r.name.split("/")[1] in ("capacity_scaling", "integral_geometry", "level_roundtrip")]
    assert len(rows) == 15
    for row in rows:
        assert row.measured <= row.tolerance / 100, row.line()


# ---------------------------------------------------------------------------
# refute
# ---------------------------------------------------------------------------

def test_refute_cone_certificate(tmp_path, capsys):
    code = cli.main(["refute", "--kind", "cone", "--param", "a=0.5", "--s0", "1",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    assert "pinching fails" in capsys.readouterr().out
    doc = read_json(tmp_path / "refutation.json")
    for key in ("pinching", "growth", "boundary_willmore", "chain", "conclusion"):
        assert key in doc
    assert doc["pinching"]["pass"] is False
    assert doc["growth"]["pass"] is True
    assert doc["boundary_willmore"]["value"] == pytest.approx(4 * math.pi)


def test_refute_exits_1_on_a_contradiction(tmp_path, monkeypatch, capsys):
    closing_scenario_past_the_float_range(monkeypatch)
    argv = ["refute", "--kind", "power", "--param", "beta=0.9", "--epsilon", "1e-3", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "CONTRADICTION - inconsistent inputs" in capsys.readouterr().out
    assert read_json(tmp_path / "refutation.json")["conclusion"] == "CONTRADICTION - inconsistent inputs"


@pytest.mark.parametrize("command", ["solve", "refute"])
def test_solve_and_refute_build_one_scenario(tmp_path, monkeypatch, command):
    solves, fits, growth_fit = counting_builds(monkeypatch), [], asymptotics.growth_fit
    monkeypatch.setattr(asymptotics, "growth_fit", lambda *args: fits.append(args) or growth_fit(*args))
    assert cli.main([command, "--kind", "power", "--out-dir", str(tmp_path)]) == 0
    assert (len(solves), len(fits)) == (1, 1)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_grid_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "t_max": 4.0, "n_samples": 501, "out_dir": str(tmp_path),
        "sweep": {"kind": ["flat", "cone"], "s0": [0.5, 1.0]},
    }))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    csv_bytes = (tmp_path / "sweep.csv").read_bytes()
    json_bytes = (tmp_path / "sweep.json").read_bytes()
    rows = csv_bytes.decode().splitlines()
    assert len(rows) == 5  # header + 4 scenarios
    assert rows[1].startswith("flat,0.5")
    docs = json.loads(json_bytes, parse_constant=_no_bare_constant)
    assert [d["scenario"]["kind"] for d in docs] == ["flat", "flat", "cone", "cone"]
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == csv_bytes
    assert (tmp_path / "sweep.json").read_bytes() == json_bytes


def test_sweep_solves_each_kind_and_s0_once(tmp_path, monkeypatch):
    solves, fits, growth_fit = counting_builds(monkeypatch), [], asymptotics.growth_fit
    monkeypatch.setattr(asymptotics, "growth_fit", lambda *args: fits.append(args) or growth_fit(*args))
    verdicts = counting_verdicts(monkeypatch)
    sweep = {"kind": ["cone", "power"], "s0": [0.5, 2.0], "epsilon": [0.05, 0.2, 1.0 / 3.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_max": 4.0, "n_samples": 501, "out_dir": str(tmp_path), "sweep": sweep}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    assert (len(solves), len(fits)) == (4, 2)
    # one pinching report and one decay fit per (kind, s0, epsilon), each at its epsilon
    assert [args[1] for args in verdicts["series_pinching"]] == sweep["epsilon"] * 4
    assert [args[1] for args in verdicts["decay_check"]] == sweep["epsilon"] * 4
    docs = read_json(tmp_path / "sweep.json")
    grid = [(kind, s0, eps) for kind in sweep["kind"] for s0 in sweep["s0"] for eps in sweep["epsilon"]]
    assert [(d["scenario"]["kind"], d["scenario"]["s0"], d["scenario"]["epsilon"]) for d in docs] == grid
    for doc, (kind, s0, eps) in zip(docs, grid):
        cfg = ScenarioConfig(metric_kind=kind, s0=s0, epsilon=eps, t_max=4.0, n_samples=501)
        report = asymptotics.refute(potential.ExteriorDomain(metrics.build_metric(kind), s0), cfg)
        assert {k: v for k, v in doc.items() if k != "scenario"} == json.loads(json.dumps(report.to_json_dict()))


@pytest.mark.parametrize("sweep, named", [
    ({"kind": ["flat", "cone"], "s0": [-1.0], "epsilon": [0.1, 0.5]}, "epsilon must lie in (0, 1/3], got 0.5"),
    ({"kind": ["flat", "nosuch"]}, "unknown metric kind 'nosuch'"),
])
def test_sweep_checks_the_whole_grid_before_the_first_solve(tmp_path, monkeypatch, capsys, sweep, named):
    solves = counting_builds(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp_path), "sweep": sweep}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 64
    assert named in capsys.readouterr().err
    assert solves == []


def test_sweep_non_finite_axis_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp_path),
                                    "sweep": {"kind": ["flat"], "s0": [1.0, math.nan]}}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 64
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("axis,value", [("s0", 3), ("epsilon", 0.1), ("kind", "flat")])
def test_sweep_axis_that_is_not_a_list_is_usage_error(tmp_path, capsys, axis, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp_path), "sweep": {axis: value}}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 64
    err = capsys.readouterr().err
    assert f"sweep axis '{axis}' must be a list" in err
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_without_section_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_max": 4.0}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 64


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tmax": 4.0}))
    assert cli.main(["solve", "--config", str(cfg_path)]) == 64


@pytest.mark.parametrize("flags", [
    ["--t-max", "nan"], ["--t-max", "inf"], ["--s0", "nan"], ["--s0", "inf"],
    ["--epsilon", "nan"], ["--param", "beta=nan"], ["--param", "c=inf"],
    ["--kind", "schwarzschild", "--param", "m=inf"],
    ["--kind", "sphere_cap_blend", "--param", "blend_width=nan"],
])
def test_non_finite_input_is_usage_error(tmp_path, capsys, flags):
    argv = ["refute", "--kind", "power", "--out-dir", str(tmp_path)] + flags
    assert cli.main(argv) == 64
    assert "usage error" in capsys.readouterr().err


def test_config_epsilon_range_enforced():
    assert cli.main(["refute", "--kind", "cone", "--epsilon", "0.5"]) == 64
    with pytest.raises(UsageError):
        ScenarioConfig(epsilon=0.4).validate()
    ScenarioConfig(epsilon=1.0 / 3.0).validate()


def test_cli_flags_override_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "metric": {"kind": "cone", "params": {"a": 0.5}},
        "s0": 2.0, "t_max": 3.0, "n_samples": 101,
    }))
    code = cli.main(["solve", "--config", str(cfg_path), "--s0", "1.0",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["config"]["s0"] == 1.0
    assert summary["config"]["metric_kind"] == "cone"
    assert summary["ncap"] == pytest.approx(0.25, rel=1e-8)


@pytest.mark.parametrize("key, value, message", [
    ("epsilon", 5.0, "epsilon must lie in (0, 1/3], got 5.0"),
    ("chain_points", 1_500_000, "chain_points must lie in [2, 1000000], got 1500000"),
    ("chain_points", math.nan, "chain_points must be a whole number, got nan"),
    ("n_samples", 2, "n_samples must lie in [3, 1000000], got 2"),
    ("suite", "x", f"unknown suite 'x'; valid: {', '.join(SUITES)}"),
], ids=["epsilon", "chain_points", "chain_points_nan", "n_samples", "suite"])
def test_config_out_of_range_is_usage_error_at_construction(tmp_path, monkeypatch, capsys, key, value, message):
    with pytest.raises(UsageError) as exc:
        ScenarioConfig(**{key: value})
    assert str(exc.value) == message
    monkeypatch.chdir(tmp_path)  # the CLI says the same of a file that holds the value
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert cli.main(["refute", "--config", "cfg.json"]) == 64
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("key, value, message", [
    ("n_samples", 100.5, "n_samples must be a whole number, got {!r}"),
    ("chain_points", 20.5, "chain_points must be a whole number, got {!r}"),
    ("s0", "abc", "s0 must be a number, got {!r}"),
    ("s0", True, "s0 must be a number, got {!r}"),
    ("growth_window", (1.0,), "growth_window must be [r_lo, r_hi], got {!r}"),
    ("out_dir", 3, "out_dir must be a string, got {!r}"),
    ("epsilon", None, "epsilon must be a number, got {!r}"),
], ids=["n_samples_fraction", "chain_points_fraction", "s0_text", "s0_bool", "growth_window_short",
        "out_dir_number", "epsilon_none"])
def test_config_of_the_wrong_type_is_usage_error_at_construction(tmp_path, monkeypatch, capsys, key, value, message):
    for build in (lambda: ScenarioConfig(**{key: value}),
                  lambda: dataclasses.replace(ScenarioConfig(), **{key: value})):
        with pytest.raises(UsageError) as exc:
            build()
        assert str(exc.value) == message.format(value)
    monkeypatch.chdir(tmp_path)  # a file holding the value (a tuple as a list) gets the same message
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert cli.main(["refute", "--config", "cfg.json"]) == 64
    assert capsys.readouterr().err == f"usage error: {message.format(json.loads(json.dumps(value)))}\n"


def test_config_file_is_checked_before_flags_override_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"epsilon": 0.9}))
    assert cli.main(["refute", "--config", "cfg.json", "--epsilon", "0.2"]) == 64
    assert capsys.readouterr().err == "usage error: epsilon must lie in (0, 1/3], got 0.9\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("s0s, epsilons, named", [([1.0], [0.9], "epsilon must lie in (0, 1/3], got 0.9"),
                                                  ([1.0, math.nan], [0.1], "s0 must be finite, got nan"),
                                                  ([1.0], [None], "epsilon must be a number, got None")],
                         ids=["epsilon", "s0", "epsilon_none"])
def test_library_sweep_checks_its_grid_before_the_first_solve(monkeypatch, s0s, epsilons, named):
    solves = counting_builds(monkeypatch)
    with pytest.raises(UsageError, match=re.escape(named)):
        pl.sweep([pl.flat_space()], s0s, epsilons, ScenarioConfig())
    assert solves == []


@pytest.mark.parametrize("axis", [0, 1])
def test_library_sweep_reads_a_generator_axis_as_the_list_it_yields(axis):
    # profiles, then s0 values, given once as a list and once as a generator
    axes = [[pl.flat_space()], [1.0, 2.0], [0.1]]
    want = [json.dumps(r.to_json_dict()) for r in pl.sweep(*axes, ScenarioConfig(t_max=1.0))]
    axes[axis] = (item for item in axes[axis])
    assert [json.dumps(r.to_json_dict()) for r in pl.sweep(*axes, ScenarioConfig(t_max=1.0))] == want


def _flat_solution():
    return pl.PotentialSolution(pl.ExteriorDomain(pl.flat_space(), 1.0), t_max=1.0)


def _flat_series():
    return pl.build_series(_flat_solution(), n=21)


def _check_pinching_at(epsilon):
    series = _flat_series()
    return pl.check_pinching(series.metric, epsilon, series.s, series.eps_star)


#: (call, the text that names its bad value) of each probe of the library boundary
_BAD_LIBRARY_VALUES = {
    "power_c_text": (lambda: pl.power_law("a", 0.8), "'a'"),
    "power_beta_none": (lambda: pl.power_law(1, None), "None"),
    "power_beta_past_float_range": (lambda: pl.power_law(1, 10**400), str(10**400)),
    "cone_past_float_range": (lambda: pl.cone(2**1024), str(2**1024)),
    "cone_bool": (lambda: pl.cone(True), "True"),
    "schwarzschild_text": (lambda: pl.schwarzschild_slice("1"), "'1'"),
    "blend_text": (lambda: pl.sphere_cap_blend("1", 0.5), "'1'"),
    "build_metric_params_list": (lambda: pl.build_metric("power", [1]), "[1]"),
    "refute_params_list": (lambda: cli.cmd_refute(ScenarioConfig(metric_params=[1])), "[1]"),
    "domain_s0_text": (lambda: pl.ExteriorDomain(pl.flat_space(), "x"), "'x'"),
    "scenario_s0_text": (lambda: asymptotics.Scenario(pl.flat_space(), "x", ScenarioConfig()), "'x'"),
    "solution_t_max_text": (lambda: pl.PotentialSolution(pl.ExteriorDomain(pl.flat_space(), 1.0), t_max="8"),
                            "'8'"),
    "config_kind_number": (lambda: ScenarioConfig(metric_kind=3), "3"),
    "config_kind_unknown": (lambda: ScenarioConfig(metric_kind="nosuch"), "'nosuch'"),
    "config_params_none": (lambda: ScenarioConfig(metric_params=None), "None"),
    "config_params_unknown": (lambda: ScenarioConfig(metric_params={"zz": 1}), "zz"),
    "sweep_profile_name": (lambda: pl.sweep(["flat"], [1.0], [0.1], ScenarioConfig()), "['flat']"),
    "sweep_no_s0": (lambda: pl.sweep([pl.flat_space()], [], [0.1], ScenarioConfig()), "[]"),
    "sweep_no_epsilon": (lambda: pl.sweep([pl.flat_space()], [1.0], [], ScenarioConfig()), "[]"),
    "check_pinching_epsilon_text": (lambda: _check_pinching_at("0.1"), "'0.1'"),
    "series_pinching_epsilon_text": (lambda: pl.series_pinching(_flat_series(), "0.1"), "'0.1'"),
    "decay_check_epsilon_none": (lambda: pl.decay_check(_flat_series(), None), "None"),
    "growth_fit_window_text": (lambda: pl.growth_fit(pl.flat_space(), "a", 10.0), "'a'"),
    "li_yau_fit_window_text": (lambda: pl.li_yau_fit(pl.ExteriorDomain(pl.flat_space(), 1.0), "a", 10.0), "'a'"),
    "volume_ball_radius_text": (lambda: pl.volume_ball(pl.flat_space(), "a"), "'a'"),
    "sample_at_level_text": (lambda: pl.sample_at(_flat_solution(), "x"), "'x'"),
    "build_series_n_text": (lambda: pl.build_series(_flat_solution(), n="5"), "'5'"),
    "domain_metric_name": (lambda: pl.ExteriorDomain("flat", 1.0), "'flat'"),
    "solution_domain_none": (lambda: pl.PotentialSolution(None), "None"),
}


@pytest.mark.parametrize("case", _BAD_LIBRARY_VALUES)
def test_library_boundary_names_each_bad_value(case):
    # none may be accepted or escape as a bare TypeError, ValueError, OverflowError or AttributeError
    call, named = _BAD_LIBRARY_VALUES[case]
    with pytest.raises((UsageError, pl.DomainError, pl.NumericError)) as exc:
        call()
    assert named in str(exc.value)


_EVERY_KEY = {
    "metric": {"kind": "power", "params": {"c": 2.0, "beta": 0.9}},
    "s0": 1.5, "epsilon": 0.25, "t_max": 3, "n_samples": 101.0,
    "growth_window": [50, 5000.0], "chain_points": 12, "suite": "decay",
    "sweep": {"kind": ["flat", "cone"], "s0": [1, 2.5], "epsilon": [0.1]},
}


def test_config_file_matches_equivalent_flags(tmp_path, capsys):
    out = str(tmp_path / "out")
    full = tmp_path / "full.json"
    full.write_text(json.dumps({**_EVERY_KEY, "out_dir": out}))
    rest = tmp_path / "rest.json"  # the keys that solve has no flag for
    rest.write_text(json.dumps({key: _EVERY_KEY[key]
                                for key in ("growth_window", "chain_points", "suite", "sweep")}))
    flags = ["--config", str(rest), "--kind", "power", "--param", "c=2", "--param", "beta=0.9",
             "--s0", "1.5", "--epsilon", "0.25", "--t-max", "3", "--n-samples", "101",
             "--out-dir", out]
    expected = ScenarioConfig(
        metric_kind="power", metric_params={"c": 2.0, "beta": 0.9}, s0=1.5, epsilon=0.25,
        t_max=3.0, n_samples=101, growth_window=(50.0, 5000.0), chain_points=12, out_dir=out,
        suite="decay", sweep={"kind": ["flat", "cone"], "s0": [1.0, 2.5], "epsilon": [0.1]})
    cfg = ScenarioConfig.from_file(full)
    assert cfg == expected and type(cfg.n_samples) is int
    assert cli._config_from_args(cli.build_parser().parse_args(["solve", *flags])) == expected
    summaries = []
    for argv in (["solve", "--config", str(full)], ["solve", *flags]):
        assert cli.main(argv) == 0
        summaries.append((tmp_path / "out" / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("doc, flags, named", golden.MALFORMED)
def test_malformed_input_is_usage_error(tmp_path, monkeypatch, capsys, doc, flags, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": "out", **doc}))
    command = "sweep" if "sweep" in doc else "refute"
    assert cli.main([command, "--config", "cfg.json", *flags]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error") and named in err, err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("out_dir", ["", "cfg.json", "cfg.json/out"])
@pytest.mark.parametrize("command", ["solve", "refute", "sweep"])
def test_out_dir_that_cannot_be_created_is_usage_error(tmp_path, monkeypatch, capsys,
                                                       command, out_dir):
    # empty, an existing file, and a path under an existing file
    monkeypatch.chdir(tmp_path)
    doc = {"out_dir": out_dir, "t_max": 1.0, "n_samples": 21, "sweep": {"s0": [1.0]}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli.main([command, "--config", "cfg.json"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "out_dir" in err, err
    assert os.listdir(tmp_path) == ["cfg.json"]
    assert cli.main([command, "--config", "cfg.json", "--out-dir", ""]) == 64


@pytest.mark.parametrize("command, name", [
    ("solve", "series.csv"), ("solve", "summary.json"), ("refute", "refutation.json"),
    ("sweep", "sweep.csv"), ("sweep", "sweep.json"), ("verify", "results.json"),
    ("verify", "missing/results.json")])
def test_output_that_cannot_be_written_is_usage_error(tmp_path, monkeypatch, capsys, command, name):
    # a directory where the file should go, or a directory that does not exist
    monkeypatch.chdir(tmp_path)
    path = os.path.join("out", name)
    if "missing" not in name:
        os.makedirs(path)
    doc = {"out_dir": "out", "t_max": 1.0, "n_samples": 21, "sweep": {"s0": [1.0]}}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    flags = ["--suite", "identities", "--kind", "cone", "--json-out", path] if command == "verify" else []
    assert cli.main([command, "--config", "cfg.json", *flags]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot write {path}: "), err


@pytest.mark.parametrize("command", ["solve", "refute"])
@pytest.mark.parametrize("kind, param", [("cone", "a"), ("power", "c")])
def test_unrepresentable_tail_coefficient_is_precondition_failure(tmp_path, capsys,
                                                                   kind, param, command):
    # c * c underflows to 0, so f^-2 ~ c^-2 s^(-2 beta) has no float value
    argv = [command, "--kind", kind, "--param", f"{param}=1e-300", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "tail coefficient c=1e-300" in err and "cannot be represented" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, param, kappa", [("cone", "a=1e-60", 2.333e240), ("cone", "a=1e-100", None),
                                                ("power", "c=1e-80", None)])
def test_tiny_tail_coefficient_refutes_with_kappa_formed_in_logs(tmp_path, kind, param, kappa):
    # (4 pi ncap)^3 underflows for ncap below about 1e-108, log(4 pi ncap) does not; a kappa
    # past the float range is written as "inf" and leaves no chain point in range
    argv = ["refute", "--kind", kind, "--param", param, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    doc = read_json(tmp_path / "refutation.json")
    assert doc["conclusion"].startswith("pinching fails"), doc["conclusion"]
    if kappa is None:
        assert doc["chain"]["kappa"] == "inf" and doc["chain"]["t"] == doc["chain"]["rhs"] == []
    else:
        assert doc["chain"]["kappa"] == pytest.approx(kappa, rel=1e-3) and doc["chain"]["t"]


def test_kappa_whose_partial_products_overflow_keeps_its_chain(tmp_path):
    # log kappa is about 704, while 7 kappa_g^2 c_vol alone is about e^712
    argv = ["refute", "--kind", "flat", "--s0", "1e8", "--t-max", "176", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    chain = read_json(tmp_path / "refutation.json")["chain"]
    assert chain["kappa"] == pytest.approx(1.29e306, rel=1e-2)
    assert chain["t"] and all(math.isfinite(v) for v in chain["lhs"] + chain["rhs"])


@pytest.mark.parametrize("kind, small, large", [
    pytest.param("flat", ["--s0", "1"], ["--s0", "1e104"], id="flat-s0"),
    pytest.param("power", ["--param", "c=1e52"], ["--param", "c=1e100"], id="power-c")])
def test_chain_constant_is_scale_invariant(tmp_path, kind, small, large):
    # flat space looks the same at every s0; in a power tail's c, ncap, G (so kappa_g)
    # and c_vol scale as c^2, so kappa = 7 kappa_g^2 c_vol kappa_ly^exponent / (4 pi ncap)^3 does not
    chains = []
    for name, flags in (("small", small), ("large", large)):
        assert cli.main(["refute", "--kind", kind, *flags, "--out-dir", str(tmp_path / name)]) == 0
        chains.append(read_json(tmp_path / name / "refutation.json")["chain"])
    assert chains[1]["kappa"] == pytest.approx(chains[0]["kappa"], rel=1e-12)
    assert chains[1]["crossing_t"] == pytest.approx(chains[0]["crossing_t"], rel=1e-12)


def test_tiny_cone_slope_above_the_underflow_still_refutes(tmp_path):
    argv = ["refute", "--kind", "cone", "--param", "a=1e-54", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    doc = read_json(tmp_path / "refutation.json")
    assert doc["conclusion"] == "pinching fails (margin min 0, witness s = 1)"
    assert 1e216 < doc["chain"]["kappa"] < 1e217


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
def test_tiny_s0_or_t_max_names_the_cause(tmp_path, capsys, kind):
    # near a tiny s0, I(s0) = integral of f^-2 or the level-set fields (power
    # at 1e-160) overflow, except on Schwarzschild, whose f is 2m at the
    # horizon; below t_max ~ 1e-13 the radii of 2001 levels coincide
    for command in ("refute", "solve"):
        for flag, value in (("--s0", "1e-300"), ("--s0", "1e-200"), ("--s0", "1e-160"),
                            ("--t-max", "1e-300"), ("--t-max", "1e-200")):
            argv = [command, "--kind", kind, flag, value, "--out-dir", str(tmp_path)]
            code = cli.main(argv)
            err = capsys.readouterr().err
            if flag == "--t-max":
                assert code == 2 and f"t_max={value} is too small" in err, (command, value, err)
            elif kind == "schwarzschild":
                assert code == 0, err
            else:
                assert code == 2 and "overflow" in err and f"s0={value}" in err, (command, value, err)


@pytest.mark.parametrize("command", ["solve", "refute"])
@pytest.mark.parametrize("case", ["c=1e170", "c=1e300", "table"])
def test_underflowing_green_integral_is_precondition_failure(tmp_path, capsys, command, case):
    # f^-2 underflows to 0 on every node, so I(s0) = 0 and the capacity 1/I(s0) has no value
    kind = ["--kind", "power", "--param", case]
    if case == "table":
        s = np.geomspace(0.5, 500.0, 400)
        path = _write(tmp_path / "t.csv", "s,f\n" + "".join(f"{v!r},{1e200 * v ** 0.8!r}\n" for v in s.tolist()))
        kind = ["--kind", "user_table", "--param", f"path={path}"]
    assert cli.main([command, *kind, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "I(s0), the integral of f^-2, underflows to 0 at s0=1" in err, err


def test_table_shorter_than_the_growth_window_names_its_start(tmp_path, capsys):
    # the table spans [0.1, 4.52], less than a factor 50, so the growth fit
    # cannot start at r_hi/50 = 0.0904; solve reports no exponent
    s = np.geomspace(0.1, 4.52, 100)
    path = _write(tmp_path / "t.csv", "s,f\n" + "".join(f"{v!r},{v ** 0.8!r}\n" for v in s.tolist()))
    base = ["--kind", "user_table", "--param", f"path={path}", "--s0", "1"]
    assert cli.main(["refute", *base, "--out-dir", str(tmp_path / "refute")]) == 2
    err = capsys.readouterr().err
    assert "r_hi/50 = 0.0904, below the profile's start s=0.1" in err and "bad growth window" not in err, err
    assert cli.main(["solve", *base, "--out-dir", str(tmp_path / "solve")]) == 0
    assert read_json(tmp_path / "solve" / "summary.json")["alpha_fit"] is None


@pytest.mark.parametrize("kind, top", [("flat", 1e103), ("sphere_cap_blend", 1e103), ("power", 1e160),
                                       ("cone", 1e160), ("schwarzschild", 1e300), ("power", 1e300),
                                       ("flat", 1e308)])
def test_huge_growth_window_top_is_a_precondition_failure(tmp_path, capsys, kind, top):
    # the ball volumes overflow below the window top: refute exits 2 naming
    # it, solve writes a null exponent, and no RuntimeWarning escapes
    config = _write(tmp_path / "c.json", json.dumps({"growth_window": [100.0, top]}))
    base = ["--kind", kind, "--config", str(config), "--t-max", "3", "--n-samples", "101"]
    assert cli.main(["refute", *base, "--out-dir", str(tmp_path / "refute")]) == 2
    err = capsys.readouterr().err
    assert f"ball volumes overflow up to the growth window top r={top:g}" in err, err
    assert cli.main(["solve", *base, "--out-dir", str(tmp_path / "solve")]) == 0
    assert read_json(tmp_path / "solve" / "summary.json")["alpha_fit"] is None


def test_param_path_is_a_file_name(tmp_path, monkeypatch):
    # --param path=3 opens the file named 3, not the number 3.0
    monkeypatch.chdir(tmp_path)
    s = np.geomspace(0.5, 500.0, 300)
    _write(tmp_path / "3", "s,f\n" + "".join(f"{a!r},{a!r}\n" for a in s.tolist()))
    argv = ["solve", "--kind", "user_table", "--param", "path=3", "--s0", "1", "--t-max", "3",
            "--n-samples", "101", "--out-dir", "out"]
    assert cli.main(argv) == 0
    assert read_json(tmp_path / "out" / "summary.json")["config"]["metric_params"] \
        == {"path": "3"}


def test_table_path_may_be_a_pathlib_path(tmp_path):
    # the catalog's path rule takes any os.PathLike, and summary.json writes it as its string
    s = np.geomspace(0.5, 500.0, 300)
    _write(tmp_path / "t.csv", "s,f\n" + "".join(f"{a!r},{a!r}\n" for a in s.tolist()))
    cfg = ScenarioConfig(metric_kind="user_table", metric_params={"path": tmp_path / "t.csv"}, t_max=3.0,
                         n_samples=101, out_dir=str(tmp_path / "out"))
    assert cli.cmd_solve(cfg) == 0
    assert read_json(tmp_path / "out" / "summary.json")["config"]["metric_params"] == {"path": str(tmp_path / "t.csv")}


_BAD = st.one_of(st.none(), st.booleans(), st.sampled_from(["", "1.5", "abc"]),
                 st.sampled_from([math.nan, math.inf, -math.inf, -1, 1e30, 10**400]),
                 st.lists(st.integers(0, 3), max_size=2), st.just({}))


def _or_bad(valid):
    return st.one_of(valid, _BAD)


# a tail coefficient whose square or capacity underflows, or whose f passes 2^510 on the tail
# grid; a Schwarzschild mass whose tail law never comes within 1/3 of f
_EXTREME_PARAMS = {"cone": [1e-300, 1e-100], "power": [1e-300, 1e-100, 1e52, 1e154, 1e160],
                   "schwarzschild": [1e300]}


def _metric_doc(kind):
    names = sorted(metrics.CATALOG[kind]["params"]) or ["a"]
    value = st.floats(0.6, 1.0)
    if kind in _EXTREME_PARAMS:
        value = st.one_of(value, st.sampled_from(_EXTREME_PARAMS[kind]))
    params = st.dictionaries(st.sampled_from(names), _or_bad(value), max_size=2)
    return st.fixed_dictionaries({"kind": st.just(kind)}, optional={"params": _or_bad(params)})


_AXES = {"kind": st.sampled_from(["flat", "cone", "saddle"]),
         "s0": st.floats(0.5, 2.0), "epsilon": st.floats(0.05, 1.0 / 3.0)}

_CONFIG_VALUES = {
    "metric": _or_bad(st.sampled_from(sorted(metrics.CATALOG)).flatmap(_metric_doc)),
    "s0": _or_bad(st.one_of(st.floats(0.5, 2.0), st.sampled_from([1e-300, 1e-200, 1e104, 1e200, 1e300]))),
    "epsilon": _or_bad(st.floats(0.05, 1.0 / 3.0)),
    "t_max": _or_bad(st.one_of(st.floats(0.5, 2.0), st.sampled_from([1e-300, 1e-200, 180.0, 400.0, 1e4]))),
    "n_samples": _or_bad(st.integers(3, 50)),
    "growth_window": _or_bad(st.tuples(st.floats(10.0, 100.0), st.floats(200.0, 1000.0)).map(list)),
    "chain_points": _or_bad(st.integers(2, 10)),
    # a valid out_dir is tmp_path; "" and a path under the config file cannot be created
    "out_dir": st.one_of(_BAD.filter(lambda v: not isinstance(v, str)),
                         st.sampled_from(["", os.path.join("cfg.json", "out")])),
    "suite": _or_bad(st.sampled_from(SUITES)),
    "sweep": _or_bad(st.sampled_from(sorted(_AXES)).flatmap(lambda axis: st.fixed_dictionaries(
        {axis: _or_bad(st.lists(_or_bad(_AXES[axis]), min_size=1, max_size=2))}))),
}


@settings(max_examples=60, deadline=None)
@given(doc=st.fixed_dictionaries({}, optional=_CONFIG_VALUES),
       command=st.sampled_from(["solve", "refute", "verify"]))
@example(doc={"out_dir": ""}, command="solve")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e100}}}, command="verify")
@example(doc={"metric": {"kind": "cone", "params": {"a": 1e-100}}}, command="verify")
@example(doc={"metric": {"kind": "power", "params": {"beta": 0.51}}}, command="verify")
@example(doc={"metric": {"kind": "power", "params": {"beta": 0.515}}}, command="verify")
@example(doc={"metric": {"kind": "power", "params": {"beta": 0.52}}}, command="verify")
@example(doc={"metric": {"kind": "power", "params": {"beta": 0.505}}}, command="verify")
@example(doc={"metric": {"kind": "schwarzschild", "params": {"m": 1e-160}}}, command="verify")
@example(doc={"metric": {"kind": "schwarzschild", "params": {"m": 1e-300}}}, command="verify")
@example(doc={"out_dir": os.path.join("cfg.json", "out")}, command="refute")
@example(doc={"metric": {"kind": "cone", "params": {"a": 1e-300}}}, command="refute")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e-300}}}, command="solve")
@example(doc={"metric": {"kind": "cone", "params": {"a": 1e-100}}}, command="refute")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e-100}}}, command="refute")
@example(doc={"s0": 1e-300}, command="solve")
@example(doc={"s0": 1e-200, "metric": {"kind": "power", "params": {"beta": 0.6}}}, command="refute")
@example(doc={"t_max": 1e-300}, command="refute")
@example(doc={"t_max": 1e-200}, command="solve")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e52}}}, command="refute")
@example(doc={"metric": {"kind": "cone"}, "s0": 1e104}, command="refute")
@example(doc={"t_max": 200.0}, command="refute")
@example(doc={"metric": {"kind": "cone", "params": {"a": 1e-60}}}, command="refute")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e-80}}}, command="refute")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e100}}}, command="refute")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e154}}}, command="refute")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e160}}}, command="solve")
@example(doc={"metric": {"kind": "power"}, "s0": 1e200}, command="refute")
@example(doc={"metric": {"kind": "power", "params": {"c": 1e100}}, "s0": 1e-200}, command="refute")
@example(doc={"metric": {"kind": "cone", "params": {"a": 1e-100}}, "s0": 1e-300}, command="refute")
@example(doc={"metric": {"kind": "schwarzschild", "params": {"m": 1e300}}}, command="refute")
@example(doc={"s0": 1e104}, command="refute")
@example(doc={"s0": 1e200}, command="solve")
@example(doc={"s0": 1e8, "t_max": 176.0}, command="refute")
@example(doc={"s0": 1e-100, "t_max": 360.0}, command="refute")
@example(doc={"s0": 1e-100, "t_max": 370.0}, command="refute")
@example(doc={"s0": 1e-100, "t_max": 500.0}, command="solve")
@example(doc={"t_max": 354.0}, command="solve")
@example(doc={"t_max": 400.0}, command="refute")
@example(doc={"t_max": 1e4}, command="refute")
def test_any_config_document_ends_in_a_documented_code(tmp_path_factory, doc, command):
    out = tmp_path_factory.mktemp("config")
    doc.setdefault("out_dir", str(out))
    (out / "cfg.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.chdir(out), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["sweep" if "sweep" in doc else command, "--config", "cfg.json"])
    assert code in (0, 2, 64) or (code == 1 and command == "verify"), err.getvalue()
    for path in out.rglob("*.json"):  # what the CLI wrote, not the document under test
        if path.name != "cfg.json":
            read_json(path)


def test_user_table_through_cli(tmp_path):
    s = np.geomspace(0.5, 500.0, 700)
    table = tmp_path / "profile.csv"
    with open(table, "w") as fh:
        fh.write("s,f\n")
        for a in s:
            fh.write(f"{a:.17g},{a:.17g}\n")
    code = cli.main(["solve", "--kind", "user_table", "--param", f"path={table}",
                     "--s0", "1", "--t-max", "3", "--n-samples", "101",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "summary.json")
    assert summary["ncap"] == pytest.approx(1.0, rel=1e-6)


def test_solve_exits_2_on_a_table_too_rough_for_the_solve(tmp_path):
    table = tmp_path / "ripple.csv"
    table.write_text("s,f\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(RIPPLE_S.tolist(), RIPPLE_F.tolist())))
    argv = ["solve", "--kind", "user_table", "--param", f"path={table}", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2


def test_refute_user_table_leaves_scipy_unimported(tmp_path):
    table = tmp_path / "profile.csv"
    s = np.geomspace(0.1, 1e4, 300)
    table.write_text("s,f\n" + "".join(f"{a:.17g},{a ** 0.8:.17g}\n" for a in s))
    argv = ["refute", "--kind", "user_table", "--param", f"path={table}",
            "--out-dir", str(tmp_path / "out")]
    script = f"import sys; from pinchlab import cli; print(cli.main({argv!r}), 'scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.stdout.splitlines()[-1].split() == ["0", "False"], done.stdout + done.stderr


@pytest.mark.parametrize("command", ["solve", "refute"])
def test_table_dipping_below_zero_is_a_usage_error(tmp_path, capsys, command):
    # the interpolant reaches f = -3.5e-4 near s = 0.504, between two rows; at s0 = 0.2
    # the solve would take the log of a negative I(s) unless the load refuses the table
    s = np.geomspace(0.1, 1e4, 300)
    f = s**0.8
    f[np.argmin(np.abs(s - 0.5))] = 1e-6
    path = _write(tmp_path / "t.csv", "s,f\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(s, f)))
    argv = [command, "--kind", "user_table", "--param", f"path={path}", "--s0", "0.2",
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 64
    assert "dips to f=-0.00035 at s=0.5042" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "refute"])
def test_table_field_past_the_csv_limit_is_a_usage_error(tmp_path, capsys, command):
    # the csv module refuses a field over 131,072 characters with csv.Error, not ValueError
    path = _write(tmp_path / "t.csv", "s,f\n0.1,0.1\n" + "1" * 200_000 + ",2\n")
    out = tmp_path / "out"
    argv = [command, "--kind", "user_table", "--param", f"path={path}", "--out-dir", str(out)]
    assert cli.main(argv) == 64
    assert f"{path}, line 3: field larger than field limit" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "refute", "verify"])
def test_table_whose_seed_integral_is_not_positive_exits_2_naming_the_radius(tmp_path, capsys, command):
    # one row scaled by 1.6e-3 spikes f^-2 beyond what the panels resolve, and their sums
    # read I <= 0 at seed knots beside it; the log of such an I escaped as a RuntimeWarning
    s = np.geomspace(0.02, 9e4, 300)
    f = 1.5 * s**0.63
    f[280] *= 1.6e-3
    path = _write(tmp_path / "t.csv", "s,f\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(s, f)))
    argv = [command, "--kind", "user_table", "--param", f"path={path}", "--s0", "1"]
    assert cli.main(argv if command == "verify" else argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure: ") and "not positive, at s=34098.2 on the seed grid" in err, err


def test_table_with_a_byte_order_mark_reads_as_without(tmp_path):
    # a CSV saved with a UTF-8 byte-order mark was refused: "expected CSV header 's,f'"
    s = np.geomspace(0.1, 1e4, 300)
    text = "s,f\n" + "".join(f"{a:.17g},{a ** 0.8:.17g}\n" for a in s)
    written = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "t.csv").write_text(text, encoding=encoding)
        assert cli.main(["refute", "--kind", "user_table", "--param", f"path={tmp_path / name / 't.csv'}",
                         "--out-dir", str(tmp_path / name / "out")]) == 0
        written.append((tmp_path / name / "out" / "refutation.json").read_bytes())
    assert (tmp_path / "bom" / "t.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert written[0] == written[1]


def test_table_refutation_bytes_match_separate_series(tmp_path, monkeypatch):
    # three tables shaped like the benchmark's: power laws on log-spaced rows from 0.1;
    # the certificate is the same when the jet sums f, f' and f'' one series at a time
    def per_series(s, f, **kwargs):
        edges, series = metrics._quintic_pieces(s, f)
        return dataclasses.replace(from_table(s, f, **kwargs), jet=lambda x: _per_series(edges, series, x))

    from_table = metrics.from_table
    for k, (beta, c, s_end, rows, s0) in enumerate([(0.62, 0.7, 1.3e3, 231, 0.3),
                                                    (0.8, 1.9, 2e4, 517, 1.7),
                                                    (0.97, 1.1, 9e4, 788, 3.6)]):
        s = 0.1 * (s_end / 0.1) ** (np.arange(rows) / (rows - 1))
        path = _write(tmp_path / f"t{k}.csv", "s,f\n" + "".join(f"{a:.17g},{c * a ** beta:.17g}\n" for a in s))
        written = []
        for make in (from_table, per_series):
            monkeypatch.setattr(metrics, "from_table", make)
            out = tmp_path / f"{k}{make.__name__}"
            assert cli.main(["refute", "--kind", "user_table", "--param", f"path={path}", "--s0", str(s0),
                             "--epsilon", "0.2", "--out-dir", str(out)]) == 0
            written.append((out / "refutation.json").read_bytes())
        assert written[0] == written[1]


def test_outputs_are_the_same_with_numpys_own_grids(tmp_path, monkeypatch):
    # every grid comes from quadrature.lin_grid or log_grid; with np.linspace and np.geomspace
    # in their place at every call site, no certificate or verify row may change by a byte
    s = 0.1 * (2e4 / 0.1) ** (np.arange(517) / 516)
    table = _write(tmp_path / "t.csv", "s,f\n" + "".join(f"{a:.17g},{1.9 * a ** 0.8:.17g}\n" for a in s))
    runs = [["--kind", kind] for kind in ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend")]
    runs.append(["--kind", "user_table", "--param", f"path={table}", "--s0", "1.7", "--epsilon", "0.2"])

    def outputs(tag):
        certificates = []
        for k, args in enumerate(runs):
            out = tmp_path / f"{tag}{k}"
            assert cli.main(["refute", *args, "--out-dir", str(out)]) == 0
            certificates.append((out / "refutation.json").read_bytes())
        results, _ = run_verify(ScenarioConfig(suite="all"), stream=io.StringIO())
        return certificates, json.dumps([r.to_json_dict() for r in results])

    ours = outputs("ours")
    for module in [m for name, m in sys.modules.items() if name.startswith("pinchlab.")]:
        for name, reference in (("lin_grid", np.linspace), ("log_grid", np.geomspace)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, reference)
    assert outputs("numpy") == ours


def test_refute_and_verify_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma, some 10 ms, on its first call
    runs = [["refute", "--out-dir", str(tmp_path)], ["verify", "--suite", "all"]]
    script = ("import sys; from pinchlab import cli; codes = [cli.main(a) for a in %r]; "
              "print(*codes, 'numpy.ma' in sys.modules)" % runs)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.stdout.splitlines()[-1].split() == ["0", "0", "False"], done.stdout + done.stderr


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["verify", "--help"]) == 0
    capsys.readouterr()
    assert cli.main(["solve", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # each scenario flag with its metavar and help
    for flag in ("--s0 S0 boundary radius", "--epsilon EPSILON pinching constant in (0, 1/3]",
                 "--t-max T_MAX largest level value", "--n-samples N_SAMPLES series grid size for solve output",
                 "--out-dir OUT_DIR output directory"):
        assert flag in text


@pytest.mark.parametrize("flag, value, kind", [("--s0", "x", "float"), ("--epsilon", "x", "float"),
                                               ("--t-max", "1e", "float"), ("--n-samples", "1.5", "int")])
def test_scenario_flag_of_the_wrong_type_is_a_usage_error(capsys, flag, value, kind):
    assert cli.main(["solve", flag, value]) == 64
    assert f"usage error: argument {flag}: invalid {kind} value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["flat", "cone", "power", "schwarzschild", "sphere_cap_blend"])
@pytest.mark.parametrize("t_max", ["1e-4", "0.01", "0.3"])
def test_small_t_max_exits_0(tmp_path, capsys, kind, t_max):
    # the harmonic self-check's stencil must stay outside the boundary sphere
    for command in ("refute", "solve"):
        for s0 in ("0.5", "2"):
            argv = [command, "--kind", kind, "--s0", s0, "--t-max", t_max,
                    "--n-samples", "201", "--out-dir", str(tmp_path)]
            assert cli.main(argv) == 0, (command, s0, capsys.readouterr().err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_refute_chain_stays_in_float_range(tmp_path, capsys):
    # kappa e^(exponent t) with exponent ~31 passed the float range at t = 24
    argv = ["refute", "--kind", "power", "--param", "beta=0.533324462501481",
            "--param", "c=0.415959320944788", "--s0", "1.2023716770750505",
            "--epsilon", "0.09602681458240747", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    doc = read_json(tmp_path / "refutation.json")
    assert doc["chain"]["rhs"] and all(math.isfinite(v) for v in doc["chain"]["rhs"])
    assert doc["conclusion"] == ("pinching fails (margin min 8.027e-51, witness s = 1.20237); "
                                 "growth fails (alpha = 1.067 <= 4/3)")


def _flags_id(flags):
    """'--kind flat --s0 1e-100 --param a=1' as 'flat-s0=1e-100-a=1'."""
    return flags.replace("--kind ", "").replace(" --param ", "-").replace(" --", "-").replace(" ", "=")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "refute"])
@pytest.mark.parametrize("flags, cause", [pytest.param(flags.split(), cause, id=_flags_id(flags)) for flags, cause in [
    *[(f"--kind {kind} --t-max 400", "passes 2^510 on the tail grid sized for t_max=400 (s0=1, ")
      for kind in ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend")],
    ("--kind power --param c=1e154",
     "f=4.9e+158 at s=7.29e+05 passes 2^510 on the tail grid sized for t_max=8 (s0=1, tail coefficient 1e+154)"),
    ("--kind power --param c=1e160", "passes 2^510 on the tail grid sized for t_max=8 (s0=1, "),
    ("--kind power --s0 1e200", "passes 2^510 on the tail grid sized for t_max=8 (s0=1e+200, "),
    ("--kind flat --s0 1e200", "f=3.29e+203 at s=3.29e+203 passes 2^510"),
    ("--kind flat --t-max 354", "passes 2^510 on the tail grid sized for t_max=354 (s0=1, "),
    # the panel grid spans s0 = 1e-100 to s = 1e211, more than the float range
    ("--kind flat --s0 1e-100 --t-max 500", "passes 2^510 on the tail grid sized for t_max=500"),
    ("--kind power --param c=1e100 --s0 1e-200", "the level-set fields overflow near s0=1e-200"),
    ("--kind cone --param a=1e-100 --s0 1e-300", "I(s0), the integral of f^-2, overflows at s0=1e-300"),
]])
def test_large_or_tiny_scale_exits_2_naming_the_cause(tmp_path, capsys, command, flags, cause):
    # f past 2^510 on the tail grid leaves f^-2 subnormal and overflows the area 4 pi f^2;
    # the message names that cause, not a consequence, and no RuntimeWarning escapes
    assert cli.main([command, *flags, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failure: ") and cause in err, err


def test_level_map_non_convergence_exits_2(tmp_path, capsys, monkeypatch):
    harmonic_check = potential.PotentialSolution._verify_harmonic

    def seed_at_boundary(sol):
        sol._seed[1:] = [[sol.s0], [0.0], [0.0]]  # every level seeded at the boundary
        harmonic_check(sol)

    monkeypatch.setattr(potential.PotentialSolution, "_verify_harmonic", seed_at_boundary)
    assert cli.main(["refute", "--kind", "power", "--out-dir", str(tmp_path)]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_power_level_beyond_float_range_exits_2(tmp_path, capsys):
    # the level t_max = 8 lies near s = e^810, past the tail-law probe at 1e300
    argv = ["refute", "--kind", "power", "--param", "beta=0.505", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "where the tail-law probe ends" in capsys.readouterr().err


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_PARAMS = {
    "flat": st.just({}),
    "cone": st.fixed_dictionaries({"a": st.floats(0.05, 1.0)}),
    "power": st.fixed_dictionaries({"c": _log_uniform(0.25, 4.0), "beta": st.floats(0.5, 1.0)}),
    "schwarzschild": st.fixed_dictionaries({"m": _log_uniform(0.25, 4.0)}),
    "sphere_cap_blend": st.fixed_dictionaries({"s_cap": st.floats(0.05, 1.5),
                                               "blend_width": _log_uniform(0.005, 3.0)}),
}


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(sorted(_PARAMS)).flatmap(
           lambda kind: st.tuples(st.just(kind), _PARAMS[kind])),
       s0=_log_uniform(math.exp(-6), math.exp(6)), epsilon=st.floats(1e-3, 1.0 / 3.0),
       t_max=_log_uniform(math.exp(-4), math.exp(3.5)))
@example(scenario=("flat", {}), s0=0.004, epsilon=1.0 / 3.0, t_max=8.0)
@example(scenario=("flat", {}), s0=1.0, epsilon=1.0 / 3.0, t_max=30.0)
def test_refute_terminates_over_input_box(tmp_path_factory, scenario, s0, epsilon, t_max):
    # every input in the box ends in a certificate (0), a named precondition
    # failure (2: nonparabolic tail, level past the tail-law probe) or a
    # usage error (64: a blend that flattens the profile), never a stalled level map
    kind, params = scenario
    out = tmp_path_factory.mktemp("refute")
    argv = ["refute", "--kind", kind, "--s0", repr(s0), "--epsilon", repr(epsilon),
            "--t-max", repr(t_max), "--out-dir", str(out)]
    argv += [arg for k, v in params.items() for arg in ("--param", f"{k}={v!r}")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 64), err.getvalue()
    assert "did not converge" not in err.getvalue()
    if code == 0:
        doc = read_json(out / "refutation.json")
        assert not doc["conclusion"].startswith("CONTRADICTION")


def test_table_below_growth_window_reports_one_alpha(tmp_path, capsys):
    # the table ends at s = 50, below the window [100, 1e4]; solve and refute
    # clip the window the same way, so they report the same growth exponent
    s = np.geomspace(0.5, 50.0, 400)
    path = _write(tmp_path / "t.csv", "s,f\n" + "".join(f"{v!r},{v ** 0.9!r}\n" for v in s.tolist()))
    base = ["--kind", "user_table", "--param", f"path={path}", "--s0", "1"]
    assert cli.main(["solve", *base, "--out-dir", str(tmp_path / "solve")]) == 0
    assert cli.main(["refute", *base, "--out-dir", str(tmp_path / "refute")]) == 0
    summary = read_json(tmp_path / "solve" / "summary.json")
    report = read_json(tmp_path / "refute" / "refutation.json")
    assert report["growth"]["window"] == [1.0, 50.0]
    assert summary["alpha_fit"] == report["growth"]["alpha_fit"]


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("case, expect", [
    ("missing", "cannot read table"),
    ("directory", "cannot read table"),
    ("non_numeric", "line 3"),
    ("one_column", "line 4"),
])
def test_user_table_csv_errors_are_usage_errors(tmp_path, capsys, case, expect):
    rows = "".join(f"{s},{s}\n" for s in range(1, 12))
    path = {
        "missing": lambda: tmp_path / "absent.csv",
        "directory": lambda: tmp_path,
        "non_numeric": lambda: _write(tmp_path / "t.csv", "s,f\n1,1\n2,two\n" + rows),
        "one_column": lambda: _write(tmp_path / "t.csv", "s,f\n1,1\n2,2\n3\n" + rows),
    }[case]()
    argv = ["solve", "--kind", "user_table", "--param", f"path={path}",
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert "usage error" in err and str(path) in err and expect in err
