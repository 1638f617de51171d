import json
import math

import numpy as np
import pytest

import pinchlab.cli as cli
import pinchlab.metrics as metrics
from pinchlab.config import ScenarioConfig
from pinchlab.errors import UsageError


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
    summary = json.loads((tmp_path / "summary.json").read_text())
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
    summary = json.loads((tmp_path / "summary.json").read_text())
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


def test_verify_json_out_has_no_runtimes(tmp_path, capsys):
    path = tmp_path / "results.json"
    code = cli.main(["verify", "--suite", "identities", "--kind", "cone",
                     "--t-max", "5", "--json-out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc) >= 6
    assert all("runtime" not in entry for entry in doc)
    assert all(entry["status"] == "PASS" for entry in doc)


def test_verify_fault_injection_flips_ric_rad(monkeypatch, capsys):
    # corrupting the curvature assembly must be caught and named
    true_arrays = metrics._curvature_arrays

    def corrupted(metric, s):
        f, k_rad, k_tan, ric_rad, ric_tan, scalar = true_arrays(metric, s)
        return f, k_rad, k_tan, -ric_rad, ric_tan, scalar

    monkeypatch.setattr(metrics, "_curvature_arrays", corrupted)
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


# ---------------------------------------------------------------------------
# refute
# ---------------------------------------------------------------------------

def test_refute_cone_certificate(tmp_path, capsys):
    code = cli.main(["refute", "--kind", "cone", "--param", "a=0.5", "--s0", "1",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    assert "pinching fails" in capsys.readouterr().out
    doc = json.loads((tmp_path / "refutation.json").read_text())
    for key in ("pinching", "growth", "boundary_willmore", "chain", "conclusion"):
        assert key in doc
    assert doc["pinching"]["pass"] is False
    assert doc["growth"]["pass"] is True
    assert doc["boundary_willmore"]["value"] == pytest.approx(4 * math.pi)


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
    docs = json.loads(json_bytes)
    assert [d["scenario"]["kind"] for d in docs] == ["flat", "flat", "cone", "cone"]
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == csv_bytes
    assert (tmp_path / "sweep.json").read_bytes() == json_bytes


def test_sweep_non_finite_axis_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp_path),
                                    "sweep": {"kind": ["flat"], "s0": [1.0, math.nan]}}))
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 64
    assert "usage error" in capsys.readouterr().err


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
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["s0"] == 1.0
    assert summary["config"]["metric_kind"] == "cone"
    assert summary["ncap"] == pytest.approx(0.25, rel=1e-8)


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
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["ncap"] == pytest.approx(1.0, rel=1e-6)


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["verify", "--help"]) == 0
