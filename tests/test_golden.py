"""``tools/golden.py``: ``diff_file``, ``_leaves`` and ``src_lines`` on small output pairs and trees,
``_run`` and ``run_changes`` on stub ``cli``s, and the seeded fuzz tables and grids A and B."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

spec = importlib.util.spec_from_file_location("golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def _pair(tmp_path, suffix, a, b):
    (tmp_path / f"a{suffix}").write_text(a)
    (tmp_path / f"b{suffix}").write_text(b)
    return tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"


def test_leaves_name_each_scalar_by_its_path_and_verify_rows_by_their_check():
    doc = {"b": [{"name": "flat/coarea", "measured": 1e-12}, 3.0], "a": {"z": "x"}}
    assert list(golden._leaves(doc)) == [("a.z", "x"), ("b[flat/coarea].measured", 1e-12),
                                         ("b[flat/coarea].name", "flat/coarea"), ("b[1]", 3.0)]


def test_identical_bytes_read_identical(tmp_path):
    for suffix, text in ((".json", '{"x": [1.0, 2.0]}'), (".csv", "t,s\n0,1\n1,2\n")):
        assert golden.diff_file(*_pair(tmp_path, suffix, text, text)) == "identical"


def test_one_moved_number_is_named_with_its_relative_change(tmp_path):
    rows = '[{"name": "power/integral_geometry", "measured": %s, "status": "PASS"}, {"name": "flat/x", "measured": 1.0}]'
    verdict = golden.diff_file(*_pair(tmp_path, ".json", rows % "4.0", rows % "5.0"))
    assert verdict == ("largest relative change 0.2 at [power/integral_geometry].measured (4.0 -> 5.0); "
                       "1 of 2 numbers moved")
    verdict = golden.diff_file(*_pair(tmp_path, ".csv", "t,s\n0,1\n1,2\n", "t,s\n0,1\n1,2.5\n"))
    assert verdict == "largest relative change 0.2 at [1].s (2.0 -> 2.5); 1 of 4 numbers moved"


def test_a_changed_string_is_counted_beside_the_numbers(tmp_path):
    row = '{"name": "flat/coarea", "measured": %s, "status": "%s"}'
    verdict = golden.diff_file(*_pair(tmp_path, ".json", row % ("1.0", "PASS"), row % ("2.0", "FAIL")))
    assert verdict == ("largest relative change 0.5 at measured (1.0 -> 2.0); 1 of 1 numbers moved; "
                       "1 other values changed, first status ('PASS' -> 'FAIL')")


def test_a_layout_change_is_named_as_such(tmp_path):
    assert golden.diff_file(*_pair(tmp_path, ".json", '{"a": 1.0}', '{"a": 1.0, "b": 2.0}')) == \
        "layout changed: 1 entries in one file only"
    assert golden.diff_file(*_pair(tmp_path, ".csv", "t,s\n0,1\n", "t,u\n0,1\n")) == \
        "layout changed: 2 entries in one file only"


def test_nan_on_both_sides_is_no_change(tmp_path):
    # the bytes differ, in spacing or spelling, but every number is the same, NaN included
    assert golden.diff_file(*_pair(tmp_path, ".json", '{"a": NaN, "b": 1.0}', '{"a": NaN,  "b": 1.0}')) == \
        "no finite number moved; 0 of 2 numbers moved"
    assert golden.diff_file(*_pair(tmp_path, ".csv", "x,y\nnan,1\n", "x,y\nNaN,1\n")) == \
        "no finite number moved; 0 of 2 numbers moved"
    # NaN on one side only is a change, outside the relative measure
    assert golden.diff_file(*_pair(tmp_path, ".json", '{"a": NaN}', '{"a": 1.0}')) == \
        "no finite number moved; 1 of 1 numbers moved; 1 other values changed, first a (nan -> 1.0)"


def test_a_certificate_file_counts_moved_certificates_and_conclusions(tmp_path):
    # four certificates: one unchanged, one moved in a number, one that changed its conclusion,
    # and one whose op now raises, its exception in place of the certificate
    def certificates(*changes):
        doc = {f"op{k}": {"conclusion": "pinching fails", "kappa": 1.0} for k in range(4)}
        for key, field, value in changes:
            doc[key] = value if field is None else {**doc[key], field: value}
        return json.dumps(doc)

    before = certificates()
    after = certificates(("op1", "kappa", 2.0), ("op2", "conclusion", "growth fails"),
                         ("op3", None, "RuntimeWarning: overflow encountered in divide"))
    for name in ("refute_grid-seed1.json", "table_fuzz.json"):
        for side, text in (("a", before), ("b", after)):
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / name).write_text(text)
        assert golden.diff_file(tmp_path / "a" / name, tmp_path / "b" / name) == \
            "layout changed: 3 entries in one file only; 3 of 4 certificates moved, 2 changed conclusion"
    # a file outside the certificate files reports numbers only
    assert golden.diff_file(*_pair(tmp_path, ".json", before, certificates(("op1", "kappa", 2.0)))) == \
        "largest relative change 0.5 at op1.kappa (1.0 -> 2.0); 1 of 4 numbers moved"


def test_an_exception_that_escapes_main_is_recorded_as_exit_1():
    class Cli:
        @staticmethod
        def main(argv):
            print("FAIL power/w_equation 1e-6")
            raise RuntimeWarning("invalid value encountered in log\nsecond line")

    assert golden._run(Cli, ["verify", "--kind", "power"]) == {
        "argv": "verify --kind power", "code": 1, "first": "RuntimeWarning: invalid value encountered in log",
        "last": "RuntimeWarning: invalid value encountered in log", "fails": ["power/w_equation"]}


def test_a_run_whose_cause_moved_behind_the_same_warning_is_moved():
    def cli(cause):
        class Cli:
            @staticmethod
            def main(argv):
                print("pinchlab.potential: tail cut at s=1e4", file=sys.stderr)
                print(f"precondition failure: {cause}", file=sys.stderr)
                return 2
        return Cli

    was = golden._run(cli("radial harmonic identity violated"), ["refute"])
    now = golden._run(cli("the level map did not converge"), ["refute"])
    assert was["first"] == now["first"] == "pinchlab.potential: tail cut at s=1e4"
    assert golden.run_changes(was, was) == []
    assert golden.run_changes(was, now) == [
        "last 'precondition failure: radial harmonic identity violated' -> "
        "'precondition failure: the level map did not converge'"]


def test_grids_a_and_b_hold_105_and_800_argument_lists():
    grid_a, grid_b = golden.grid_a(), golden.grid_b()
    assert (len(grid_a), len(grid_b)) == (105, 800)
    assert {argv[0] for argv in grid_a} == {"refute"}
    assert sum(argv[0] == "solve" for argv in grid_b) == 400
    assert all(argv[argv.index("--n-samples") + 1] == "101" for argv in grid_b)
    assert len({" ".join(argv) for argv in grid_a + grid_b}) == 905


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not code\n")
    assert golden.src_lines(tmp_path) == 4


def test_fuzz_tables_are_seeded_and_each_s0_lies_inside_its_table():
    tables = golden.fuzz_tables()
    assert len(tables) == 300
    assert {family: sum(name.endswith(family) for name, *_ in tables) for family in golden.FUZZ_FAMILIES} == \
        dict.fromkeys(golden.FUZZ_FAMILIES, 60)
    for name, s, f, s0 in tables:
        assert 20 <= len(s) <= 900 and 0.01 <= s[0] <= 1.0 and 1e2 <= s[-1] <= 1e5, name
        assert (np.diff(s) > 0).all() and s[0] <= float(s0) <= s[-1], name
    again = golden.fuzz_tables()
    assert all(a[0] == b[0] and a[3] == b[3] and (a[2] == b[2]).all() for a, b in zip(tables, again))


def test_config_census_rejects_every_bad_document_as_a_usage_error(tmp_path, monkeypatch):
    import pinchlab.cli as cli

    monkeypatch.chdir(tmp_path)
    runs = golden.config_census(cli)
    assert len(runs) == len(golden.config_documents()) == 26
    assert [run["code"] for run in runs] == [64] * 25 + [0]  # the last document is the valid one
    assert all(run["last"].startswith("usage error: ") for run in runs[:-1])
    assert runs[-2]["last"] == "usage error: epsilon must lie in (0, 1/3], got 0.9"  # under --epsilon 0.2
    assert runs[-3]["last"] == "usage error: epsilon must lie in (0, 1/3], got 0.9"  # before n_samples 2.5
