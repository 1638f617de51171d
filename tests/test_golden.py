"""The comparison of ``tools/golden.py``: ``diff_file`` and ``_leaves`` on small output pairs."""

import importlib.util
from pathlib import Path

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
    assert verdict == "largest relative change 0.2 at [power/integral_geometry].measured (4.0 -> 5.0)"
    verdict = golden.diff_file(*_pair(tmp_path, ".csv", "t,s\n0,1\n1,2\n", "t,s\n0,1\n1,2.5\n"))
    assert verdict == "largest relative change 0.2 at [1].s (2.0 -> 2.5)"


def test_a_changed_string_is_counted_beside_the_numbers(tmp_path):
    row = '{"name": "flat/coarea", "measured": %s, "status": "%s"}'
    verdict = golden.diff_file(*_pair(tmp_path, ".json", row % ("1.0", "PASS"), row % ("2.0", "FAIL")))
    assert verdict == ("largest relative change 0.5 at measured (1.0 -> 2.0); "
                       "1 other values changed, first status ('PASS' -> 'FAIL')")


def test_a_layout_change_is_named_as_such(tmp_path):
    assert golden.diff_file(*_pair(tmp_path, ".json", '{"a": 1.0}', '{"a": 1.0, "b": 2.0}')) == \
        "layout changed: 1 entries in one file only"
    assert golden.diff_file(*_pair(tmp_path, ".csv", "t,s\n0,1\n", "t,u\n0,1\n")) == \
        "layout changed: 2 entries in one file only"


def test_nan_on_both_sides_is_no_change(tmp_path):
    # the bytes differ, in spacing or spelling, but every number is the same, NaN included
    assert golden.diff_file(*_pair(tmp_path, ".json", '{"a": NaN, "b": 1.0}', '{"a": NaN,  "b": 1.0}')) == \
        "no finite number moved"
    assert golden.diff_file(*_pair(tmp_path, ".csv", "x,y\nnan,1\n", "x,y\nNaN,1\n")) == "no finite number moved"
    # NaN on one side only is a change, outside the relative measure
    assert golden.diff_file(*_pair(tmp_path, ".json", '{"a": NaN}', '{"a": 1.0}')) == \
        "no finite number moved; 1 other values changed, first a (nan -> 1.0)"
