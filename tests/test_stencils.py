import io

import numpy as np
import pytest

import pinchlab.cli as cli
from pinchlab.config import ScenarioConfig
from pinchlab.errors import DomainError
from pinchlab.stencils import grid_derivative, step
from pinchlab.verify import run_verify


# ---------------------------------------------------------------------------
# the step rule
# ---------------------------------------------------------------------------

def test_step_keeps_the_stencil_on_the_piece_that_holds_x():
    lo, seams = 0.5, (1.3, 2.0)
    x = np.random.default_rng(0).uniform(lo, 4.0, 2000)
    for rel in (0.003, 0.01, 0.5):
        h = step(x, rel, lo, seams)
        assert np.all(h >= 0.0) and np.all(h <= rel * x)
        assert np.all(x - 2.0 * h >= lo * (1.0 - 1e-15))
        for b in seams:
            assert not np.any((x - 2.0 * h < b * (1.0 - 1e-15)) & (x + 2.0 * h > b * (1.0 + 1e-15)))


def test_step_is_relative_where_nothing_binds():
    x = np.array([0.8, 1.0, 10.0, 1e3])
    assert np.array_equal(step(x, 0.01, 0.5, (1.3, 2.0)), 0.01 * x)
    assert np.array_equal(step(x, 0.003, 0.0), 0.003 * x)
    assert step(0.51, 0.01, 0.5) == pytest.approx(0.005)  # half the distance to lo
    assert step(1.29, 0.01, 0.5, (1.3,)) == pytest.approx(0.005)  # half the distance to the seam


# ---------------------------------------------------------------------------
# the series derivative
# ---------------------------------------------------------------------------

def _piecewise_quartic(t, c):
    """A C^1 quartic on each side of c, with its second derivative jumping there."""
    left = 1.0 + t + 3.0 * t ** 2 - t ** 4
    dleft = 1.0 + 6.0 * t - 4.0 * t ** 3
    lc, dlc = 1.0 + c + 3.0 * c ** 2 - c ** 4, 1.0 + 6.0 * c - 4.0 * c ** 3
    u = t - c
    right = lc + dlc * u + 5.0 * u ** 2 + 2.0 * u ** 4
    dright = dlc + 10.0 * u + 8.0 * u ** 3
    return np.where(t < c, left, right), np.where(t < c, dleft, dright)


def test_grid_derivative_is_exact_on_a_piecewise_quartic_cut_at_its_seam():
    t = np.linspace(0.0, 1.0, 101)
    c = 0.437
    y, dy = _piecewise_quartic(t, c)
    k = np.searchsorted(t, c)
    assert np.abs(grid_derivative(y, t[1] - t[0], [k]) - dy).max() < 1e-11
    # without the cut the stencils that straddle the seam see the jump
    assert np.abs(grid_derivative(y, t[1] - t[0]) - dy).max() > 1e-3


def test_grid_derivative_is_fourth_order():
    errors = []
    for n in (41, 81, 161):
        t = np.linspace(0.0, 1.0, n)
        errors.append(np.abs(grid_derivative(np.sin(3.0 * t), t[1] - t[0]) - 3.0 * np.cos(3.0 * t)).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_grid_derivative_drops_a_cut_that_leaves_a_short_piece():
    y = np.exp(np.linspace(0.0, 1.0, 12))
    whole = grid_derivative(y, 1.0 / 11)
    for cut in (0, 3, 8, 12):
        assert np.array_equal(grid_derivative(y, 1.0 / 11, [cut]), whole)
    assert not np.array_equal(grid_derivative(y, 1.0 / 11, [6]), whole)


def test_grid_derivative_needs_five_samples():
    with pytest.raises(DomainError, match="got 4"):
        grid_derivative(np.arange(4.0), 1.0)


# ---------------------------------------------------------------------------
# verify accepts what solve accepts
# ---------------------------------------------------------------------------

def test_identities_run_over_small_boundaries_and_short_level_ranges():
    # the stencils stay outside the boundary sphere however close the levels come
    fails = set()
    for s0 in (1e-3, 3e-3, 0.01, 0.1, 1.0, 10.0):
        for t_max in (0.1, 0.3, 0.4, 1.0, 8.0):
            results, _ = run_verify(ScenarioConfig(s0=s0, t_max=t_max, suite="identities"),
                                    stream=io.StringIO())
            fails |= {(r.name, s0) for r in results if r.status == "FAIL"}
    # an absolute 1e-5 on a curvature of order s^-2 is far below roundoff there
    assert fails == {("power/curvature_fd_oracle", 1e-3), ("power/curvature_fd_oracle", 3e-3)}


@pytest.mark.parametrize("s_cap, width", [(1.2, 0.5), (1.3, 0.5), (1.0, 0.1), (1.0, 0.02)])
def test_blend_derivative_match_across_its_seams(capsys, s_cap, width):
    code = cli.main(["verify", "--suite", "monotonicity", "--kind", "sphere_cap_blend",
                     "--param", f"s_cap={s_cap}", "--param", f"blend_width={width}"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS  sphere_cap_blend/dF_explicit_match" in out


_SERIES_HEADROOM_CASES = [("sphere_cap_blend", {"s_cap": s_cap, "blend_width": width})
                          for s_cap, width in [(1.2, 0.5), (1.3, 0.5), (1.0, 0.1), (1.0, 0.02)]] + [
    ("power", {"beta": beta}) for beta in (0.508, 0.51)]


@pytest.mark.parametrize("kind, params", _SERIES_HEADROOM_CASES,
                         ids=[f"{k}-{'-'.join(map(str, p.values()))}" for k, p in _SERIES_HEADROOM_CASES])
def test_series_derivative_rows_keep_headroom_at_the_suite_spacing(kind, params):
    # the five-point error is O(dt^4), so a tenth of the 1e-4 contract fails a spacing a few times coarser
    cfg = ScenarioConfig(metric_kind=kind, metric_params=params, suite="monotonicity")
    results, _ = run_verify(cfg, stream=io.StringIO())
    measured = {r.name.split("/")[1]: r.measured for r in results}
    assert measured["dF_explicit_match"] <= 1e-5
    assert measured["G_ode"] <= 1e-5


@pytest.mark.parametrize("t_max", ["0.3", "0.4"])
def test_verify_all_with_a_short_level_range(capsys, t_max):
    assert cli.main(["verify", "--suite", "all", "--t-max", t_max]) == 0
    assert "74 checks, 0 failed" in capsys.readouterr().out
