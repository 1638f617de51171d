import numpy as np
import pytest

import pinchlab as pl

#: grid spacing fine enough for the series derivatives of the blend
#: profile (|F'''| ~ 3e3 in the transition region)
DENSE_N = 20001
T_MAX = 5.0


@pytest.fixture(scope="session")
def catalog_bundle():
    """Solved potential + densely sampled series for every catalog metric (s0 = 1)."""
    out = {}
    for name, metric in pl.default_catalog():
        sol = pl.PotentialSolution(pl.ExteriorDomain(metric, 1.0), t_max=T_MAX)
        series = pl.build_series(sol, n=DENSE_N)
        out[name] = (metric, sol, series)
    return out


@pytest.fixture(scope="session")
def solve_cache():
    """Memoized solver for one-off (kind, params, s0) combinations."""
    cache = {}

    def get(kind, s0, t_max=T_MAX, **params):
        key = (kind, tuple(sorted(params.items())), float(s0), float(t_max))
        if key not in cache:
            metric = pl.build_metric(kind, params)
            cache[key] = pl.PotentialSolution(pl.ExteriorDomain(metric, s0), t_max=t_max)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def sine_profile():
    """The round sphere profile f = sin(s), used for pointwise curvature tests."""
    return pl.WarpFunction("sphere", np.sin, lambda s: (np.sin(s), np.cos(s), -np.sin(s)),
                           tail_exponent=1.0)
