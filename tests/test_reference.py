"""I(s) and the level radius s(t) against an independent 30-digit reference, for
profiles with no closed form.

The reference integrates f^-2 with mpmath's tanh-sinh rule at 30 digits,
f itself evaluated in double, on segments between the query radii, the
profile's breakpoints and one cut per decade above the last radius, from
the top down to the boundary.  Past
min(1e14, the table end) it adds the pure tail law c^-2 s^(1-2 beta)/(2 beta - 1).
So it shares with the package only the profile's values, not its panels,
its Chebyshev sums or its choice of s_cut.
"""

import numpy as np
import pytest

import pinchlab as pl

mp = pytest.importorskip("mpmath")

#: the reference stops at this radius, or at the table end, and adds the tail law beyond
TOP = 1e14
#: tanh-sinh degree: on segments of at most a decade it reads every I(s) of the cases below
#: as mpmath's default degree does, in a quarter of the time
DEGREE = 5


def reference_tail(metric, radii):
    """I at each of the ascending ``radii``, in 30-digit arithmetic, rounded to double."""
    top = min(TOP, metric.domain_end)
    with mp.workdps(30):
        c, beta = mp.mpf(metric.tail_coefficient), mp.mpf(metric.tail_exponent)
        f2 = lambda x: mp.mpf(float(metric.f(float(x)))) ** -2
        decades = np.geomspace(radii[-1], top, max(int(np.ceil(np.log10(top / radii[-1]))), 1) + 1)
        cuts = sorted({*radii, *decades.tolist(), *(b for b in metric.breakpoints if radii[0] < b < top)})
        total = mp.mpf(top) ** (1 - 2 * beta) / (c * c * (2 * beta - 1))
        at = {top: total}
        for a, b in reversed(list(zip(cuts[:-1], cuts[1:]))):
            total += mp.quad(f2, [a, b], maxdegree=DEGREE)
            at[a] = total
        return np.array([float(at[r]) for r in radii])


def _benchmark_table():
    # a benchmark-shaped table: f = c s^beta on log-spaced rows from 0.1 to s_end
    s = np.geomspace(0.1, 1e4, 500)
    return pl.from_table(s, 1.3 * s ** 0.8)


#: (profile, floor, slope): the relative error of I(s) may reach floor + slope * s / usable_hi.
#: The analytic tail stands in past s_cut within TAIL_BUDGET = 1e-10 of I(usable_hi), so its
#: error grows like s / usable_hi; measured at s0 = 1, t_max = 8 (worst over the 25 radii):
#: blend 1.84e-11 at usable_hi, Schwarzschild 1.28e-11 at usable_hi, the table 1.23e-14
#: (its law is exact, so only roundoff is left), and 6.7e-16 and 8.9e-16 at s0.
#: The error in a level t = log(I(s0)/I(s(t))) is that of I(s(t))/I(s0), so the same bound holds
#: at s(t); measured worst over 25 levels on [0, t_max]: blend 2.44e-12 and Schwarzschild 2.51e-12
#: at t = 8, the table 2.26e-14 (its t_max is 5.53, where the table ends).
CASES = {
    "sphere_cap_blend": (lambda: pl.build_metric("sphere_cap_blend"), 5e-15, 1e-10),
    "schwarzschild": (lambda: pl.build_metric("schwarzschild"), 5e-15, 1e-10),
    "table": (_benchmark_table, 1e-13, 0.0),
}


@pytest.mark.parametrize("name", CASES)
def test_tail_integral_matches_a_30_digit_reference(name):
    make, floor, slope = CASES[name]
    sol = pl.PotentialSolution(pl.ExteriorDomain(make(), 1.0))
    radii = np.geomspace(sol.s0, sol._integ.usable_hi, 25)
    err = np.abs(sol.tail(radii) / reference_tail(sol.metric, list(radii)) - 1.0)
    bound = floor + slope * radii / radii[-1]
    assert np.all(err <= bound), (err / bound).max()


@pytest.mark.parametrize("name", CASES)
def test_level_radius_matches_a_30_digit_reference(name):
    make, floor, slope = CASES[name]
    sol = pl.PotentialSolution(pl.ExteriorDomain(make(), 1.0))
    t = np.linspace(0.0, sol.t_max, 25)
    s = sol.s_of_t(t)
    assert s[0] == sol.s0
    ref = reference_tail(sol.metric, list(s))
    err = np.abs(t - np.log(ref[0] / ref))
    bound = floor + slope * s / sol._integ.usable_hi
    assert np.all(err <= bound), (err / bound).max()
