"""The extreme-scale verify probe: 61 inputs at the edges of the float range, each pinned.

Each input runs ``verify`` (suite all) in process with RuntimeWarning as an
error, so a warning that escapes the numerics fails its test instead of
printing.  Each pins the exit code, the first stderr line and the set of
FAIL rows.  The expected FAILs are known limits: the curvature oracle's step
floor at a small s0, the absolute ``scalar_flatness`` tolerance at a small
Schwarzschild mass, and the identity stencils at t_max = 1e-6.  A change
that moves an entry updates it here and says why in CHANGES.md.
"""

import contextlib
import io
import warnings

import pytest

import pinchlab.cli as cli

_CAUSE = "precondition failure: "
_PROBE_END = "where the tail-law probe ends"
_TINY_C = "is too small; f^-2 ~ c^-2 s^(-2 beta) cannot be represented"
_HORIZON = "the horizon curvature, of order 1/m^2, passes the float range"
_COINCIDE = "t_max=1e-13 is too small for 2001 levels: their radii coincide"
_ORACLE, _SMALL_T = ("power/curvature_fd_oracle",), ("functional_bounds", "potential_identities")

#: (verify arguments, exit code, first stderr line after "precondition failure: ", FAIL rows)
PROBE = [
    ("--kind power --param beta=0.5001", 2,
     f"power(c=1, beta=0.5001): the level t=5 lies near s=1e11074.5, past s=1e+300 {_PROBE_END}", ()),
    ("--kind power --param beta=0.501", 2,
     f"power(c=1, beta=0.501): the level t=5 lies near s=1e1107.5, past s=1e+300 {_PROBE_END}", ()),
    ("--kind power --param beta=0.503", 2,
     f"power(c=1, beta=0.503): the level t=5 lies near s=1e369.2, past s=1e+300 {_PROBE_END}", ()),
    ("--kind power --param beta=0.505", 2,
     "power(c=1, beta=0.505): |grad w|^2 underflows at the level radii up to s=1.9493e+206", ()),
    ("--kind power --param beta=0.506", 2,
     "power(c=1, beta=0.506): |grad w|^2 underflows at the level radii up to s=8.09529e+171", ()),
    ("--kind power --param beta=0.5065", 2,
     "power(c=1, beta=0.5065): |grad w|^2 underflows at the level radii up to s=4.8364e+158", ()),
    *((f"--kind power --param beta={b}", 0, "", ())
      for b in ("0.507", "0.508", "0.51", "0.515", "0.52", "0.53", "0.55")),
    ("--kind power --param beta=0.507 --s0 1e-3", 1, "", _ORACLE),
    ("--kind power --param beta=0.52 --s0 1e-3", 1, "", _ORACLE),
    ("--kind power --param beta=0.52 --s0 10", 0, "", ()),
    ("--kind power --param beta=0.52 --s0 1e50", 0, "", ()),
    ("--kind power --param c=1e-160", 2, f"power(c=1e-160, beta=0.8): tail coefficient c=1e-160 {_TINY_C}", ()),
    *((f"--kind power --param c={c}", 0, "", ()) for c in ("1e-150", "1e-100", "1e-50", "1e50", "1e100")),
    ("--kind power --param c=1e150", 2,
     "power(c=1e+150, beta=0.8): ball volumes overflow at the level radii up to s=2751.77", ()),
    *((f"--kind power --param c={c}", 2,
       f"power(c={c[0]}e+{c[2:]}, beta=0.8): I(s0), the integral of f^-2, underflows to 0 at s0=1", ())
      for c in ("1e200", "1e300")),
    *((f"--kind cone --param a={a}", 2, f"cone(a={a}): tail coefficient c={a} {_TINY_C}", ())
      for a in ("1e-300", "1e-200")),
    *((f"--kind cone --param a={a}", 0, "", ()) for a in ("1e-150", "1e-100", "1e-10")),
    *((f"--kind schwarzschild --param m={m}", 2, f"schwarzschild(m={m}): {_HORIZON}", ())
      for m in ("1e-300", "1e-160")),
    ("--kind schwarzschild --param m=1e-10", 1, "", ("schwarzschild/scalar_flatness",)),
    *((f"--kind schwarzschild --param m={m}", 0, "", ())
      for m in ("1e-154", "1e-100", "1e-5", "1e10", "1e50", "1e100")),
    ("--s0 1e-300", 2, "flat: I(s0), the integral of f^-2, overflows at s0=1e-300", ()),
    ("--s0 1e-100", 1, "", _ORACLE),
    ("--s0 1e-10", 1, "", _ORACLE),
    *((f"--s0 {s0}", 0, "", ()) for s0 in ("1e10", "1e50", "1e100")),
    ("--s0 1e104", 2, "flat: ball volumes overflow at the level radii up to s=1.15816e+106", ()),
    ("--s0 1e200", 2, "flat: f=1.64e+202 at s=1.64e+202 passes 2^510 on the tail grid sized for t_max=5 "
                      "(s0=1e+200, tail coefficient 1)", ()),
    ("--kind sphere_cap_blend --s0 1e-300", 2,
     "sphere_cap_blend(s_cap=1, blend_width=0.5): I(s0), the integral of f^-2, overflows at s0=1e-300", ()),
    *((f"--kind sphere_cap_blend --s0 {s0}", 0, "", ()) for s0 in ("1e-100", "1e-10", "1e-3")),
    *((f"--kind {kind} --t-max 1e-13", 2, _COINCIDE, ()) for kind in ("power", "sphere_cap_blend")),
    *((f"--kind {kind} --t-max 1e-6", 1, "", tuple(f"{kind}/{row}" for row in _SMALL_T))
      for kind in ("power", "sphere_cap_blend")),
    *((f"--kind power --t-max {t}", 0, "", ()) for t in ("0.01", "50", "300")),
    *((f"--kind sphere_cap_blend --t-max {t}", 0, "", ()) for t in ("50", "300")),
]


def test_probe_has_61_distinct_inputs():
    assert len({args for args, *_ in PROBE}) == len(PROBE) == 61


@pytest.mark.parametrize("args, code, cause, fails", PROBE, ids=[p[0] for p in PROBE])
def test_verify_probe_entry(args, code, cause, fails):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli.main(["verify", *args.split()])
    first = (err.getvalue().splitlines() or [""])[0]
    failed = tuple(sorted(line.split()[1] for line in out.getvalue().splitlines() if line.startswith("FAIL")))
    assert (got, first, failed) == (code, _CAUSE + cause if cause else "", fails)
