"""Mutation census: which one-line faults tier-1 and ``verify --suite all`` catch.

    python tools/mutants.py [--rev REV]

The script unpacks ``REV`` (default HEAD) with ``git archive`` into a
temporary directory, so the checkout is never edited.  It first runs the
unmutated copy, which must pass both gates.  Then, for each mutant of
``MUTANTS`` in turn, it replaces the mutant's old text (which must occur
exactly once in its file) with the new text, runs

- tier-1: ``python -m pytest -q -x`` in the copy, so the run stops at the
  first failing test, and
- ``pinchlab verify --suite all`` under ``-W error::RuntimeWarning``,

and puts the file back.  It prints one line per mutant naming what caught
it: the first failing test, and the failing ``verify`` rows or the exit
code ("passed" for a gate that did not), and SURVIVED where neither did.
It ends with the count of caught mutants and exits 1 if any survived.  The
whole run takes about 2 minutes on a 2-core x86-64 machine.  It is not part
of tier-1.  To mutate uncommitted work, stage it and pass
``--rev "$(git stash create)"``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from golden import _tree_of

#: (name, file under src/pinchlab, old text, new text)
MUTANTS = (
    ("gl_order_12", "quadrature.py", "GL_ORDER = 16", "GL_ORDER = 12"),
    ("tail_budget_1e-5", "potential.py", "TAIL_BUDGET = 1e-10", "TAIL_BUDGET = 1e-5"),
    ("pinch_slack_1e-6", "metrics.py", "PINCH_SLACK = 1e-12", "PINCH_SLACK = 1e-6"),
    ("margin_points_40", "metrics.py", "MARGIN_POINTS = 400", "MARGIN_POINTS = 40"),
    ("k_tan_1e-9", "metrics.py", "k_tan = (1.0 - df * df) / (f * f)",
     "k_tan = (1.0 - df * df) / (f * f) * (1.0 + 1e-9)"),
    ("H_1e-9", "functionals.py", "H = 2.0 * df / f", "H = 2.0 * df / f * (1.0 + 1e-9)"),
    ("ncap_1e-9", "potential.py", "self.ncap = 1.0 / i0", "self.ncap = 1.0 / i0 * (1.0 + 1e-9)"),
    ("G_1e-8", "functionals.py", "G = area * gw * gw", "G = area * gw * gw * (1.0 + 1e-8)"),
    ("dF_1e-7", "functionals.py", "dF = -area * (ric_rad + 0.5 * (H - 2.0 * gw) ** 2)",
     "dF = -area * (ric_rad + 0.5 * (H - 2.0 * gw) ** 2) * (1.0 + 1e-7)"),
    ("willmore_non_strict", "functionals.py", "bool(value < SIXTEEN_PI)", "bool(value <= SIXTEEN_PI)"),
    ("alpha_threshold_1.5", "asymptotics.py", "ALPHA_THRESHOLD = 4.0 / 3.0", "ALPHA_THRESHOLD = 1.5"),
    ("chain_exponent_x1.001", "asymptotics.py", "exponent = (alpha + 1.0) / (alpha - 1.0)",
     "exponent = (alpha + 1.0) / (alpha - 1.0) * 1.001"),
    ("log_kappa_+1e-3", "asymptotics.py", "- 3.0 * math.log(FOUR_PI * sol.ncap))",
     "- 3.0 * math.log(FOUR_PI * sol.ncap) + 1e-3)"),
    ("crossing_one_point_later", "asymptotics.py", "crossing = float(chain_t[np.argmax(crossed)])",
     "crossing = float(chain_t[min(np.argmax(crossed) + 1, len(chain_t) - 1)])"),
    ("flux_gate_off", "potential.py", "if worst > 1e-6:", "if worst > 1e6:"),
    ("refute_exit_always_0", "cli.py", 'return 1 if report.conclusion.startswith("CONTRADICTION") else 0',
     "return 0"),
    ("config_unchecked_at_construction", "config.py", "    def __post_init__(self):\n        self.validate()\n\n",
     ""),
    ("count_truncates_fractions", "config.py", "if isinstance(value, float) and value.is_integer():",
     "if isinstance(value, float) and math.isfinite(value):"),
)


def tier1(tree):
    """The first failing tier-1 test of ``tree``, or None."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"], cwd=tree, env=_env(tree),
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if run.returncode == 0:
        return None
    failed = [line.split(" - ")[0] for line in run.stdout.splitlines()  # the summary, not a captured log line
              if line.startswith(("FAILED tests/", "ERROR tests/"))]
    return failed[0] if failed else f"pytest exit {run.returncode}"


def verify(tree):
    """The failing ``verify --suite all`` rows of ``tree``, or its exit code and last stderr line where it
    ends otherwise than 0 or 1, or None."""
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "pinchlab.cli", "verify",
                          "--suite", "all"], cwd=tree, env=_env(tree), capture_output=True, text=True)
    if run.returncode == 0:
        return None
    fails = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAIL")]
    if run.returncode == 1 and fails:
        return f"{len(fails)} FAIL ({', '.join(fails[:3])}{', ...' if len(fails) > 3 else ''})"
    last = (run.stderr.strip().splitlines() or [""])[-1]
    return f"exit {run.returncode} ({last[:80]})"


def _env(tree):
    return {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to mutate (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tree:
        _tree_of(args.rev, tree)
        start = time.perf_counter()
        baseline = tier1(tree), verify(tree)
        if baseline != (None, None):
            sys.exit(f"{args.rev} itself fails: tier-1 {baseline[0]}; verify {baseline[1]}")
        print(f"{args.rev} unmutated: tier-1 and verify pass ({time.perf_counter() - start:.0f} s)")
        caught = 0
        for name, module, old, new in MUTANTS:
            path = Path(tree, "src", "pinchlab", module)
            source = path.read_text()
            if source.count(old) != 1:
                sys.exit(f"{name}: its old text occurs {source.count(old)} times in {module}, not once")
            path.write_text(source.replace(old, new))
            try:
                by = tier1(tree), verify(tree)
            finally:
                path.write_text(source)
            caught += by != (None, None)
            print(f"{name:<34} tier-1: {by[0] or 'passed'}; verify: {by[1] or 'passed'}"
                  + ("" if by != (None, None) else "; SURVIVED"), flush=True)
        print(f"{caught} of {len(MUTANTS)} mutants caught in {time.perf_counter() - start:.0f} s")
        return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
