"""Golden diff and exit-code census of this checkout against a git revision.

    python tools/golden.py --against <rev>

The script unpacks ``<rev>`` with ``git archive`` into a temporary
directory, so it makes no worktree and needs no network.  It then runs the
same sets in that tree and in this checkout, each tree in its own process
under ``-W error::RuntimeWarning`` with the tree's ``src`` first on the
path, and every command in process through ``pinchlab.cli.main``:

- the golden set: the 5 catalog kinds x s0 in {0.5, 1, 3} and the 4
  ``tables()``, each with ``solve --t-max 8 --n-samples 2001``, ``refute``
  and ``verify --suite all --json-out``; a 45-scenario ``sweep`` over the
  5 kinds and 3 s0 with epsilon in {0.1, 0.2, 1/3}; a 6-scenario
  ``sweep-closing`` of power beta 0.9 at s0 in {0.5, 1, 3} and epsilon in
  {1e-3, 1e-2}, whose certificates all reach the closing branch ("all
  hypotheses hold on the sampled window"); and the certificates
  of the benchmark's ``refute_grid`` pools for ``POOL_SEEDS``, one file a
  pool, from ``perfbench/workloads.py`` (imported, never written);
- the census: the 61 ``verify`` inputs of ``tests/test_verify_probe.py``,
  and the random box (3 seeds x 150 draws) through ``solve``, ``refute``
  and ``verify --suite all`` each.  A box draw takes its kind uniformly
  from the 5, then cone a in [0.01, 1]; power c log-uniform in [0.25, 4]
  and beta in [0.53, 1]; Schwarzschild m log-uniform in [0.1, 10]; blend
  s_cap in [0.05, 1.5] and a width log-uniform in
  [0.02, min(3, 2.9 cot s_cap)]; and s0 log-uniform in [1e-3, 10], t_max
  log-uniform in [0.1, 8] and epsilon in [0.01, 1/3]; and ``refute`` on
  each of 300 seeded user tables (``fuzz_tables``), whose certificates are
  also a golden file, keyed by table; and the extreme-scale grids ``grid_a``
  (105 ``refute`` runs) and ``grid_b`` (800 ``refute`` and ``solve`` runs),
  whose files are not compared; and the 26 ``config_documents()``, each
  through ``refute --config`` (``sweep --config`` where it has a sweep
  section).

A command that raises out of ``cli.main`` is recorded as exit code 1 with
first and last line "ExceptionType: message".  The script prints, for each
golden file, "identical" or the largest relative change
|a - b| / max(|a|, |b|) over its numbers and where it occurs, with how many
numbers moved out of how many (and, for a file of certificates, how many
certificates moved and how many changed their conclusion); each census
input or golden command whose exit code, first or last stderr line (the
last names the cause where a log warning comes first) or FAIL set
changed; and the ``src/`` line count of both trees.  Both trees run this
checkout's copy of the script and of the probe list, so they see the same
inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
KINDS = ("flat", "cone", "power", "schwarzschild", "sphere_cap_blend")
S0S = ("0.5", "1", "3")
EPSILONS = (0.1, 0.2, 1.0 / 3.0)
BOX_SEEDS, BOX_DRAWS = (0, 1, 2), 150
#: seeds of the ``refute_grid`` pools, 120 scenarios each
POOL_SEEDS = (1, 2, 3)
FUZZ_SEED, FUZZ_TABLES = 29, 300
FUZZ_FAMILIES = ("smooth", "noisy", "ripple", "spike", "linear")
#: golden files of certificates by op or table; their diff also counts moved certificates and conclusions
CERTIFICATE_FILES = tuple(f"refute_grid-seed{seed}.json" for seed in POOL_SEEDS) + ("table_fuzz.json",)


def tables():
    """(name, s column, f column, the s0 values it runs at) of each golden table.  Three power laws
    shaped like the benchmark's, on log-spaced rows from 0.1 (``tests/test_cli.py``), and one whose
    first row is s = 0, so that its tail integrator, run from s0 = 0, starts at a zero edge."""
    import numpy as np

    out = []
    for k, (beta, c, s_end, rows, s0) in enumerate([(0.62, 0.7, 1.3e3, 231, "0.3"), (0.8, 1.9, 2e4, 517, "1.7"),
                                                    (0.97, 1.1, 9e4, 788, "3.6")]):
        s = 0.1 * (s_end / 0.1) ** (np.arange(rows) / (rows - 1))
        out.append((f"power{k}", s, c * s ** beta, (s0,)))
    s = 50.0 * np.arange(400) / 399
    return out + [("zero_start", s, np.sqrt(s * s + 0.25 * s + 1.0), ("0", "1"))]


# ---------------------------------------------------------------------------
# One tree: run every command and record what it wrote and said
# ---------------------------------------------------------------------------

def fuzz_tables():
    """(name, s column, f column, s0) of each of the ``FUZZ_TABLES`` seeded fuzz tables, the families taken
    in turn.  Each is a power law f = c s^beta, c log-uniform in [0.25, 4] and beta in [0.53, 1], on 20 to
    900 rows from s log-uniform in [0.01, 1] to s log-uniform in [1e2, 1e5], log-spaced but for the linear
    family; noisy tables multiply f by log-normal noise of sigma log-uniform in [1e-4, 0.1], ripple tables
    by 1 + a sin(k log s) with a in [0.01, 0.5] and k in [1, 40], and spike tables one row by a factor
    log-uniform in [1e-3, 10].  s0 is log-uniform over the first quarter of the table's log-range."""
    import numpy as np

    rng = np.random.default_rng(FUZZ_SEED)
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
    out = []
    for k in range(FUZZ_TABLES):
        family = FUZZ_FAMILIES[k % len(FUZZ_FAMILIES)]
        rows, lo, hi = int(rng.integers(20, 901)), log_uniform(0.01, 1.0), log_uniform(1e2, 1e5)
        s = np.linspace(lo, hi, rows) if family == "linear" else lo * (hi / lo) ** (np.arange(rows) / (rows - 1))
        f = log_uniform(0.25, 4.0) * s ** rng.uniform(0.53, 1.0)
        if family == "noisy":
            f *= np.exp(rng.normal(0.0, log_uniform(1e-4, 0.1), rows))
        elif family == "ripple":
            f *= 1.0 + rng.uniform(0.01, 0.5) * np.sin(rng.uniform(1.0, 40.0) * np.log(s))
        elif family == "spike":
            f[rng.integers(rows)] *= log_uniform(1e-3, 10.0)
        out.append((f"{k:03d}-{family}", s, f, repr(log_uniform(lo, lo * (hi / lo) ** 0.25))))
    return out


def _write_table(path, s, f):
    with open(path, "w") as fh:
        fh.write("s,f\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(s, f)))


def _run(cli, argv):
    """``cli.main(argv)`` in process: (exit code, first and last stderr line, sorted FAIL rows).  An
    exception that escapes ``main`` is recorded as exit code 1 with first and last line
    "ExceptionType: message"."""
    out, err, escaped = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is an outcome to compare, not the end of the run
            code, escaped = 1, f"{type(exc).__name__}: {exc}"
    lines = (escaped or err.getvalue()).splitlines() or [""]
    fails = sorted(line.split()[1] for line in out.getvalue().splitlines() if line.startswith("FAIL"))
    return {"argv": " ".join(argv), "code": code, "first": lines[0], "last": lines[0] if escaped else lines[-1],
            "fails": fails}


def _profile(kind, *params):
    return ["--kind", kind, *itertools.chain.from_iterable(("--param", p) for p in params)]


def grid_a():
    """The 105 ``refute`` argument lists of grid A: the 5 catalog kinds at their defaults, power
    c in {1e52, 1e100, 1e154, 1e160, 1e300, 1e-80}, Schwarzschild m in {1e100, 1e300} and cone
    a in {1e-60, 1e-100}, each with no flag, with ``--s0`` in {1e104, 1e200, 1e300} and with
    ``--t-max`` in {180, 400, 1e4}."""
    profiles = ([_profile(kind) for kind in KINDS]
                + [_profile("power", f"c={c}") for c in ("1e52", "1e100", "1e154", "1e160", "1e300", "1e-80")]
                + [_profile("schwarzschild", f"m={m}") for m in ("1e100", "1e300")]
                + [_profile("cone", f"a={a}") for a in ("1e-60", "1e-100")])
    flags = ([[]] + [["--s0", s0] for s0 in ("1e104", "1e200", "1e300")]
             + [["--t-max", t_max] for t_max in ("180", "400", "1e4")])
    return [["refute", *profile, *flag, "--out-dir", "grids"] for profile in profiles for flag in flags]


def grid_b():
    """The 800 argument lists of grid B, ``refute`` and ``solve`` each with ``--n-samples 101``: flat,
    cone a in {0.6, 1e-100}, power at its defaults, at beta=0.55 and at c in {1e100, 1e153, 1e-100},
    Schwarzschild and the blend, each at s0 in {1e-300, 1e-200, 1e-100, 1e-20, 1, 1e50, 1e150, 1e300}
    and t_max in {8, 100, 300, 500, 1e4}."""
    profiles = ([_profile("flat"), _profile("cone", "a=0.6"), _profile("cone", "a=1e-100"), _profile("power"),
                 _profile("power", "beta=0.55")]
                + [_profile("power", f"c={c}") for c in ("1e100", "1e153", "1e-100")]
                + [_profile("schwarzschild"), _profile("sphere_cap_blend")])
    s0s = ("1e-300", "1e-200", "1e-100", "1e-20", "1", "1e50", "1e150", "1e300")
    return [[command, *profile, "--s0", s0, "--t-max", t_max, "--n-samples", "101", "--out-dir", "grids"]
            for profile, s0, t_max in itertools.product(profiles, s0s, ("8", "100", "300", "500", "1e4"))
            for command in ("refute", "solve")]


#: (config document, extra flags, what the usage error names) of each malformed input; the table of
#: ``tests/test_cli.py::test_malformed_input_is_usage_error``
MALFORMED = (
    ({"s0": "abc"}, [], "s0"),
    ({"s0": None}, [], "s0"),
    ({"n_samples": "x"}, [], "n_samples"),
    ({"n_samples": math.nan}, [], "n_samples"),
    ({"chain_points": math.inf}, [], "chain_points"),
    ({"n_samples": 1e30}, [], "n_samples"),
    ({"growth_window": ["a", 2]}, [], "growth_window"),
    ({"metric": {"kind": "flat", "params": [1]}}, [], "metric"),
    ({"metric": {"kind": "flat", "params": None}}, [], "metric"),
    ({"sweep": {"s0": ["a"]}}, [], "sweep axis 's0'"),
    ({}, ["--kind", "power", "--param", "beta=x"], "'beta'"),
    ({}, ["--kind", "user_table", "--param", "path=t.csv", "--param", "tail_exponent=abc"],
     "'tail_exponent'"),
    ({}, ["--kind", "user_table", "--param", "path=3"], "table 3"),
    ({"out_dir": None}, [], "out_dir"),
    ({"sweep": {"s0": []}}, [], "sweep axis 's0'"),
)


def config_documents():
    """(config document, extra flags) of the config-path census: the 15 ``MALFORMED`` inputs, one
    out-of-range value per checked key and sweep axis, a document with two faults (the first field in
    ``config._FIELDS`` order is named), a file value out of range under a flag that overrides it, and
    one valid document."""
    malformed = [(doc, flags) for doc, flags, _ in MALFORMED]
    out_of_range = [{"epsilon": 0.5}, {"n_samples": 2}, {"chain_points": 2e6}, {"t_max": 0},
                    {"growth_window": [2, 1]}, {"suite": "x"}, {"sweep": {"epsilon": [0.5]}},
                    {"sweep": {"s0": [math.nan]}}, {"epsilon": 0.9, "n_samples": 2.5}]
    return (malformed + [(doc, []) for doc in out_of_range] + [({"epsilon": 0.9}, ["--epsilon", "0.2"]),
            ({"metric": {"kind": "cone", "params": {"a": 0.5}}, "epsilon": 0.2}, [])])


def config_census(cli):
    """Run each of ``config_documents()`` from its own file under ``configs/`` and return the runs."""
    os.mkdir("configs")
    runs = []
    for k, (doc, flags) in enumerate(config_documents()):
        path = f"configs/config{k:02d}.json"
        with open(path, "w") as fh:
            json.dump({"out_dir": f"configs/out{k:02d}", **doc}, fh)
        runs.append(_run(cli, ["sweep" if "sweep" in doc else "refute", "--config", path, *flags]))
    return runs


def box_draws(seed):
    """The scenario flags of ``BOX_DRAWS`` seeded draws from the random box."""
    import numpy as np

    rng = np.random.default_rng(seed)
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
    draws = []
    for _ in range(BOX_DRAWS):
        kind = KINDS[rng.integers(len(KINDS))]
        if kind == "cone":
            params = {"a": rng.uniform(0.01, 1.0)}
        elif kind == "power":
            params = {"c": log_uniform(0.25, 4.0), "beta": rng.uniform(0.53, 1.0)}
        elif kind == "schwarzschild":
            params = {"m": log_uniform(0.1, 10.0)}
        elif kind == "sphere_cap_blend":
            s_cap = rng.uniform(0.05, 1.5)
            params = {"s_cap": s_cap, "blend_width": log_uniform(0.02, min(3.0, 2.9 / math.tan(s_cap)))}
        else:
            params = {}
        draws.append(_profile(kind, *(f"{k}={float(v)!r}" for k, v in params.items()))
                     + ["--s0", repr(log_uniform(1e-3, 10.0)), "--t-max", repr(log_uniform(0.1, 8.0)),
                        "--epsilon", repr(rng.uniform(0.01, 1.0 / 3.0))])
    return draws


def produce(out):
    """Run the golden set and the census with ``out`` as the working directory; write ``runs.json``
    and the golden files under ``golden/``.  Paths are relative, so both trees write the same
    ``out_dir`` into their files."""
    os.chdir(out)
    import pinchlab
    import pinchlab.cli as cli

    print(f"pinchlab from {Path(pinchlab.__file__).parent}", file=sys.stderr)
    scenarios = [(f"{kind}-s0={s0}", ["--kind", kind, "--s0", s0]) for kind, s0 in itertools.product(KINDS, S0S)]
    os.mkdir("tables")
    for name, s, f, s0s in tables():
        _write_table(f"tables/{name}.csv", s, f)
        scenarios += [(f"table-{name}-s0={s0}", ["--kind", "user_table", "--param", f"path=tables/{name}.csv",
                                                 "--s0", s0]) for s0 in s0s]
    golden = []
    for name, flags in scenarios:
        golden += [_run(cli, ["solve", *flags, "--t-max", "8", "--n-samples", "2001",
                              "--out-dir", f"golden/solve-{name}"]),
                   _run(cli, ["refute", *flags, "--out-dir", f"golden/refute-{name}"]),
                   _run(cli, ["verify", *flags, "--suite", "all", "--json-out", f"golden/verify-{name}.json"])]
    sweeps = {"sweep": {"sweep": {"kind": list(KINDS), "s0": [float(s) for s in S0S], "epsilon": list(EPSILONS)}},
              "sweep-closing": {"metric": {"kind": "power", "params": {"beta": 0.9}},
                                "sweep": {"s0": [0.5, 1.0, 3.0], "epsilon": [0.001, 0.01]}}}
    for name, doc in sweeps.items():
        with open(f"{name}_config.json", "w") as fh:
            json.dump(doc, fh)
        golden.append(_run(cli, ["sweep", "--config", f"{name}_config.json", "--out-dir", f"golden/{name}"]))
    refute_grid_pools()

    spec = importlib.util.spec_from_file_location("verify_probe", REPO / "tests" / "test_verify_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    census = [_run(cli, ["verify", *args.split()]) for args, *_ in probe.PROBE]
    for seed in BOX_SEEDS:
        for flags in box_draws(seed):
            census += [_run(cli, [command, *flags, "--out-dir", "box"]) for command in ("solve", "refute")]
            census.append(_run(cli, ["verify", *flags, "--suite", "all"]))
    census += table_fuzz(cli)
    census += [_run(cli, argv) for argv in grid_a() + grid_b()]
    census += config_census(cli)
    with open("runs.json", "w") as fh:
        json.dump({"golden": golden, "census": census}, fh)


def refute_grid_pools():
    """Write each ``refute_grid`` pool's certificates, by op key, to ``golden/refute_grid-seed<n>.json``;
    an op that raises has its exception in place of a certificate.  Log lines are dropped."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    for seed in POOL_SEEDS:
        work = f"pools/seed{seed}"
        os.makedirs(work)
        grid, certificates = workloads.RefuteGrid(work, seed, None), {}
        for op in grid.ops():
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    certificates[op.key] = json.loads(grid.run(op))
            except Exception as exc:  # a failed op is an outcome to compare, not the end of the run
                certificates[op.key] = f"{type(exc).__name__}: {exc}"
        with open(f"golden/refute_grid-seed{seed}.json", "w") as fh:
            json.dump(certificates, fh, indent=1, sort_keys=True)


def table_fuzz(cli):
    """``refute`` each fuzz table at its s0 and return the runs; write the certificates that the runs
    wrote, by table name, to ``golden/table_fuzz.json``."""
    os.mkdir("fuzz")
    runs, certificates = [], {}
    for name, s, f, s0 in fuzz_tables():
        _write_table(f"fuzz/{name}.csv", s, f)
        runs.append(_run(cli, ["refute", "--kind", "user_table", "--param", f"path=fuzz/{name}.csv",
                               "--s0", s0, "--out-dir", f"fuzz/{name}"]))
        written = Path(f"fuzz/{name}/refutation.json")
        if written.is_file():
            certificates[name] = json.loads(written.read_text())
    with open("golden/table_fuzz.json", "w") as fh:
        json.dump(certificates, fh, indent=1, sort_keys=True)
    return runs


# ---------------------------------------------------------------------------
# Both trees: compare
# ---------------------------------------------------------------------------

def _leaves(doc, where=""):
    """(where, value) for every scalar of a JSON document or a CSV table."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], f"{where}.{key}" if where else key)
    elif isinstance(doc, list):
        for i, item in enumerate(doc):  # a verify row is named by its check
            yield from _leaves(item, f"{where}[{item['name'] if isinstance(item, dict) and 'name' in item else i}]")
    else:
        yield where, doc


def _load(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    rows = list(csv.reader(path.read_text().splitlines()))
    return [{col: _number(v) for col, v in zip(rows[0], row)} for row in rows[1:]]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff_file(a_path, b_path):
    """"identical", or the largest relative change between two output files and where it occurs, and how
    many of the numbers moved; for a file of ``CERTIFICATE_FILES``, also how many certificates moved and
    how many of them changed their conclusion."""
    if a_path.read_bytes() == b_path.read_bytes():
        return "identical"
    docs = _load(a_path), _load(b_path)
    a, b = (dict(_leaves(doc)) for doc in docs)
    if a.keys() != b.keys():
        text = f"layout changed: {len(a.keys() ^ b.keys())} entries in one file only"
    else:
        worst, other, numbers, moved = (0.0, None), [], 0, 0
        for where in a:
            x, y = a[where], b[where]
            numbers += _is_number(x)
            if x == y or (_is_number(x) and _is_number(y) and math.isnan(x) and math.isnan(y)):
                continue
            moved += _is_number(x)
            if _is_number(x) and _is_number(y) and math.isfinite(x) and math.isfinite(y):
                rel = abs(x - y) / max(abs(x), abs(y))
                worst = max(worst, (rel, f"{where} ({x!r} -> {y!r})"))
            else:
                other.append(f"{where} ({x!r} -> {y!r})")
        text = f"largest relative change {worst[0]:.3g} at {worst[1]}" if worst[1] else "no finite number moved"
        text += f"; {moved} of {numbers} numbers moved"
        text += f"; {len(other)} other values changed, first {other[0]}" if other else ""
    if a_path.name in CERTIFICATE_FILES:
        text += "; " + _certificates_moved(*docs)
    return text


def _certificates_moved(a, b):
    """How many of the certificates of a and b, by key, moved, and how many changed their conclusion.  A
    pool op that raised has its exception, a string, in place of a certificate; a fuzz run that wrote no
    certificate has no key."""
    conclusion = lambda c: c.get("conclusion") if isinstance(c, dict) else c
    same = lambda x, y: json.dumps(x, sort_keys=True) == json.dumps(y, sort_keys=True)  # NaN equals NaN
    keys = a.keys() | b.keys()
    moved = [k for k in keys if not same(a.get(k), b.get(k))]
    changed = sum(conclusion(a.get(k)) != conclusion(b.get(k)) for k in moved)
    return f"{len(moved)} of {len(keys)} certificates moved, {changed} changed conclusion"


def run_changes(was, now):
    """"field old -> new" for each field of two records of one run that differs: exit code, first and last
    stderr line, or FAIL set."""
    return [f"{key} {was[key]!r} -> {now[key]!r}" for key in ("code", "first", "last", "fails")
            if was[key] != now[key]]


def src_lines(root):
    """The line count of the Python files under ``root/src``."""
    return sum(len(path.read_text().splitlines()) for path in Path(root, "src").rglob("*.py"))


def _tree_of(rev, dest):
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def _produce_in(tree, out):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(TOOLS)])}
    subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                    f"import golden; golden.produce({str(out)!r})"], env=env, check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare this checkout with")
    rev = parser.parse_args(argv).against
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        tmp = Path(tmp)
        tree, old, new = tmp / "tree", tmp / "out-rev", tmp / "out-here"
        for path in (tree, old, new):
            path.mkdir()
        _produce_in(_tree_of(rev, tree), old)
        _produce_in(REPO, new)

        files = sorted({p.relative_to(old) for p in (old / "golden").rglob("*") if p.is_file()}
                       | {p.relative_to(new) for p in (new / "golden").rglob("*") if p.is_file()})
        identical = 0
        for rel in files:
            if not (old / rel).is_file() or not (new / rel).is_file():
                print(f"{rel}: only in {rev if (old / rel).is_file() else 'this checkout'}")
                continue
            verdict = diff_file(old / rel, new / rel)
            identical += verdict == "identical"
            print(f"{rel}: {verdict}")
        print(f"golden: {identical} of {len(files)} files identical")

        runs = [json.loads((out / "runs.json").read_text()) for out in (old, new)]
        for part in ("golden", "census"):
            moved = 0
            for was, now in zip(runs[0][part], runs[1][part]):
                changes = run_changes(was, now)
                if changes:
                    moved += 1
                    print(f"moved: {was['argv']}: " + "; ".join(changes))
            codes = sorted({r["code"] for r in runs[1][part]})
            tally = ", ".join(f"{sum(r['code'] == c for r in runs[1][part])} x {c}" for c in codes)
            print(f"{part} runs: {len(runs[1][part])} ({tally} in this checkout), {moved} moved")
        print(f"src/ lines: {src_lines(tree)} at {rev}, {src_lines(REPO)} in this checkout")


if __name__ == "__main__":
    main()
