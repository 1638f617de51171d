"""pinchlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload refute_grid --seed 1 --seconds 20 --trace 0

Runs from the root of a pinchlab checkout and measures the sources in
``src/``.  Prints every metric by name and unit, the failing inputs and
an output digest and the outcome of each known-defect probe op, then,
as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: The whole run, set-ups included, must end well inside three minutes.
RUN_BUDGET_S = 170.0
#: Set-up-only workers before and after the measuring one; ``setup_s`` is
#: the median of all their set-ups, spread over the run's time.
SETUPS_AROUND = 3


def _worker(args, mode, work, deadline, importtime=False):
    """Run one worker process to completion; returns (result, stderr text)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--work", work, "--src", SRC]
    err_path = os.path.join(work, f"worker-{mode}.stderr")
    with open(err_path, "w+") as err:
        # its own process group, so a time-out also ends the CLI processes it started
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=err, text=True, cwd=ROOT, start_new_session=True) as proc:
            try:
                stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise SystemExit(f"{args.workload}: {mode} worker ran out of the run budget")
        err.seek(0)
        stderr = err.read()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise SystemExit(f"{args.workload}: {mode} worker exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1]), stderr


def end_to_end(res, setups):
    """End-to-end metrics from the best-of-N time of each distinct op.

    Every op of the list repeats several times in a run.  On a shared
    machine the time of one op swings by tens of percent between
    seconds-long windows while its minimum holds steady, so each op is
    represented by its fastest run, and the metrics summarize those.
    """
    ops = list(res["per_op"].values())
    good_ms = sorted(1e3 * op["best_s"] for op in ops if op["ok"])
    p90 = (statistics.quantiles(good_ms, n=10, method="inclusive")[8]
           if len(good_ms) > 1 else good_ms[0])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_per_s": (len(good_ms) / sum(op["best_s"] for op in ops), "ops/s"),
        "latency_p50_ms": (statistics.median(good_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "cpu_ms_per_op": (1e3 * statistics.fmean(op["best_cpu_s"] for op in ops), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res, in_process, worker_stderr):
    tr = res["trace"]
    metrics = dict(tr["layers"])
    if in_process:
        imports = tracing.parse_importtime(worker_stderr)
        where = "the workload process"
    else:
        imports = tr["child_imports"]
        where = "CLI processes: the lowest over the traced passes of the mean per process"
    for pkg in ("total", "numpy", "scipy", "pinchlab"):
        metrics[f"import.{pkg}_ms"] = (imports[pkg], "ms")
    metrics["trace.overhead_pct"] = (tr["overhead_pct"], "%")
    notes = [
        f"traced: {tr['passes']} passes, {tr['ops']} ops ({tr['ok']} ok), {tr['spans']} spans"
        + (f" -> {tr['spans_file']}" if tr["spans_file"] else " (the work runs in CLI processes)"),
        f"tracing overhead: best traced times are {tr['overhead_pct']:.3g}% above best untraced times",
        f"imports measured in {where}",
        f"counters_sha256 {tr['counters_sha256']}; "
        f"{'identical' if tr['counters_repeat'] else 'NOT identical'} on every traced pass",
    ]
    if tr["untraced_targets"]:
        notes.append(f"targets not found, not traced: {', '.join(tr['untraced_targets'])}")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(SRC, "pinchlab", "__init__.py")):
        print(f"no pinchlab sources under {SRC}; run from a pinchlab checkout",
              file=sys.stderr)
        return 2

    in_process = workloads.WORKLOADS[args.workload].in_process
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            res, stderr = _worker(args, "trace", work, deadline, importtime=in_process)
        else:
            setups = [_worker(args, "setup", work, deadline)[0]["setup_s"]
                      for _ in range(SETUPS_AROUND)]
            res, stderr = _worker(args, "measure", work, deadline)
            setups.append(res["setup_s"])
            setups += [_worker(args, "setup", work, deadline)[0]["setup_s"]
                       for _ in range(SETUPS_AROUND)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not res["ok"]:
        print(f"{args.workload}: no op succeeded; failures: {res['failures']}", file=sys.stderr)
        return 1
    failures = dict(res["failures"])
    problems = dict(res["problems"])
    problems.update({k: f"warm-up op failed: {v}" for k, v in res["warmup_failures"].items()})
    attempted = res["attempted"]
    failed = attempted - res["ok"]
    per_op = res["per_op"]
    repeats = [op["runs"] for op in per_op.values()]
    notes = [f"{len(per_op)} distinct ops, each run {min(repeats)} to {max(repeats)} times; "
             f"wall-clock rate {res['ok'] / res['wall_s']:.6g} ok ops/s"]
    if args.trace:
        metrics, layer_notes = per_layer(res, in_process, stderr)
        notes += layer_notes
        failures.update(res["trace"]["failures"])
        problems.update(res["trace"]["problems"])
        attempted += res["trace"]["ops"]
        failed += res["trace"]["ops"] - res["trace"]["ok"]
    else:
        metrics = end_to_end(res, setups)
        notes.append(f"setup_s: median of {len(setups)} set-ups: "
                     + ", ".join(f"{s:.3f}" for s in setups))

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"ops: {attempted} attempted, {attempted - failed} ok, {failed} failed "
          f"(failed_ops_ratio {failed / attempted:.6g})")
    for key, err in sorted(failures.items()):
        print(f"failing input: {key}: {err}")
    for key, problem in sorted(problems.items()):
        print(f"WRONG OUTPUT: {key}: {problem}")
    for key, outcome in res["probe"].items():
        print(f"known-defect probe (untimed, not counted): {key}: {outcome}")
    print(f"outputs_sha256 {res['outputs_sha256']}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
