"""One workload process: set up, measure for a time, optionally trace.

Started by ``run.py``; prints one JSON object as its last stdout line.

Modes:
  setup    set up (imports, inputs, one untimed warm-up op) and report
           the set-up time only;
  measure  set up, then cycle the workload's op list closed loop with one
           client for ``--seconds``, tracing off, then run the known-defect
           probe once, untimed;
  trace    as ``measure``, then three traced passes over the op list, which
           gives the per-layer metrics and counters.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # before any import the set-up pays for

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class OpTimeout(Exception):
    """An op ran past its workload's per-op time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its time limit")


def _cpu_clock(wl):
    """CPU seconds of the process, or of its finished children for CLI ops."""
    if wl.in_process:
        return time.process_time()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tally:
    """Every attempt of every op: time, CPU time, outcome, output digest."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.runs = {}         # op key -> [(wall s, cpu s, ok)] in run order
        self.failures = {}     # op key -> error text
        self.problems = {}     # op key -> wrong-output text
        self.fingerprints = {}
        self.digests = {}      # op key -> sha256 of the first output

    def run(self, op):
        """Run one op under the time limit; returns True when it succeeded."""
        self.attempted += 1
        ok = False
        signal.setitimer(signal.ITIMER_REAL, self.wl.op_limit_s)
        cpu0 = _cpu_clock(self.wl)
        start = perf_counter()
        try:
            output = self.wl.run(op)
            ok = True
        except Exception as exc:  # the op boundary: record and go on
            self.failures.setdefault(op.key, f"{type(exc).__name__}: {str(exc)[:160]}")
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            cpu = _cpu_clock(self.wl) - cpu0
        if ok:
            ok = self._accept(op, output)
        self.runs.setdefault(op.key, []).append((elapsed, cpu, ok))
        return ok

    def _accept(self, op, output):
        problem = self.wl.check(op, output)
        fingerprint = self.wl.fingerprint(output)
        if problem is None and self.fingerprints.setdefault(op.key, fingerprint) != fingerprint:
            problem = "output differs from an earlier run of the same op"
        self.digests.setdefault(op.key, hashlib.sha256(output.encode()).hexdigest())
        if problem is not None:
            self.problems.setdefault(op.key, problem)
            self.failures.setdefault(op.key, f"wrong output: {problem}")
            return False
        return True

    @property
    def ok(self):
        return sum(ok for runs in self.runs.values() for _, _, ok in runs)

    def per_op(self):
        """Best-of-N time and CPU time of each distinct op over its repeats.

        An op that succeeded at least once counts as ok, with times from
        its successful runs; an op that never succeeded keeps the times of
        its failed runs, since the client waited for those too.
        """
        out = {}
        for key, runs in self.runs.items():
            good = [r for r in runs if r[2]] or runs
            out[key] = {"best_s": min(r[0] for r in good),
                        "best_cpu_s": min(r[1] for r in good),
                        "ok": bool(good[0][2]), "runs": len(runs)}
        return out

    def outputs_sha256(self):
        h = hashlib.sha256()
        for key in sorted(self.digests):
            h.update(f"{key}\n{self.digests[key]}\n".encode())
        return h.hexdigest()


def cycle(wl, tally, seconds=None, passes=None):
    """Closed loop, one client: run the op list over and over, until
    ``seconds`` have passed or after ``passes`` whole passes.

    Each pass runs pinned to one CPU, the next pass to the next CPU.  On
    a shared virtual machine each virtual CPU has slow and fast phases of
    its own, lasting seconds; alternating lets every op's best-of-N time
    come from whichever CPU was quiet.  CLI processes inherit the pin, so
    a ``sweep`` runs its thread pool on one CPU.
    """
    ops = wl.ops()
    cpus = sorted(os.sched_getaffinity(0))
    deadline = None if seconds is None else perf_counter() + seconds
    done = 0
    try:
        while True:
            n_pass, i = divmod(done, len(ops))
            if passes is not None and n_pass == passes:
                break
            if deadline is not None and done and perf_counter() >= deadline:
                break
            if i == 0:
                os.sched_setaffinity(0, {cpus[n_pass % len(cpus)]})
                yield n_pass
            tally.run(ops[i])
            done += 1
    finally:
        os.sched_setaffinity(0, cpus)


def measure(wl, tally, seconds):
    """Untraced loop for ``seconds``; returns wall time and peak memory."""
    start = perf_counter()
    for _ in cycle(wl, tally, seconds=seconds):
        pass
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {"wall_s": perf_counter() - start,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def run_probe(wl):
    """Run each known-defect probe op once, after the timed loop; returns
    how each ended.  The probe is outside the run's counts and times."""
    tally = Tally(wl)
    return {op.key: "ok" if tally.run(op) else tally.failures[op.key] for op in wl.probe}


#: Traced passes over the op list; per-layer times are the best pass.
TRACE_PASSES = 3


def traced_passes(wl, untraced, out_dir, label):
    """Run the op list TRACE_PASSES times with spans on.

    Per-layer times are the lowest over the passes, like the end-to-end
    times; counters come from the first pass, and every pass should
    repeat them.  The tracing overhead compares each op's best traced
    time with its best untraced time.
    """
    n_ops = len(wl.ops())
    tally = Tally(wl)
    tracer = tracing.Tracer()
    passes = []   # per pass: (layer metrics, per-process import times)
    imports = []
    if wl.in_process:
        tracer.install()
        wl.tracer = tracer
    else:
        wl.importtime = imports

    def close_pass():
        passes.append((tracing.layer_metrics(tracer.spans[n_spans:], n_ops),
                       [tracing.parse_importtime(text) for text in imports]))
        imports.clear()

    n_spans = 0
    try:
        for n_pass in cycle(wl, tally, passes=TRACE_PASSES):
            if n_pass:
                close_pass()
                n_spans = len(tracer.spans)
        close_pass()
    finally:
        tracer.uninstall()
        wl.tracer = None
        wl.importtime = None

    first = passes[0][0]
    layers = {name: (min(p[0][name][0] for p in passes), unit)
              for name, (_, unit) in first.items()}
    layers.update({name: first[name] for name in tracing.COUNTERS})
    repeat = all(p[0][name] == first[name] for p in passes for name in tracing.COUNTERS)
    child_imports = [
        {pkg: statistics.fmean(proc[pkg] for proc in procs) for pkg in procs[0]}
        for _, procs in passes if procs]
    spans_file = None
    if tracer.spans:
        spans_file = os.path.join(out_dir, f"spans-{label}.jsonl.gz")
        tracer.write(spans_file)
    base = untraced.per_op()
    traced = tally.per_op()
    shared = [k for k in traced if k in base]
    overhead = (sum(traced[k]["best_s"] for k in shared)
                / sum(base[k]["best_s"] for k in shared) - 1.0)
    return {
        "layers": layers, "passes": TRACE_PASSES, "ops": tally.attempted, "ok": tally.ok,
        "counters_repeat": repeat, "overhead_pct": 100.0 * overhead,
        "spans": len(tracer.spans), "spans_file": spans_file,
        "untraced_targets": tracer.untraced,
        "child_imports": ({pkg: min(p[pkg] for p in child_imports) for pkg in child_imports[0]}
                          if child_imports else None),
        "counters_sha256": hashlib.sha256(json.dumps(
            {k: layers[k][0] for k in tracing.COUNTERS}, sort_keys=True).encode()).hexdigest(),
        "failures": tally.failures, "problems": tally.problems,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", required=True, help="scratch directory for inputs")
    parser.add_argument("--src", required=True, help="the pinchlab source tree to run")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    signal.signal(signal.SIGALRM, _on_alarm)
    wl = workloads.WORKLOADS[args.workload](args.work, args.seed, args.src)
    if wl.in_process:
        import pinchlab
        where = os.path.dirname(os.path.abspath(pinchlab.__file__))
        if os.path.dirname(where) != os.path.abspath(args.src):
            raise SystemExit(f"pinchlab imported from {where}, not from {args.src}")
    warmup = Tally(wl)
    warmup.run(wl.warmup_op)
    result = {"setup_s": perf_counter() - T_START, "warmup_failures": warmup.failures}
    if args.mode != "setup":
        tally = Tally(wl)
        result.update(measure(wl, tally, args.seconds))
        result.update({
            "attempted": tally.attempted, "ok": tally.ok, "per_op": tally.per_op(),
            "failures": tally.failures, "problems": tally.problems,
            "outputs_sha256": tally.outputs_sha256(),
        })
        result["probe"] = run_probe(wl)
    if args.mode == "trace":
        label = f"{args.workload}-seed{args.seed}"
        result["trace"] = traced_passes(wl, tally, os.path.dirname(args.work), label)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
