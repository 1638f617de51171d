"""In-memory spans around pinchlab's public functions, and the per-layer
metrics derived from them.

The package itself carries no instrumentation, so the tracer wraps each
layer's public functions and methods from the outside: every name in a
loaded ``pinchlab`` module that refers to a wrapped function is rebound
to the wrapper, which also covers the ``from .x import y`` copies.  A
span records (id, name, start, end, parent id, work count); spans stay
in memory until the traced pass ends.  Self time is a span's duration
minus the time its direct child spans cover.

Targets that a later version of the package no longer has are skipped
and reported, so the tracer never breaks a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _points(value):
    size = getattr(value, "size", None)
    if size is not None:
        return int(size)
    return len(value) if hasattr(value, "__len__") else 1


def _size_of(index):
    """Work count: the number of points in positional argument ``index``."""
    def count(args, kwargs):
        return _points(args[index]) if len(args) > index else 0
    return count


def _panels(args, kwargs):
    edges = args[2] if len(args) > 2 else kwargs["edges"]
    return max(_points(edges) - 1, 0)


#: (module, attribute path, span name, work counter).  A dotted path
#: names a method on a class of the module.
TARGETS = (
    ("metrics", "WarpFunction.f", "metrics.profile_eval", _size_of(1)),
    ("metrics", "WarpFunction.df", "metrics.profile_eval", _size_of(1)),
    ("metrics", "WarpFunction.d2f", "metrics.profile_eval", _size_of(1)),
    ("metrics", "check_pinching", "metrics.check_pinching", None),
    ("metrics", "growth_fit", "metrics.growth_fit", None),
    ("metrics", "volume_ball", "metrics.volume_ball", None),
    ("quadrature", "PanelQuadrature.__init__", "quadrature.build", _panels),
    ("quadrature", "PanelQuadrature.integral_from_start", "quadrature.query", _size_of(1)),
    ("quadrature", "PanelQuadrature.integral_to_end", "quadrature.query", _size_of(1)),
    ("potential", "TailIntegrator.__init__", "potential.tail_integrator", None),
    ("potential", "PotentialSolution.__init__", "potential.solve", None),
    ("potential", "PotentialSolution.s_of_t", "potential.s_of_t", _size_of(1)),
    ("functionals", "build_series", "functionals.build_series", None),
    ("functionals", "check_monotonicity", "functionals.checks", None),
    ("functionals", "check_G_ode", "functionals.checks", None),
    ("functionals", "genus_zero_inequality_check", "functionals.checks", None),
    ("asymptotics", "refute", "asymptotics.refute", None),
    ("asymptotics", "decay_check", "asymptotics.decay_check", None),
    ("asymptotics", "coarea_check", "asymptotics.integral_checks", None),
    ("asymptotics", "holder_chain_check", "asymptotics.integral_checks", None),
    ("cli", "run_verify", "cli.verify", None),
)

#: Span opened by the benchmark itself around certificate serialization.
CERTIFICATE_SPAN = "asymptotics.certificate_json"


class Tracer:
    """Collects spans from wrapped functions; safe to call from threads."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, count)
        self.untraced = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, count=None):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            n = count(args, kwargs) if count is not None else 0
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, n))

        return wrapper

    def install(self):
        """Wrap every target present in the loaded pinchlab package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pinchlab" or name.startswith("pinchlab.")]
        for mod_name, path, span_name, count in TARGETS:
            try:
                module = importlib.import_module(f"pinchlab.{mod_name}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.untraced.append(f"{mod_name}.{path}")
                continue
            wrapped = self.span(span_name, original, count)
            if owner_name:
                self._rebind(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapped)

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines, one span a line."""
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, n in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "count": n}) + "\n")


def layer_metrics(spans, n_ops):
    """Per-layer metrics, per op, from one traced pass of ``n_ops`` ops.

    Times are milliseconds per op.  ``*.ms`` is inclusive time, counted
    once where a span nests inside one of the same name; ``*.self_ms``
    excludes time covered by child spans.  Counts are per op as well, so
    they repeat exactly on every traced pass of the same op list.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, name, start, end, parent, n in spans:
        if parent in by_id:
            child_time[parent] += end - start

    def ancestor(sid, name):
        parent = by_id[sid][4]
        while parent in by_id:
            if by_id[parent][1] == name:
                return parent
            parent = by_id[parent][4]
        return None

    incl = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for sid, name, start, end, parent, n in spans:
        dur = end - start
        self_t[name] += dur - child_time[sid]
        calls[name] += 1
        work[name] += n
        if ancestor(sid, name) is None:
            incl[name] += dur

    solves = calls["potential.solve"]
    levels = work["potential.s_of_t"]
    volume_calls = calls["metrics.volume_ball"]
    volume_builds = tail_per_solve = level_points = 0
    for sid, name, start, end, parent, n in spans:
        if name == "quadrature.build" and parent in by_id and by_id[parent][1] == "metrics.volume_ball":
            volume_builds += 1
        elif name == "potential.tail_integrator" and ancestor(sid, "potential.solve") is not None:
            tail_per_solve += 1
        elif name == "metrics.profile_eval" and ancestor(sid, "potential.s_of_t") is not None:
            level_points += n

    per_op = 1.0 / max(n_ops, 1)
    ms = 1e3 * per_op
    return {
        "metrics.profile_eval.self_ms": (self_t["metrics.profile_eval"] * ms, "ms/op"),
        "metrics.profile_eval.points": (work["metrics.profile_eval"] * per_op, "points/op"),
        "metrics.check_pinching.ms": (incl["metrics.check_pinching"] * ms, "ms/op"),
        "metrics.growth_fit.ms": (incl["metrics.growth_fit"] * ms, "ms/op"),
        "metrics.volume_ball.calls": (volume_calls * per_op, "calls/op"),
        "metrics.volume_quad.builds": (volume_builds * per_op, "builds/op"),
        "metrics.volume_cache.hit_ratio": (
            (1.0 - volume_builds / volume_calls) if volume_calls else 0.0, "ratio"),
        "quadrature.build.self_ms": (self_t["quadrature.build"] * ms, "ms/op"),
        "quadrature.build.panels": (work["quadrature.build"] * per_op, "panels/op"),
        "quadrature.query.self_ms": (self_t["quadrature.query"] * ms, "ms/op"),
        "quadrature.query.points": (work["quadrature.query"] * per_op, "points/op"),
        "potential.solve.ms": (incl["potential.solve"] * ms, "ms/op"),
        "potential.solve.count": (solves * per_op, "solves/op"),
        "potential.tail_integrators_per_solve": (
            tail_per_solve / solves if solves else 0.0, "ratio"),
        "potential.s_of_t.self_ms": (self_t["potential.s_of_t"] * ms, "ms/op"),
        "potential.s_of_t.levels": (levels * per_op, "levels/op"),
        "potential.profile_points_per_level": (
            level_points / levels if levels else 0.0, "points/level"),
        "functionals.build_series.ms": (incl["functionals.build_series"] * ms, "ms/op"),
        "functionals.checks.ms": (incl["functionals.checks"] * ms, "ms/op"),
        "asymptotics.refute.self_ms": (self_t["asymptotics.refute"] * ms, "ms/op"),
        "asymptotics.decay_check.ms": (incl["asymptotics.decay_check"] * ms, "ms/op"),
        "asymptotics.integral_checks.ms": (incl["asymptotics.integral_checks"] * ms, "ms/op"),
        "asymptotics.certificate_json.ms": (incl[CERTIFICATE_SPAN] * ms, "ms/op"),
        "cli.verify.self_ms": (self_t["cli.verify"] * ms, "ms/op"),
    }


#: Metrics above that are pure work counts: they must repeat exactly.
COUNTERS = (
    "metrics.profile_eval.points", "metrics.volume_ball.calls",
    "metrics.volume_quad.builds", "metrics.volume_cache.hit_ratio",
    "quadrature.build.panels", "quadrature.query.points",
    "potential.solve.count", "potential.tail_integrators_per_solve",
    "potential.s_of_t.levels", "potential.profile_points_per_level",
)


#: The benchmark's own modules, left out of the import totals.
BENCHMARK_MODULES = {"worker", "workloads", "tracer"}


def parse_importtime(text):
    """Milliseconds of import self time by package, from ``-X importtime``.

    Self times partition the total, so ``total`` is their sum over every
    module the process imported, and each package's share is the sum
    over the modules whose top-level name is that package.  Standard
    library modules count only in the total, under their own names.
    """
    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0, "pinchlab": 0.0}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        ms = int(fields[0]) / 1e3
        top = fields[2].strip().split(".")[0]
        if top in BENCHMARK_MODULES:
            continue
        out["total"] += ms
        if top in out:
            out[top] += ms
    return out
