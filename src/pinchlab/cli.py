"""Command-line interface: catalog, solve, verify, refute, sweep.

Exit codes: 0 success, 1 verification failure, 2 mathematical
precondition failure (nonparabolic tail, domain violations, lost
accuracy), 64 usage / configuration error.

All file outputs (CSV and JSON) are deterministic: identical
configuration produces byte-identical files.  Timings are printed to
stdout only and never written to files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import logging
import os
import sys

from . import asymptotics, functionals, metrics, potential
from .config import SUITES, ScenarioConfig
from .errors import DomainError, NonparabolicityError, NumericError, UsageError
from .verify import run_verify


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _writing(path):
    """Wrap a write of path: an OSError becomes a usage error that names the path."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write_json(path, obj):
    with _writing(path), open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg) -> str:
    """``cfg.out_dir``, created where missing; a usage error where it cannot be."""
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"out_dir {cfg.out_dir!r} cannot be created: {exc.strerror}") from None
    return cfg.out_dir


def cmd_catalog(args) -> int:
    if args.json:
        doc = {"kinds": {
            kind: {
                "description": entry["description"],
                "params": {p: {"default": d, "doc": doc_} for p, (d, doc_) in entry["params"].items()},
            } for kind, entry in metrics.CATALOG.items()
        }}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"{len(metrics.CATALOG)} metric kinds:")
    for kind, entry in metrics.CATALOG.items():
        print(f"  {kind:<18} {entry['description']}")
        for p, (default, doc) in entry["params"].items():
            print(f"      {p:<16} default={default!r:<8} {doc}")
    return 0


def cmd_solve(cfg: ScenarioConfig) -> int:
    metric = metrics.build_metric(cfg.metric_kind, cfg.metric_params)
    sc = asymptotics.Scenario(metric, cfg.s0, cfg)
    csv_path = os.path.join(_out_dir(cfg), "series.csv")
    with _writing(csv_path):
        sc.series.to_csv(csv_path)
    try:
        alpha, avr = sc.growth.alpha_fit, sc.growth.avr
    except DomainError:
        alpha = avr = None
    bw = functionals.boundary_willmore(sc.sol)
    summary = {
        "config": dataclasses.asdict(cfg),
        "metric": metric.label,
        "ncap": sc.sol.ncap,
        "alpha_fit": alpha,
        "avr": avr,
        "boundary_willmore": bw.value,
        "boundary_below_16pi": bw.below_threshold,
        "t_max": sc.sol.t_max,
        "files": {"series": "series.csv"},
    }
    json_path = os.path.join(cfg.out_dir, "summary.json")
    _write_json(json_path, summary)
    print(f"{metric.label} s0={cfg.s0:g}: ncap={sc.sol.ncap:.12g} "
          f"alpha_fit={'n/a' if alpha is None else f'{alpha:.6g}'} "
          f"boundary_willmore={bw.value:.12g}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_verify(cfg: ScenarioConfig, json_out=None) -> int:
    results, code = run_verify(cfg)
    if json_out:
        _write_json(json_out, [r.to_json_dict() for r in results])
    return code


def cmd_refute(cfg: ScenarioConfig) -> int:
    metric = metrics.build_metric(cfg.metric_kind, cfg.metric_params)
    report = asymptotics.refute(potential.ExteriorDomain(metric, cfg.s0), cfg)
    path = os.path.join(_out_dir(cfg), "refutation.json")
    _write_json(path, report.to_json_dict())
    print(f"{metric.label} s0={cfg.s0:g}: {report.conclusion}")
    print(f"wrote {path}")
    return 1 if report.conclusion.startswith("CONTRADICTION") else 0


def cmd_sweep(cfg: ScenarioConfig) -> int:
    """Write ``asymptotics.sweep`` over the config's 'sweep' grid to sweep.csv and sweep.json."""
    if not cfg.sweep:
        raise UsageError("sweep requires a config file with a 'sweep' section")
    kinds = cfg.sweep.get("kind", [cfg.metric_kind])
    s0s, epsilons = cfg.sweep.get("s0", [cfg.s0]), cfg.sweep.get("epsilon", [cfg.epsilon])
    built = [metrics.build_metric(k, cfg.metric_params if k == cfg.metric_kind else {}) for k in kinds]
    runs = list(zip(itertools.product(kinds, s0s, epsilons), asymptotics.sweep(built, s0s, epsilons, cfg)))

    csv_path = os.path.join(_out_dir(cfg), "sweep.csv")
    with _writing(csv_path), open(csv_path, "w", newline="") as fh:
        fh.write("kind,s0,epsilon,alpha_fit,boundary_willmore,conclusion\n")
        for (kind, s0, eps), rep in runs:
            fh.write(f"{kind},{s0:.17g},{eps:.17g},{rep.growth.alpha_fit:.17g},"
                     f"{rep.boundary.value:.17g},\"{rep.conclusion}\"\n")
    json_path = os.path.join(cfg.out_dir, "sweep.json")
    _write_json(json_path, [{**rep.to_json_dict(), "scenario": {"kind": kind, "s0": s0, "epsilon": eps}}
                            for (kind, s0, eps), rep in runs])
    for (kind, s0, eps), rep in runs:
        print(f"{kind} s0={s0:g} eps={eps:g}: {rep.conclusion}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_param(text):
    """Split ``key=value``; the value is a number where it reads as one, except ``path``."""
    if "=" not in text:
        raise UsageError(f"--param expects key=value, got {text!r}")
    key, _, value = (part.strip() for part in text.partition("="))
    try:
        return key, value if key == "path" else float(value)
    except ValueError:
        return key, value


#: each scenario flag as (ScenarioConfig field, type, help); the flag is "--" and the field, "-" for "_"
_SCENARIO_FLAGS = (("s0", float, "boundary radius"), ("epsilon", float, "pinching constant in (0, 1/3]"),
                   ("t_max", float, "largest level value"), ("n_samples", int, "series grid size for solve output"),
                   ("out_dir", None, "output directory"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pinchlab",
                     description="Level-set laboratory for rotationally symmetric 3-metrics")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON scenario configuration file")
    common.add_argument("--kind", help="metric kind (see `pinchlab catalog`)")
    common.add_argument("--param", action="append", default=[],
                        help="metric parameter key=value (repeatable)")
    for key, kind, text in _SCENARIO_FLAGS:
        common.add_argument("--" + key.replace("_", "-"), type=kind, dest=key, help=text)

    cat = sub.add_parser("catalog", help="list metric kinds and parameter schemas")
    cat.add_argument("--json", action="store_true", help="machine-readable schema")

    sub.add_parser("solve", parents=[common],
                   help="solve the exterior potential and write series CSV + summary JSON")

    ver = sub.add_parser("verify", parents=[common],
                         help="run a verification suite across the catalog")
    ver.add_argument("--suite", choices=SUITES, help="which checks to run (default all)")
    ver.add_argument("--json-out", dest="json_out", help="also write results as JSON")

    sub.add_parser("refute", parents=[common],
                   help="emit a refutation certificate for the configured metric")

    sub.add_parser("sweep", parents=[common],
                   help="run refutation over a parameter grid (config 'sweep' section)")
    return parser


def _config_from_args(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_file(args.config) if getattr(args, "config", None) else ScenarioConfig()
    params = None
    if getattr(args, "param", None):
        base = cfg.metric_params if (args.kind is None or args.kind == cfg.metric_kind) else {}
        params = {**base, **dict(_parse_param(p) for p in args.param)}
    elif args.kind is not None and args.kind != cfg.metric_kind:
        params = {}
    return cfg.with_overrides(
        metric_kind=getattr(args, "kind", None),
        metric_params=params,
        suite=getattr(args, "suite", None),
        **{key: getattr(args, key, None) for key, _, _ in _SCENARIO_FLAGS},
    )


def main(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if args.verbose:
            logging.basicConfig(level=logging.DEBUG, format="%(name)s: %(message)s")
        if args.command == "catalog":
            return cmd_catalog(args)
        cfg = _config_from_args(args)
        if args.command == "verify":
            return cmd_verify(cfg, json_out=args.json_out)
        return {"solve": cmd_solve, "refute": cmd_refute, "sweep": cmd_sweep}[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except NonparabolicityError as exc:
        print(f"nonparabolicity: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
