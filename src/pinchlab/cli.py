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

def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_growth(metric, cfg):
    r_hi = min(cfg.growth_window[1], metric.domain_end)
    r_lo = min(cfg.growth_window[0], r_hi / 50.0)
    try:
        rep = metrics.growth_fit(metric, r_lo, r_hi, 25)
        return rep.alpha_fit, rep.avr
    except (DomainError, UsageError):
        return None, None


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
    domain = potential.ExteriorDomain(metric, cfg.s0)
    sol = potential.solve_potential(domain, t_max=cfg.t_max)
    series = functionals.build_series(sol, n=cfg.n_samples)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "series.csv")
    series.to_csv(csv_path)
    alpha, avr = _summary_growth(metric, cfg)
    bw = functionals.boundary_willmore(sol)
    summary = {
        "config": cfg.to_dict(),
        "metric": metric.label,
        "ncap": sol.ncap,
        "alpha_fit": alpha,
        "avr": avr,
        "boundary_willmore": bw.value,
        "boundary_below_16pi": bw.below_threshold,
        "t_max": sol.t_max,
        "files": {"series": "series.csv"},
    }
    json_path = os.path.join(cfg.out_dir, "summary.json")
    _write_json(json_path, summary)
    print(f"{metric.label} s0={cfg.s0:g}: ncap={sol.ncap:.12g} "
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
    domain = potential.ExteriorDomain(metric, cfg.s0)
    report = asymptotics.refute(domain, cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "refutation.json")
    _write_json(path, report.to_json_dict())
    print(f"{metric.label} s0={cfg.s0:g}: {report.conclusion}")
    print(f"wrote {path}")
    return 1 if report.conclusion.startswith("CONTRADICTION") else 0


def cmd_sweep(cfg: ScenarioConfig) -> int:
    if not cfg.sweep:
        raise UsageError("sweep requires a config file with a 'sweep' section")
    allowed = {"kind", "s0", "epsilon"}
    unknown = set(cfg.sweep) - allowed
    if unknown:
        raise UsageError(f"unknown sweep axes {sorted(unknown)}; valid: {sorted(allowed)}")
    kinds = cfg.sweep.get("kind", [cfg.metric_kind])
    s0s = [float(v) for v in cfg.sweep.get("s0", [cfg.s0])]
    epsilons = [float(v) for v in cfg.sweep.get("epsilon", [cfg.epsilon])]
    grid = list(itertools.product(kinds, s0s, epsilons))

    reports = []
    for kind, s0, eps in grid:
        sub = cfg.with_overrides(metric_kind=kind, s0=s0, epsilon=eps).validate()
        metric = metrics.build_metric(kind, sub.metric_params if kind == cfg.metric_kind else {})
        reports.append(asymptotics.refute(potential.ExteriorDomain(metric, s0), sub))

    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = []
    docs = []
    for (kind, s0, eps), rep in zip(grid, reports):
        rows.append((kind, s0, eps, rep.growth.alpha_fit,
                     rep.boundary.value, rep.conclusion))
        doc = rep.to_json_dict()
        doc["scenario"] = {"kind": kind, "s0": s0, "epsilon": eps}
        docs.append(doc)
    csv_path = os.path.join(cfg.out_dir, "sweep.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write("kind,s0,epsilon,alpha_fit,boundary_willmore,conclusion\n")
        for kind, s0, eps, alpha, bwv, conc in rows:
            fh.write(f"{kind},{s0:.17g},{eps:.17g},{alpha:.17g},{bwv:.17g},\"{conc}\"\n")
    json_path = os.path.join(cfg.out_dir, "sweep.json")
    _write_json(json_path, docs)
    for kind, s0, eps, _, _, conc in rows:
        print(f"{kind} s0={s0:g} eps={eps:g}: {conc}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_param(text):
    if "=" not in text:
        raise UsageError(f"--param expects key=value, got {text!r}")
    key, _, value = text.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError:
        return key.strip(), value.strip()


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
    common.add_argument("--s0", type=float, help="boundary radius")
    common.add_argument("--epsilon", type=float, help="pinching constant in (0, 1/3]")
    common.add_argument("--t-max", type=float, dest="t_max", help="largest level value")
    common.add_argument("--n-samples", type=int, dest="n_samples",
                        help="series grid size for solve output")
    common.add_argument("--out-dir", dest="out_dir", help="output directory")

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
        base = dict(cfg.metric_params) if (args.kind is None or args.kind == cfg.metric_kind) else {}
        base.update(dict(_parse_param(p) for p in args.param))
        params = base
    elif args.kind is not None and args.kind != cfg.metric_kind:
        params = {}
    cfg = cfg.with_overrides(
        metric_kind=getattr(args, "kind", None),
        metric_params=params,
        s0=getattr(args, "s0", None),
        epsilon=getattr(args, "epsilon", None),
        t_max=getattr(args, "t_max", None),
        n_samples=getattr(args, "n_samples", None),
        out_dir=getattr(args, "out_dir", None),
        suite=getattr(args, "suite", None),
    )
    return cfg.validate()


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
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, json_out=args.json_out)
        if args.command == "refute":
            return cmd_refute(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        raise UsageError(f"unknown command {args.command!r}")
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
