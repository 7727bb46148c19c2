"""Command-line interface.

Subcommands: describe, simulate, predict, verify, sweep, interfere,
switch-demo.  Exit codes: 0 success, 2 configuration error, 3 numeric
failure, 4 verification/acceptance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from ..errors import ConfigError, CrossingLabError
from ..params import classify_regimes, mu
from ..potential import find_crossings, model_from_config
from ..potential.catalog import SIDES, default_anchors, tail_integral
from .sweep import ORACLES, check_inputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ACCEPT = 4

ENV_PREFIX = "CROSSINGLAB_"
DEFAULT_TOL = 1e-9


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"bad {ENV_PREFIX}{name.upper()}={raw!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _model_from(doc: dict):
    spec = doc.get("potential", doc)
    return model_from_config(spec)


def _check_point(args) -> None:
    """ConfigError for a given --eps or --h out of range."""
    check_inputs(**{name: getattr(args, name) for name in ("eps", "h")
                    if getattr(args, name) is not None})


def _tails(model, catalog):
    """Default anchor and tail integral per side, or the message when they fail."""
    try:
        return {side: {"anchor": t, "integral": tail_integral(model, catalog, side, t)}
                for side, t in zip(SIDES, default_anchors(model, catalog))}
    except CrossingLabError as exc:
        return f"failed: {exc}"


def cmd_describe(args) -> int:
    _check_point(args)
    doc = _load_config(args.config)
    model = _model_from(doc)
    catalog = find_crossings(model)
    info = {
        "potential": model.to_config(),
        # a model without constant limits has none to report
        "v_right": model.v_right if model.has_tails else None,
        "v_left": model.v_left if model.has_tails else None,
        "catalog": {**catalog.to_dict(), "tails": _tails(model, catalog)},
    }
    if args.eps is not None and args.h is not None:
        mus = {f"mu_{c.m}(crossing {k})": mu(c.m, args.eps, args.h)
               for k, c in enumerate(catalog.crossings)}
        info["mu"] = mus
        try:
            split = classify_regimes(catalog.orders, args.eps, args.h)
            info["regimes"] = list(split.assignment)
        except CrossingLabError as exc:
            info["regimes"] = f"forbidden band: {exc}"
    _emit(info, args.out, "describe.json")
    return EXIT_OK


def _tol(args, config_tol: float = DEFAULT_TOL) -> float:
    """--tol, else CROSSINGLAB_TOL (the flag's default), else the config's
    tol; ConfigError unless 0 < tol < inf."""
    tol = config_tol if args.tol is None else args.tol
    check_inputs(tol=tol)
    return tol


def cmd_simulate(args) -> int:
    from ..scattering import scattering_matrix

    _check_point(args)
    doc = _load_config(args.config)
    model = _model_from(doc)
    rep = scattering_matrix(model, args.eps, args.h, tol=_tol(args),
                            method=args.method)
    _emit(rep.to_dict(), args.out, "simulate.json")
    return EXIT_OK


def cmd_predict(args) -> int:
    _check_point(args)
    tol = _tol(args)
    doc = _load_config(args.config)
    model = _model_from(doc)
    catalog = find_crossings(model)
    out = {"eps": args.eps, "h": args.h}
    closed_forms = [name for name in ORACLES if name != "numeric"]
    names = closed_forms if args.which == "all" else [args.which]
    for name in names:
        try:
            _, result = ORACLES[name](model, catalog, args.eps, args.h, tol)
            out[name] = result.to_dict()
        except CrossingLabError as exc:
            out[name] = {"error": str(exc)}
    _emit(out, args.out, "predict.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verify

    t0 = time.time()
    results = run_verify(seed=args.seed, suites=args.suites or None)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name:40s} {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"in {time.time() - t0:.1f}s (seed {args.seed})")
    return EXIT_OK if failed == 0 else EXIT_ACCEPT


def cmd_sweep(args) -> int:
    from .sweep import CSV_SCHEMA_VERSION, SweepConfig, run_sweep, write_csv, write_report

    config = SweepConfig.from_json(args.config)
    if args.jobs:
        config = dataclasses.replace(config, jobs=args.jobs)
    config.tol = _tol(args, config.tol)
    t0 = time.time()
    rows = run_sweep(config)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{config.label}.csv")
    write_csv(rows, csv_path)
    meta = {
        "label": config.label,
        "rows": len(rows),
        "failed": sum(1 for r in rows if r["status"] == "failed"),
        "wall_time_s": time.time() - t0,
        "csv": csv_path,
        "schema_version": CSV_SCHEMA_VERSION,
    }
    write_report(meta, os.path.join(out_dir, f"{config.label}.report.json"))
    print(json.dumps(meta, indent=2))
    return EXIT_OK if meta["failed"] == 0 else EXIT_NUMERIC


def cmd_interfere(args) -> int:
    from .sweep import SweepConfig, scan_interference

    config = SweepConfig.from_json(args.config)
    config.tol = _tol(args, config.tol)
    result = scan_interference(config, mu_fixed=args.mu)
    _emit(result, args.out, "interference.json")
    offsets = [p["rel_offset"] for p in result["pairs"] if p["rel_offset"] is not None]
    print(f"{len(result['minima'])} minima found; "
          f"worst relative offset {max(offsets) if offsets else float('nan'):.4f}")
    return EXIT_OK


def cmd_switch_demo(args) -> int:
    from .sweep import regime_switch_demo, sharp_decay_slope

    potential = None
    if args.config:
        potential = _load_config(args.config).get("potential")
    report = regime_switch_demo(potential=potential, tol=_tol(args))
    report["decay_fit"] = sharp_decay_slope(potential=potential)
    _emit(report, args.out, "switch_demo.json")
    for row in report["rows"]:
        print(f"alpha={row['alpha']:.3f} h={row['h']:.1e} "
              f"{row['status']:>14s} pred={row['predicted_class']:>6s} "
              f"P={row['P_numeric']:.4f} obs={row['observed_class']}")
    ok = report["classification_consistent"] and report["decay_fit"]["rel_error"] < 0.10
    print(f"classification consistent: {report['classification_consistent']}; "
          f"decay fit rel err {report['decay_fit']['rel_error']:.3f}")
    return EXIT_OK if ok else EXIT_ACCEPT


def _emit(payload: dict, out_dir: str | None, filename: str) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crossinglab",
                                description="two-level avoided-crossing laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, config_required=True):
        sp.add_argument("--config", required=config_required,
                        help="JSON config path")
        sp.add_argument("--out", default=_env_default("out", None, str),
                        help="output directory (default: print to stdout)")

    sp = sub.add_parser("describe", help="catalog and regime map")
    add_common(sp)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--h", type=float, default=None)
    sp.set_defaults(fn=cmd_describe)

    sp = sub.add_parser("simulate", help="single numerically exact P")
    add_common(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--method", choices=["magnus6", "dop853"], default="magnus6",
                    help="integrator backend: sixth-order Magnus on the crossing windows "
                         "(whole line when they merge) or scipy's DOP853 on the whole line")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("predict", help="closed-form predictions")
    add_common(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--which", choices=[*ORACLES, "all"], default="all",
                    help="one oracle, or all closed forms")
    sp.set_defaults(fn=cmd_predict)

    sp = sub.add_parser("verify", help="randomized property suites")
    sp.add_argument("--seed", type=int, default=_env_default("seed", 42, int))
    sp.add_argument("--suites", nargs="*", default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="grid sweep to CSV")
    add_common(sp)
    sp.add_argument("--jobs", type=int, default=_env_default("jobs", 0, int))
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("interfere", help="interference minima scan")
    add_common(sp)
    sp.add_argument("--mu", type=float, default=0.05,
                    help="fixed smallness parameter along the ladder")
    sp.set_defaults(fn=cmd_interfere)

    sp = sub.add_parser("switch-demo", help="regime switch demonstration")
    add_common(sp, config_required=False)
    sp.set_defaults(fn=cmd_switch_demo)

    # describe computes nothing to a tolerance, so it takes none
    for name in ("simulate", "predict", "sweep", "interfere", "switch-demo"):
        sub.choices[name].add_argument(
            "--tol", type=float, default=_env_default("tol", None, float),
            help=f"tolerance (default: CROSSINGLAB_TOL, then the config's tol, "
                 f"then {DEFAULT_TOL:g})")
    return p


def main() -> int:
    """The CLI on the command line in ``sys.argv``."""
    try:
        # a bad CROSSINGLAB_* default is refused while the parser is built
        args = build_parser().parse_args()
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CrossingLabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
