"""Command line interface: run experiments, verify the dense oracle, list schemes.

Exit codes: 0 success, 1 oracle check failure, 2 configuration error,
3 numerical failure (non-finite values detected), 4 a BER worker process died.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .config import SCHEMES, ConfigError, parse_config, validate_config
from .experiments import NumericalFailure, oracle_checks, run_experiment


def _cmd_run(args) -> int:
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers: {args.workers} is below 1")
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        validate_config(cfg)
        try:
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: cannot create {cfg.output_dir!r}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg, workers=args.workers)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4
    print(f"{cfg.experiment}: wrote {len(report.csv_paths)} file(s) to {cfg.output_dir} "
          f"(config {report.config_hash}, seed {report.seed}, "
          f"{report.wall_clock_s:.1f} s)")
    if cfg.experiment == "oracle_suite" and report.summary.get("n_failed", 0) > 0:
        print(f"oracle_suite: {report.summary['n_failed']} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_oracle(_args) -> int:
    rows = oracle_checks()
    n_fail = 0
    for name, err, tol in rows:
        ok = err <= tol
        n_fail += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} max_err={err:.3e} tol={tol:.1e}")
    print(f"{len(rows) - n_fail}/{len(rows)} oracle checks passed")
    return 0 if n_fail == 0 else 1


def _cmd_list_schemes(_args) -> int:
    for s in SCHEMES:
        print(s)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddwave",
        description="Delay-Doppler waveform experiments: modems, channels, metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config file")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--workers", type=int, default=1,
                       help="worker processes for the BER sweep, at most n_frames (default 1)")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="run the small-instance dense-matrix checks")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_list = sub.add_parser("list-schemes", help="list the available schemes")
    p_list.set_defaults(func=_cmd_list_schemes)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
