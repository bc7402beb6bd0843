"""Command-line interface.

Subcommands: ``run`` (single experiment, trace + summary), ``sweep``
(dimension x signal-norm heatmap), ``check`` (theory-check suites), and
``classify`` (SNR regime).  Exit codes:

* 0 success
* 1 check failure
* 2 usage or configuration error (``ConfigError``), found when the config
  is loaded or the output directory is created, before any computation
* 3 numerical divergence of training (partial trace kept)
* 4 other numerical error (a ``ValueError`` or ``ArithmeticError`` raised
  while computing, e.g. non-finite test-set scores)
* 5 operating-system or memory error (an ``OSError``, e.g. an output file
  that cannot be written, or a ``MemoryError``, whose message names W(0)
  and its size when W(0) cannot be allocated) raised while running
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .data import ConfigError
from .experiments import (ExperimentConfig, SweepSpec, default_config, run,
                          run_check_suites, sweep, CHECK_SUITES)
from .theory import classify_regime
from .train import DivergenceError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_NUMERICAL = 4
EXIT_SYSTEM = 5


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        config = default_config()
    else:
        config = ExperimentConfig.from_json(_load_json(args.config))
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    train = config.train
    if getattr(args, "steps", None) is not None:
        train = replace(train, steps=args.steps)
    if getattr(args, "log_every", None) is not None:
        train = replace(train, log_every=args.log_every)
    return replace(config, train=train)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnsim",
        description="Token-selection training dynamics under label noise")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_dir=True):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        if out_dir:
            p.add_argument("--out-dir", default=".", help="output directory")

    p_run = sub.add_parser("run", help="single training run with trace")
    common(p_run)
    p_run.add_argument("--steps", type=int, help="override step budget")
    p_run.add_argument("--log-every", type=int, help="override log cadence")

    p_sweep = sub.add_parser("sweep", help="(d, mu_norm) heatmap sweep")
    p_sweep.add_argument("--config", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out-dir", default=".", help="output directory")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="parallel sweep cells")

    p_check = sub.add_parser("check", help="run theory-check suites")
    common(p_check, out_dir=False)
    p_check.add_argument("--suite", required=True,
                         help=("comma-separated suites from "
                               f"{sorted(CHECK_SUITES)} or 'all'"))

    p_cls = sub.add_parser("classify", help="print the SNR regime")
    p_cls.add_argument("--config", required=True, help="experiment config JSON")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _load_config(args)
            artifacts = run(config, args.out_dir)
            print(json.dumps(artifacts.summary["final"], sort_keys=True))
            return EXIT_OK
        if args.command == "sweep":
            spec = SweepSpec.from_json(_load_json(args.config))
            rows, _ = sweep(spec, threads=args.threads, out_dir=args.out_dir)
            print(f"wrote {len(rows)} cells to {args.out_dir}/heatmap.csv")
            return EXIT_OK
        if args.command == "check":
            config = _load_config(args)
            names = [s for s in args.suite.split(",") if s]
            if names == ["all"]:
                names = list(CHECK_SUITES)
            report = run_check_suites(config, names)
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
            if not report.passed_all:
                print("failed checks: " + ", ".join(report.failing),
                      file=sys.stderr)
                return EXIT_CHECK_FAILED
            return EXIT_OK
        if args.command == "classify":
            config = ExperimentConfig.from_json(_load_json(args.config))
            if config.data.sigma_eps == 0:
                raise ConfigError("classify needs sigma_eps > 0: the SNR is "
                                  "undefined for noiseless data")
            print(classify_regime(config.data))
            return EXIT_OK
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, MemoryError) as exc:
        print(f"system error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SYSTEM
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
