"""Command-line front end: run experiments, sweep comparisons, and print
privacy-budget tables.

Flag names mirror config keys; flags override values from the config file.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .blocks import ConfigurationError
from .optimizer import DivergenceError
from .runner import (RunConfig, compare, config_from_strings, csv_text,
                     parse_config_file)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", default=None)


def _config_from_args(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    if getattr(args, "config", None):
        return parse_config_file(args.config, overrides)
    return config_from_strings(overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dpfed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("--config", default=None, help="key = value config file")
    _add_config_flags(p_run)

    p_cmp = sub.add_parser("compare", help="paired-seed sweep over configs")
    p_cmp.add_argument("--config", action="append", required=True, dest="configs")
    p_cmp.add_argument("--seeds", default="0,1,2,3,4")
    p_cmp.add_argument("--axes", default="", help="comma-separated ablation keys")
    p_cmp.add_argument("--output_dir", required=True)

    p_acc = sub.add_parser("account", help="print a budget table as CSV")
    for key in ("noise_multiplier", "sample_rate", "local_steps", "rounds"):
        p_acc.add_argument(f"--{key}", required=True)
    p_acc.add_argument("--delta", default="1e-5")
    p_acc.add_argument("--every", type=int, default=1,
                       help="print one row every this many rounds")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            from .runner import run
            summary = run(_config_from_args(args))
            print(f"final_loss={summary.final_loss:.6g} "
                  f"final_accuracy={summary.final_accuracy:.6g} "
                  f"eps_rdp={summary.eps_rdp:.6g} "
                  f"wall_time_s={summary.wall_time_s:.3f}")
        elif args.command == "compare":
            seeds = [s for s in args.seeds.split(",") if s]
            configs = [parse_config_file(path) for path in args.configs]
            axes = tuple(a for a in args.axes.split(",") if a)
            compare(configs, seeds, axes=axes, output_dir=args.output_dir)
            print(f"wrote {args.output_dir}/comparison.csv")
        elif args.command == "account":
            if args.every < 1:
                raise ConfigurationError("--every must be >= 1")
            # Its flags are config keys, parsed and checked as a run's are.
            cfg = _config_from_args(args)
            rows = [(t, eps) for t, eps in enumerate(cfg.epsilons(), 1)
                    if t % args.every == 0 or t == cfg.rounds]  # a run's eps
            print(csv_text(("round", "eps_rdp"), rows), end="")
    except (ConfigurationError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
