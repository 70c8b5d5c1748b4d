"""Command-line entry point: ``ci-run --config <file>`` with overrides.

The config file is JSON with the keys of RunConfig; any flag given on the
command line wins over the file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigError, RunConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ci-run",
        description=(
            "Run the stationary active-scalar convex-integration pipeline "
            "and certify its per-stage invariants."
        ),
    )
    parser.add_argument("--config", help="JSON config file (keys of RunConfig)")
    parser.add_argument("--gamma", type=float, help="dissipation exponent in (0, 2]")
    parser.add_argument("--s", type=float, help="negative-Sobolev certification index")
    parser.add_argument("--dim", type=int, dest="d", help="spatial dimension")
    parser.add_argument("--b0", type=int, help="intermittency offset exponent")
    parser.add_argument("--qmax", type=int, help="number of iteration stages")
    parser.add_argument("--lambda1", type=int, help="first stage frequency (power of 2)")
    parser.add_argument("--grid-budget", type=int, help="max dense grid points per axis")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--multiplier",
        help="ipm2d | ipm3d | sqg | mg | file:<path> (a declarative rational symbol)",
    )
    parser.add_argument("--seed", type=int, help="seed for the random test functions")
    return parser


def config_from_args(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: the top level is not a JSON object")
    # every flag's dest is its RunConfig key
    data.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
    return RunConfig(**data)


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except (ValueError, OSError, TypeError) as exc:  # ConfigError and JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
