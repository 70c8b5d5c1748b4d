#!/usr/bin/env python3
"""Sweep the first-stage frequency and tabulate stress ratios and error pieces."""

import argparse
import csv
import sys

from activeci.harness import ConfigError, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--lams",
        type=int,
        nargs="+",
        default=[64, 256, 1024, 4096],
        help="first-stage frequencies (powers of two)",
    )
    parser.add_argument("--grid-budget", type=int, default=8192)
    parser.add_argument("--out", default="sweep.csv", help="output CSV path")
    args = parser.parse_args()

    try:
        records = sweep(args.lams, args.grid_budget)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for lam in args.lams:
        rec = records[lam]
        h, eps = rec["history"], rec["params"].stage_eps(1)
        rows.append(
            {
                "lam": lam,
                "eps": eps,
                "degenerate": rec["bundle"].degenerate,
                "ratio": h["ratio"],
                "R_Hs": h["R_Hs"],
                "R_N_Hs": h["R_N_Hs"],
                "R_D_Hs": h["R_D_Hs"],
                "cancellation_ratio": rec["diag"]["ratio"],
                "mean_cancellation_rel": rec["diag"]["mean_cancellation_rel"],
            }
        )
        print(f"lam={lam}: eps={eps:.4g} ratio={h['ratio']:.4g} degenerate={rec['bundle'].degenerate}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
