#!/usr/bin/env python3
"""Sweep the first-stage frequency and tabulate stress ratios and error pieces.

Each frequency is one single-stage ``ci-run`` (``harness.run``) on the basis
(4, 3), (4, -3); its artifacts go to a temporary directory and the table is
read from its report.json.  Exits 2 on bad input, otherwise with the largest
status a run returned (1 if a stage failed certification).
"""

import argparse
import csv
import json
import os
import sys
import tempfile

from activeci.harness import ConfigError, RunConfig, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--lams",
        type=int,
        nargs="+",
        default=[64, 256, 1024, 4096],
        help="first-stage frequencies (powers of two)",
    )
    parser.add_argument("--grid-budget", type=int, default=RunConfig.grid_budget)
    parser.add_argument("--out", default="sweep.csv", help="output CSV path")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        try:
            configs = [
                RunConfig(
                    supplied_basis=((4, 3), (4, -3)),
                    qmax=1,
                    lambda1=lam,
                    grid_budget=args.grid_budget,
                    out=os.path.join(tmp, str(i)),
                )
                for i, lam in enumerate(args.lams)
            ]
            status = max(run(config) for config in configs)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reports = []
        for config in configs:
            with open(os.path.join(config.out, "report.json")) as fh:
                reports.append(json.load(fh))

    rows = []
    for report in reports:
        lam, eps = report["params"]["lam_schedule"][0], report["params"]["eps_schedule"][0]
        h, diag = report["stages"][1]["history"], report["stages"][1]["diagnostics"]
        rows.append(
            {
                "lam": lam,
                "eps": eps,
                "degenerate": h["degenerate"],
                "ratio": h["ratio"],
                "R_Hs": h["R_Hs"],
                "R_N_Hs": h["R_N_Hs"],
                "R_D_Hs": h["R_D_Hs"],
                "cancellation_ratio": diag["ratio"],
                "mean_cancellation_rel": diag["mean_cancellation_rel"],
            }
        )
        print(f"lam={lam}: eps={eps:.4g} ratio={h['ratio']:.4g} degenerate={h['degenerate']}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
