#!/usr/bin/env python3
"""Benchmark two revisions in alternating pairs and summarise the pairs.

    python3 scripts/bench.py --parent REV --change REV --seed 501 --pairs 10 \
        --out BENCH.json [--workloads NAME ...] [--trace 0|1]

Each revision is resolved to its full commit hash, which the output
records, and extracted with ``git archive`` into a fresh temporary
directory, so neither side starts with a ``__pycache__``.  Pair i runs
``perfbench/run.py --seed <seed + i>`` of both checkouts, one after the
other, each for the ``run_seconds`` of BENCHMARK.json; the parent goes
first in even pairs and the change first in odd ones.  The children keep
the caller's environment, ``PYTHONDONTWRITEBYTECODE`` included, so both
sides compile or cache their bytecode alike.

The output holds the host facts ``run.py`` prints, each side's line total
under ``src/`` and ``scripts/`` (what ``wc -l`` sums) and, per workload and
metric, each side's median, q1 and q3 and the pairs the change won (better
in the metric's direction of BENCHMARK.json; ties count for neither).  Each
end-to-end metric also gets a verdict, see ``verdict``.
Exits 1 if any run failed: a non-zero exit, no result line, or a result
that is not correct; ``runs.failures`` lists each failed run.  Exits 2 with
one ``error:`` line, before any run, when a revision names no commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_output(stdout: str):
    """(host facts, result) from ``run.py``'s stdout; either is None when
    its line is missing or unreadable."""
    host = result = None
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host ") :])
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        pass
    return host, result if isinstance(result, dict) else None


def _spread(values: list) -> dict:
    if len(values) < 2:
        return dict.fromkeys(("median", "q1", "q3"), values[0] if values else None)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry: dict, better: str, bound: float) -> str:
    """``"gain"`` when the change won at least 9/10 of the pairs and its
    median beats the parent's by more than the parent's q3 - q1;
    ``"worse"`` when its median is worse than the parent's by more than
    ``bound`` times the parent's median; ``"unresolved"`` when the parent's
    q3 - q1 is wider than that bound, so the runs cannot tell a change
    within it from none, unless the change won every pair; else
    ``"within_bound"``."""
    parent, change = entry["parent"], entry["change"]
    gap = parent["median"] - change["median"]  # > 0: the change is better
    if better != "lower":
        gap = -gap
    spread = parent["q3"] - parent["q1"]
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and gap > spread:
        return "gain"
    allowed = bound * abs(parent["median"])
    if -gap > allowed:
        return "worse"
    if spread > allowed and entry["change_wins"] < entry["pairs"]:
        return "unresolved"
    return "within_bound"


def summarize(records: list, spec: list) -> dict:
    """Per workload and metric of ``spec`` (BENCHMARK.json's metric list):
    each side's spread, the pairs the change won and, for a metric with a
    ``bound`` (the end-to-end ones), its verdict.  ``records`` holds one
    ``{"workload", "pair", "side", "result"}`` per run, ``result`` None for
    a run without a result line; a pair counts only if both sides have the
    metric."""
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        by_pair = {}
        for r in records:
            if r["workload"] == workload and r["result"] is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        metrics = {}
        for m in spec:
            pairs = [
                (got["parent"][m["name"]]["value"], got["change"][m["name"]]["value"])
                for got in by_pair.values()
                if all(side in got and m["name"] in got[side] for side in SIDES)
            ]
            if not pairs:
                continue
            sign = 1 if m["better"] == "lower" else -1
            entry = metrics[m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "pairs": len(pairs),
                "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                "parent": _spread([p for p, _ in pairs]),
                "change": _spread([c for _, c in pairs]),
            }
            if "bound" in m:
                entry["verdict"] = verdict(entry, m["better"], m["bound"])
        out[workload] = metrics
    return out


def run_failed(rc: int, result) -> bool:
    return rc != 0 or result is None or not result.get("correct")


def count_lines(tree: Path) -> int:
    """Newlines in every file under ``src/`` and ``scripts/`` of a tree."""
    return sum(f.read_bytes().count(b"\n") for d in ("src", "scripts") for f in (tree / d).rglob("*") if f.is_file())


def resolve(rev: str) -> str:
    """The full hash of the commit ``rev`` names; ValueError if none."""
    cmd = ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        raise ValueError(f"{rev!r} names no commit of {ROOT}")
    return proc.stdout.strip()


def checkout(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the change side")
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON summary path")
    args = parser.parse_args(argv)
    try:
        revs = {side: resolve(getattr(args, side)) for side in SIDES}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records, failed, host = [], [], None
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: checkout(revs[side], Path(tmp) / side) for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        lines = {side: count_lines(tree) for side, tree in trees.items()}
        for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed + pair), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                    proc = subprocess.run(cmd, cwd=trees[side], capture_output=True, text=True)
                    got_host, result = parse_output(proc.stdout)
                    host = host or got_host
                    bad = run_failed(proc.returncode, result)
                    print(f"{workload} pair {pair} {side}: exit {proc.returncode}" + (f", failed\n{proc.stderr}" if bad else ""), file=sys.stderr)
                    records.append({"workload": workload, "pair": pair, "side": side, "result": result})
                    if bad:
                        failed.append({"workload": workload, "pair": pair, "side": side, "exit": proc.returncode, "correct": (result or {}).get("correct")})
    summary = {
        "host": host,
        "parent": revs["parent"],
        "change": revs["change"],
        "settings": {"seeds": [args.seed, args.seed + args.pairs - 1], "pairs": args.pairs, "seconds": spec["run_seconds"], "trace": args.trace},
        "runs": {"attempted": len(records), "failed": len(failed), "failures": failed},
        "lines": lines,
        "workloads": summarize(records, spec["per_layer" if args.trace else "end_to_end"]),
    }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
