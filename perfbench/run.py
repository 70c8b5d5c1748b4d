"""activeci benchmark: one command prints every metric and checks every run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing built.  Each ``ci-run``
runs in a fresh process, one after another, through the public entry point
``python3 -m activeci.cli --config <generated config> --out <dir>``.  The
seed reaches the program only as ``seed`` in that config.  Child processes
get ``PYTHONPATH=src`` and BLAS/OpenMP thread variables set to 1: the
single-threaded baseline, which also keeps times steady on a shared host.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (MB = 10^6
bytes):

    wall_s       wall time of one ci-run process, start to exit
    cpu_s        user+sys CPU time of that process
    peak_rss_mb  ru_maxrss of that process alone
    setup_s      import activeci plus the set-up calls (setup_probe.py), in
                 a fresh process, median of SETUP_REPEATS
    output_mb    bytes the run wrote under --out

Runs repeat until ``--seconds`` are spent, set-up included, and at least
MIN_RUNS times, so that the median discards one run stalled by a busy host.
Each metric is the median over the runs.

``--trace 1`` alternates untraced and traced runs (tracer.py) until the
time is spent, at least MIN_RUNS + 1 runs, and reports the per-layer
metrics: times are medians over the traced runs, counts must repeat exactly
between them, and ``trace.overhead_s`` is the traced minus the untraced
median wall time.

A run fails when it exits non-zero, when its report.json disagrees with
reference/<workload>.json (see check.py), when that report is not
byte-identical to the first of the set, or when its exact counts differ
from the first traced run.  Failed runs are counted in ``failed`` out of
``attempted``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIR = HERE / "reference"
SETUP_REPEATS = 3
MIN_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The default two-stage run (lambda 256 -> 4096) takes minutes, longer than
# one benchmark run may; these three stage-1 configs split its cost instead.
WORKLOADS = {
    # same sparse work as lambda1 256 at the default budget, but grids capped
    # at 256 points per axis, so sparse products dominate and FFTs are cheap
    "ipm2d-sparse-l256": {"multiplier": "ipm2d", "d": 2, "qmax": 1, "lambda1": 256, "grid_budget": 256},
    # dense 2048^2 FFT quadrature dominates and multiply is about a tenth,
    # the near-bypass for sparse-product work; budget 4096 would make the
    # share 4% but a run 20 s, too long to repeat within one benchmark run
    "ipm2d-grid-l1024": {"multiplier": "ipm2d", "d": 2, "qmax": 1, "lambda1": 1024, "grid_budget": 2048},
    # 3-D: 128^3 grids, 3-component products; |k| = 3 keeps lambda 128
    # non-degenerate
    "ipm3d-l128": {
        "multiplier": "ipm3d",
        "d": 3,
        "supplied_basis": [[2, 2, 1], [2, 1, 2], [1, 2, 2]],
        "qmax": 1,
        "lambda1": 128,
        "grid_budget": 128,
    },
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Run:
    rc: int
    wall_s: float
    cpu_s: float
    rss_bytes: int
    out_bytes: int
    report: bytes | None
    trace: dict | None


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 1),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv: list, log: Path):
    """Run one process to completion; returns (exit code, wall s, rusage)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def probe_setup(config_path: Path, log: Path) -> float:
    rc, _, _ = run_child([sys.executable, str(HERE / "setup_probe.py"), str(config_path)], log)
    if rc != 0:
        raise BenchError(f"set-up probe exited {rc}; see {log}")
    return float(log.read_text().split()[-1])


def run_once(work: Path, config_path: Path, index: int, traced: bool) -> Run:
    out, spans = work / f"run{index}", work / f"spans{index}.json"
    cli = ["--config", str(config_path), "--out", str(out)]
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--run-id", f"{work.name}-{index}", "--", *cli]
    else:
        argv = [sys.executable, "-m", "activeci.cli", *cli]
    rc, wall, usage = run_child(argv, work / f"run{index}.log")
    report = out / "report.json"
    run = Run(
        rc=rc,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_bytes=usage.ru_maxrss * 1024,
        out_bytes=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        report=report.read_bytes() if report.is_file() else None,
        trace=json.loads(spans.read_text()) if traced and spans.is_file() else None,
    )
    shutil.rmtree(out, ignore_errors=True)
    return run


def run_problems(run: Run, first: Run, first_traced: Run | None, reference: dict) -> list:
    problems = [] if run.rc == 0 else [f"exit code {run.rc}"]
    if run.report is None:
        return problems + ["no report.json"]
    if run.report != first.report:
        problems.append("report.json differs from the first run of the set")
    try:
        got = check.extract(json.loads(run.report))
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable report.json: {exc!r}"]
    problems += check.compare(got, reference)
    if first_traced is not None:
        if run.trace is None:
            return problems + ["traced run wrote no spans"]
        if first_traced.trace is not None:
            ours, theirs = tracer.exact_counts(run.trace), tracer.exact_counts(first_traced.trace)
            for key in sorted(ours.keys() | theirs.keys()):
                if ours.get(key) != theirs.get(key):
                    problems.append(f"count {key}: {ours.get(key)} != {theirs.get(key)} in the first traced run")
    return problems


def end_to_end(runs: list, setup: list) -> dict:
    med = statistics.median
    return {
        "wall_s": med(r.wall_s for r in runs),
        "cpu_s": med(r.cpu_s for r in runs),
        "peak_rss_mb": med(r.rss_bytes for r in runs) / 1e6,
        "setup_s": med(setup),
        "output_mb": med(r.out_bytes for r in runs) / 1e6,
    }


def per_layer(runs: list) -> dict:
    """Runs alternate untraced (even index) and traced (odd index)."""
    traced = [r for r in runs[1::2] if r.trace is not None]
    if not traced:
        raise BenchError("no traced run wrote spans")
    stats = [tracer.summarize(r.trace["spans"]) for r in traced]
    values = dict(traced[0].trace["counters"])
    for name, first in stats[0].items():
        values[f"{name}.calls"] = first["calls"]
        for stat in ("total_s", "self_s"):
            values[f"{name}.{stat}"] = statistics.median(s[name][stat] for s in stats)
    values["trace.wall_s"] = statistics.median(r.wall_s for r in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(r.wall_s for r in runs[::2])
    missing = sorted({name for r in traced for name in r.trace["missing"]})
    if missing:
        print(f"warning: not found, so not traced: {', '.join(missing)}", file=sys.stderr)
    return values


def measure(name: str, config: dict, seed: int, seconds: float, trace: bool, reference: dict):
    """Run one workload; returns (runs, failed, metric values)."""
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(dict(config, seed=seed), indent=1))

    start = time.perf_counter()
    setup = [] if trace else [probe_setup(config_path, work / f"setup{i}.log") for i in range(SETUP_REPEATS)]
    runs = []
    while len(runs) < MIN_RUNS + trace or time.perf_counter() - start + statistics.median(r.wall_s for r in runs) <= seconds:
        runs.append(run_once(work, config_path, len(runs), traced=trace and len(runs) % 2 == 1))

    failed = 0
    for index, run in enumerate(runs):
        first_traced = runs[1] if trace and index % 2 == 1 else None
        problems = run_problems(run, runs[0], first_traced, reference)
        for problem in problems:
            print(f"run {index}: {problem}", file=sys.stderr)
        failed += bool(problems)
    values = per_layer(runs) if trace else end_to_end(runs, setup)
    if not failed:
        shutil.rmtree(work)  # a failed set keeps its logs
    return runs, failed, values


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="activeci benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "activeci" / "__init__.py").is_file():
        print(f"error: no activeci sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        reference = load_json(REFERENCE_DIR / f"{args.workload}.json")
        runs, failed, values = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"host {json.dumps(host_facts())}")
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} runs attempted, {failed} failed")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:44s} {value:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
