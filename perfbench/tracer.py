"""Outside-in span tracer for activeci.

The tracer wraps the public functions named in ``TRACED`` and changes nothing
under ``src/``.  A module that does ``from .fields import multiply`` holds a
second binding of the function, which patching ``fields`` alone would miss,
so every binding in every loaded ``activeci`` module is replaced.

Each call becomes a span ``[id, parent_id, name, start, end]``.  Spans stay in
memory and are written once, when the traced run ends.  Exact counters are
computed here from call arguments and results, never read from the program.

Run as a script, it traces one ``ci-run`` invocation and writes its spans:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json \\
        --run-id ID -- --config cfg.json --out out
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import time

import numpy as np

# module -> public functions (``Class.method`` for methods) that get spans
TRACED = {
    "cli": ["main"],
    "harness": [
        "run",
        "resolve_multiplier",
        "build_test_functions",
        "certify_items",
        "weak_form_test",
    ],
    "iteration": [
        "make_params",
        "base_state",
        "build_increment",
        "amplitudes",
        "step",
        "residual_defect",
        "oscillation_diagnostics",
    ],
    "fields": [
        "multiply",
        "sample",
        "lp_norm_detailed",
        "besov_norm",
        "sobolev_norm",
        "analyze",
        "low_pass",
        "shell_project",
        "fractional_laplacian",
        "gradient",
        "divergence",
        "save_snapshot",
    ],
    "directions": ["build_basis"],
    "multipliers": ["check_claims", "apply_T"],
    "slabs": ["build_profile", "slab_fourier", "certify_scaling"],
    "kernels": ["ShellKernel.shell_weight"],
}

# counters reported on every run (stage counts of deeper stages are recorded
# too, under the same naming, when a config reaches them)
COUNTERS = (
    [
        "fields.multiply.pairs",
        "fields.multiply.out_coeffs",
        "fields.sample.grid_points",
        "fields.sample.fft_bytes_computed",
        "fields.lp_norm_detailed.max_grid_N",
        "fields.lp_norm_detailed.unresolved",
        "fields.save_snapshot.bytes",
    ]
    + [f"iteration.coeffs.{f}.q{q}" for q in range(2) for f in ("theta", "u", "R")]
    + ["iteration.coeffs.w.q1"]
)

LP = "fields.lp_norm_detailed"
SAMPLE = "fields.sample"


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


def dealias_N(field, p: float) -> int:
    """Smallest power-of-two grid on which |f|^p quadrature does not alias:
    4 band + 1 points for the sup norm, 2 ceil(p) band + 1 otherwise."""
    keys = field.coeffs
    flat = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int64, count=len(keys) * field.dim)
    band = int(np.abs(flat).max()) if flat.size else 0
    if p == math.inf:
        return _next_pow2(4 * band + 1)
    return _next_pow2(2 * int(math.ceil(p)) * band + 1)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent_id, name, start, end]; id == index
        self.stack: list = []  # ids of the open spans
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.lp_grid: dict = {}  # open lp_norm_detailed span id -> largest N sampled
        self.missing: list = []

    def _open_named(self, name):
        """Id of the innermost open span called ``name``, or None."""
        for sid in reversed(self.stack):
            if self.spans[sid][2] == name:
                return sid
        return None

    def wrap(self, name, fn):
        after = AFTER.get(name)
        signature = inspect.signature(fn) if after else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            record = [sid, tracer.stack[-1] if tracer.stack else None, name, 0.0, 0.0]
            tracer.spans.append(record)
            tracer.stack.append(sid)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, sid, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded activeci module."""
        for short in TRACED:
            importlib.import_module(f"activeci.{short}")
        modules = [m for n, m in sys.modules.items() if n == "activeci" or n.startswith("activeci.")]
        for short, names in TRACED.items():
            mod = sys.modules[f"activeci.{short}"]
            for path in names:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{short}.{path}")
                    continue
                wrapper = self.wrap(f"{short}.{path}", original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def dump(self, path, run_id, rc) -> None:
        data = {
            "run_id": run_id,
            "rc": rc,
            "missing": self.missing,
            "counters": self.counters,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


# -- exact counters, computed from arguments and results -------------------


def _after_multiply(tracer, sid, a, result):
    f, g = a["f"], a["g"]
    components = f.dim if (f.rank or g.rank) else 1
    tracer.counters["fields.multiply.pairs"] += len(f.coeffs) * len(g.coeffs) * components
    tracer.counters["fields.multiply.out_coeffs"] += len(result.coeffs)


def _after_sample(tracer, sid, a, result):
    field, N = a["field"], int(a["N"])
    lp = tracer._open_named(LP)
    if lp is not None:
        tracer.lp_grid[lp] = max(tracer.lp_grid.get(lp, 0), N)
    if tracer._open_named(SAMPLE) is not None:
        return  # a vector field's component grid, counted by the outer call
    points = (field.dim if field.rank == 1 else 1) * N**field.dim
    tracer.counters["fields.sample.grid_points"] += points
    tracer.counters["fields.sample.fft_bytes_computed"] += 16 * points  # complex128


def _after_lp(tracer, sid, a, result):
    N = tracer.lp_grid.pop(sid, 0)
    if N == 0:
        return  # zero field: no grid was sampled
    c = tracer.counters
    c["fields.lp_norm_detailed.max_grid_N"] = max(c["fields.lp_norm_detailed.max_grid_N"], N)
    if N < dealias_N(a["f"], a["p"]):
        c["fields.lp_norm_detailed.unresolved"] += 1


def _after_snapshot(tracer, sid, a, result):
    tracer.counters["fields.save_snapshot.bytes"] += os.path.getsize(a["path"])


def _count_state(tracer, state, w=None):
    q = state.q
    for label, field in (("theta", state.theta), ("u", state.u), ("R", state.R), ("w", w)):
        if field is not None:
            tracer.counters[f"iteration.coeffs.{label}.q{q}"] = len(field.coeffs)


def _after_base_state(tracer, sid, a, result):
    _count_state(tracer, result)


def _after_step(tracer, sid, a, result):
    state, bundle = result
    _count_state(tracer, state, bundle.w)


AFTER = {
    "fields.multiply": _after_multiply,
    SAMPLE: _after_sample,
    LP: _after_lp,
    "fields.save_snapshot": _after_snapshot,
    "iteration.base_state": _after_base_state,
    "iteration.step": _after_step,
}


# -- analysis ---------------------------------------------------------------


def summarize(spans) -> dict:
    """Per span name: ``calls``, ``total_s`` (outermost calls only, so a
    recursive function is not counted twice) and ``self_s`` (span time minus
    the time its child spans cover)."""
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {f"{m}.{p}": {"calls": 0, "total_s": 0.0, "self_s": 0.0} for m, ps in TRACED.items() for p in ps}
    for sid, parent, name, start, end in spans:
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[sid]
        while parent is not None and spans[parent][2] != name:
            parent = spans[parent][1]
        if parent is None:
            st["total_s"] += end - start
    return stats


def exact_counts(trace: dict) -> dict:
    """Everything in a trace that must repeat bit for bit: counters and calls."""
    counts = dict(trace["counters"])
    for name, st in summarize(trace["spans"]).items():
        counts[f"{name}.calls"] = st["calls"]
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--run-id", required=True, help="identifier stored with the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then ci-run arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    from activeci import cli

    rc = cli.main(cli_args)
    tracer.dump(args.spans, args.run_id, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
