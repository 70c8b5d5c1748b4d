"""Self-test of the benchmark on the quick config (ipm2d, qmax 1, lambda1 256).

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints with its unit, that the
traced self times sum to no more than the traced wall time, and that a
perturbed reference turns every run into a failed one.  Takes about a
minute; exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import make_reference
import run

QUICK = {"multiplier": "ipm2d", "d": 2, "qmax": 1, "lambda1": 256}


def bench(trace: int):
    """Run the benchmark CLI on the quick config; returns (lines, result)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "selftest", "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    assert rc == 0, f"benchmark exited {rc}"
    return lines[:-1], json.loads(lines[-1])


def main() -> None:
    spec = run.load_json(run.ROOT / "BENCHMARK.json")
    run.WORKLOADS["selftest"] = QUICK
    run.REFERENCE_DIR = run.OUT / "selftest-reference"
    run.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    reference = make_reference.reference_for("selftest", QUICK)
    path = run.REFERENCE_DIR / "selftest.json"
    path.write_text(json.dumps(reference))

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = bench(trace)
        assert result["correct"] and result["failed"] == 0, result
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"], m
            words = [line.split() for line in lines]
            assert any(w[0] == m["name"] and w[-1] == m["unit"] for w in words if w), f"{m['name']} not printed"
    metrics = result["metrics"]
    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum <= metrics["trace.wall_s"]["value"], (self_sum, metrics["trace.wall_s"])

    reference["norms"]["q1.R_Hs"] *= 1 + 1e-6
    path.write_text(json.dumps(reference))
    _, result = bench(0)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result

    shutil.rmtree(run.OUT)
    print("selftest passed")


if __name__ == "__main__":
    main()
