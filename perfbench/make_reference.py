"""Write reference/<workload>.json from one seed-0 run of each workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

A reference fixes what every later run must reproduce (see check.py), so
regenerate it only when a change is meant to alter those results.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run


def reference_for(name: str, config: dict) -> dict:
    """The checked part of one seed-0 run of ``config``."""
    work = run.OUT / f"reference-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(dict(config, seed=0)))
    result = run.run_once(work, config_path, 0, traced=False)
    if result.rc != 0 or result.report is None:
        raise run.BenchError(f"{name}: ci-run exited {result.rc}; see {work}")
    shutil.rmtree(work)
    tolerances = {"basis_rtol": check.BASIS_RTOL, "norm_rtol": check.NORM_RTOL}
    return {"workload": name, "config": config, "tolerances": tolerances, **check.extract(json.loads(result.report))}


def main(names) -> None:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or run.WORKLOADS:
        ref = reference_for(name, run.WORKLOADS[name])
        (run.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote reference for {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
