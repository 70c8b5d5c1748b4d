"""Time what a user pays before any stage starts.

Imports activeci, then calls resolve_multiplier -> build_basis ->
make_params -> build_profile -> build_test_functions for one config (a JSON
file of RunConfig keys), and prints the seconds taken as its last line:

    PYTHONPATH=src python3 perfbench/setup_probe.py config.json
"""

import json
import sys
import time


def main(path: str) -> None:
    start = time.perf_counter()
    from activeci.directions import build_basis
    from activeci.harness import RunConfig, build_test_functions, resolve_multiplier
    from activeci.iteration import make_params
    from activeci.slabs import build_profile

    with open(path) as fh:
        config = RunConfig(**json.load(fh))
    m = resolve_multiplier(config)
    basis = build_basis(m, supplied=config.supplied_basis, margin=config.gamma_margin)
    make_params(
        basis,
        d=config.d,
        gamma=config.gamma,
        s=config.s,
        b0=config.b0,
        qmax=config.qmax,
        lambda1=config.lambda1,
        grid_budget=config.grid_budget,
    )
    build_profile()
    build_test_functions(config.d, config.seed)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])
