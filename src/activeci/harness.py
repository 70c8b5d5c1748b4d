"""Run orchestration: per-stage certification of the inductive items,
weak-form pairing tests, diagnostics, and report emission.

The certificate is the only judge of the exact items (mean-zero scalar,
divergence-free drift u = T theta, relaxed-equation residual, single-shell
increment support) and of the weak-form identity: the iteration measures
them without raising, and the run stops after the first stage that fails
one, with every artifact written for the stages so far.  Quantitative items
(stress decay, increment norms, paraproduct sums) are reported with
achieved-vs-target and never fail it — their absolute constants presuppose
frequency scales far beyond any desk run.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from .directions import DEFAULT_GAMMA_MARGIN, build_basis
from .fields import (
    SpectralField,
    fractional_laplacian,
    gradient,
    nonzero_part,
    pairing,
    save_snapshot,
)
from .grids import DEFAULT_GRID_BUDGET
from .iteration import (
    ITEM4_PAIRS,
    IterationParams,
    IterationState,
    base_state,
    make_params,
    step,
)
from .multipliers import (
    CLAIM_NAMES,
    Multiplier,
    check_claims,
    ipm2d,
    ipm3d,
    load_multiplier,
    mg,
    sqg,
)
from .slabs import _line_slope, certify_scaling, write_scaling_csv

__all__ = [
    "RunConfig",
    "ConfigError",
    "resolve_multiplier",
    "build_test_functions",
    "certify_items",
    "weak_form_test",
    "run",
]

REPORT_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    multiplier: str = "ipm2d"
    d: int = 2
    gamma: float = 1.0
    s: float = 2.0
    b0: int = 2
    qmax: int = 2
    lambda1: int = 256
    grid_budget: int = DEFAULT_GRID_BUDGET
    out: str = "out"
    seed: int = 0
    supplied_basis: list | None = None
    gamma_margin: float = DEFAULT_GAMMA_MARGIN
    scaling_eps: float = 0.5
    scaling_lams: tuple = (64, 256, 1024, 4096)

    def __post_init__(self):
        for name in ("multiplier", "out"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} = {getattr(self, name)!r} must be a string")
        for name in ("d", "b0", "qmax", "lambda1", "grid_budget", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass
                raise ConfigError(f"{name} = {value!r} must be an integer")
        lams, basis = self.scaling_lams, self.supplied_basis
        if not isinstance(lams, (list, tuple)) or any(type(v) is not int for v in lams):
            raise ConfigError(f"scaling_lams = {lams!r} must be a list of integers")
        vectors = isinstance(basis, (list, tuple)) and all(isinstance(v, (list, tuple)) for v in basis)
        if basis is not None and not (vectors and all(type(c) is int for v in basis for c in v)):
            raise ConfigError(f"supplied_basis = {basis!r} must be a list of integer vectors")
        for name in ("gamma", "s"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                raise ConfigError(f"{name} = {value!r} must be a finite number")
        floor = self.d / 2 + max(self.gamma - 1.0, 0.0)
        if self.s <= floor:
            raise ConfigError(
                f"s = {self.s} must exceed d/2 + max(gamma-1, 0) = {floor}"
            )
        if not (0 < self.gamma <= 2):
            raise ConfigError(f"gamma = {self.gamma} must lie in (0, 2]")
        if self.qmax < 0:
            raise ConfigError("qmax must be >= 0")
        if self.seed < 0:  # random.Random(-n) would draw what n draws
            raise ConfigError(f"seed = {self.seed} must be >= 0")
        if self.grid_budget < 1:
            raise ConfigError(f"grid_budget = {self.grid_budget} must be >= 1")
        if self.lambda1 < 2 or self.lambda1 & (self.lambda1 - 1):
            raise ConfigError(f"lambda1 = {self.lambda1} must be a power of two")
        if not 0 < self.gamma_margin < 1:
            raise ConfigError(f"gamma_margin = {self.gamma_margin} must lie in (0, 1)")


_MULTIPLIERS = {"ipm2d": ipm2d, "ipm3d": ipm3d, "sqg": sqg, "mg": mg}


def _checked_multiplier(config: RunConfig) -> tuple:
    """``(m, claims)``: the configured symbol and the claims report it passed."""
    name = config.multiplier
    if name.startswith("file:"):
        path = name[len("file:") :]
        try:
            m = load_multiplier(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load multiplier file {path!r}: {type(exc).__name__}: {exc}") from exc
    elif name in _MULTIPLIERS:
        m = _MULTIPLIERS[name]()
    else:
        raise ConfigError(f"unknown multiplier {name!r}")
    if m.dim != config.d:
        raise ConfigError(f"multiplier {m.name} is {m.dim}-dimensional, config d = {config.d}")
    claims = check_claims(m)
    for required in CLAIM_NAMES:
        claimed = bool(m.claims[required])
        observed = bool(claims[required]["pass"])
        if not (claimed and observed):
            raise ConfigError(
                f"multiplier {m.name} rejected: the iteration requires "
                f"{required} (claimed={claimed}, observed={observed})"
            )
    return m, claims


def resolve_multiplier(config: RunConfig) -> Multiplier:
    """The configured symbol, once it has passed every claim check."""
    return _checked_multiplier(config)[0]


def build_test_functions(d: int, seed: int) -> list:
    """``(label, field, support_radius)`` of six real single modes at |xi| in
    {1, 2, 5} plus two seeded random band-limited combinations."""
    singles = [
        (1,) + (0,) * (d - 1),
        (0, 1) + (0,) * (d - 2),
        (2,) + (0,) * (d - 1),
        (0, 2) + (0,) * (d - 2),
        (3, 4) + (0,) * (d - 2),
        (5,) + (0,) * (d - 1),
    ]
    members = []
    for xi in singles:
        neg = tuple(-c for c in xi)
        f = SpectralField.scalar(d, {xi: 0.5, neg: 0.5})
        members.append((f"mode{xi}", f, math.sqrt(sum(c * c for c in xi))))
    rng = random.Random(seed)  # private: the global generator stays untouched
    for idx in range(2):
        freqs, amps = [], []
        for _ in range(4):
            xi = np.array([rng.randint(-6, 6) for _ in range(d)])
            if not xi.any():
                continue
            amp = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) / 2.0
            freqs += [xi, -xi]
            amps += [amp, amp.conjugate()]
        f = SpectralField.from_entries(d, 0, freqs, amps)
        members.append((f"band{idx}", f, f.max_freq))
    return members


# -- inductive items ------------------------------------------------------


def certify_items(state: IterationState) -> dict:
    """The inductive items of one stage, read from the measurements the
    iteration kept on the state; nothing is computed here."""
    q = state.q
    report = {"q": q}
    entry = state.norm_history[-1]

    # item 1: mean-zero scalar, divergence-free drift (exact / 1e-13), and
    # the drift u = T theta (relative to max |u|, 1e-12)
    report["item1"] = {
        "theta_mean": state.theta_mean,
        "div_u_rel": state.div_u,
        "drift_rel": state.drift_rel,
        "pass": bool(state.theta_mean == 0.0 and state.div_u <= 1e-13 and state.drift_rel <= 1e-12),
        "tolerance": 1e-13,
    }

    # item 2: relaxed-equation residual (exact up to roundoff)
    defect = entry["residual_defect"]
    report["item2"] = {"residual_defect": defect, "pass": bool(defect <= 1e-10), "tolerance": 1e-10}

    # item 3: stress smallness, value + trend
    r_hs = entry["R_Hs"]
    target = 2.0**-q
    hist = [h for h in state.norm_history if h.get("ratio") is not None]
    report["item3"] = {
        "R_Hs": r_hs,
        "paper_target": target,
        "achieved_absolute": bool(r_hs < target),
        "ratios": [h["ratio"] for h in hist],
        "trend_decreasing": bool(all(h["ratio"] < 1.0 for h in hist)) if hist else None,
    }

    # item 4: increment norms in Besov/L^p with fitted geometric decay; a
    # degenerate increment records no Besov norm, and counts as 0
    item4 = {}
    for alpha, p in ITEM4_PAIRS:
        vals = [
            {
                "stage": inc.stage,
                "besov": h["w_besov"].get(str(alpha), 0.0),
                "lp": inc.w_norms[p].norm,
            }
            for inc, h in zip(state.increments, state.norm_history[1:])
        ]
        totals = [v["besov"] + v["lp"] for v in vals]
        # fitted against each increment's own stage, so a degenerate stage
        # between two others leaves them two stages apart
        positive = [(v["stage"], t) for v, t in zip(vals, totals) if t > 0]
        rate = None
        if len(positive) >= 2:
            rate = math.exp(_line_slope([q for q, _ in positive], [math.log(t) for _, t in positive]))
        item4[f"alpha={alpha},p={p}"] = {"per_stage": vals, "fitted_ratio": rate}
    report["item4"] = item4

    # item 5: L^1 mass floor with the implemented delta
    l1, delta = state.theta_L1, state.norm_history[0]["delta"]
    floor = (1.0 + 2.0**-q) * delta
    report["item5"] = {
        "theta_L1": l1.norm,
        "quad_err": l1.quad_err,
        "grid_N": l1.grid_N,
        "resolved": l1.resolved,
        "floor": floor,
        "delta": delta,
        "delta_max_here": l1.norm / (1.0 + 2.0**-q),
        "pass": bool(l1.norm > floor),
    }

    # item 6: each increment confined to one dyadic shell plateau (exact scan)
    shells = [inc.shell for inc in state.increments]
    report["item6"] = {"per_stage": shells, "pass": all(s["pass"] for s in shells)}

    # item 7: full paraproduct interaction matrix and its partial sums over
    # whole rows, summed in row-major order
    rows = state.interactions
    running = list(itertools.accumulate(v for row in rows for v in row))
    partial = [running[n * len(rows) - 1] for n in range(1, len(rows) + 1)]
    monotone = all(b >= a - 1e-15 for a, b in zip(partial, partial[1:]))
    report["item7"] = {
        "matrix": {f"{n},{m}": v for n, row in enumerate(rows, 1) for m, v in enumerate(row, 1)},
        "partial_sums": partial,
        "monotone_bounded": bool(monotone),
    }

    report["exact_pass"] = bool(
        report["item1"]["pass"] and report["item2"]["pass"] and report["item6"]["pass"]
    )
    return report


def weak_form_test(state: IterationState, psis: list, params: IterationParams) -> dict:
    """Pair the relaxed equation against each band-limited test function.

    Identity: -<P_{!=0}(theta u), grad psi> + <theta, Lambda^gamma psi>
            = -<R, grad psi>, an algebraic consequence of the residual
    invariant.  The mean-free product is used; constants pair to zero
    against grad psi anyway.  The product theta u is the one the state's
    residual check formed.
    """
    theta_u = nonzero_part(state.theta_u)
    results = {}
    for label, psi, radius in psis:
        gpsi = gradient(psi)
        diss, diss_gross = pairing(state.theta, fractional_laplacian(psi, params.gamma))
        transport, transport_gross = pairing(theta_u, gpsi)
        r_pair, r_gross = pairing(state.R, gpsi)
        lhs = diss - transport
        rhs = -r_pair
        # normalize by the gross term size: the pairings themselves can
        # cancel to roundoff, where a self-relative defect is meaningless
        scale = max(transport_gross, diss_gross, r_gross, abs(lhs), abs(rhs))
        defect = abs(lhs - rhs) / scale if scale > 0 else 0.0
        results[label] = {
            "support_radius": float(radius),
            "lhs": lhs,
            "rhs": rhs,
            "defect_rel": float(defect),
            "R_pairing": r_pair,
            "R_pairing_gross": r_gross,
            "pass": bool(defect <= 1e-10),
        }
    results["all_pass"] = bool(all(v["pass"] for k, v in results.items() if k != "all_pass"))
    return results


# -- orchestration --------------------------------------------------------


def _dump(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; MB = 10^6 bytes
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(config: RunConfig) -> int:
    """Execute the full default pipeline; returns the exit status.

    0 iff every stage passed its exact items and weak-form identity.  The
    run stops after the first stage that fails them, writes every artifact
    for the stages so far, prints one stderr line naming the stage and its
    failed checks, and returns 1.  Quantitative trends are reported, never
    fatal.
    """
    start, t0 = time.time(), time.perf_counter()  # the wall timestamp; the duration's clock
    m, claims = _checked_multiplier(config)
    try:
        basis = build_basis(m, supplied=config.supplied_basis, margin=config.gamma_margin)
        params = make_params(
            basis,
            d=config.d,
            gamma=config.gamma,
            s=config.s,
            b0=config.b0,
            qmax=config.qmax,
            lambda1=config.lambda1,
            grid_budget=config.grid_budget,
        )
        # the slab table needs no stage, so a bad scaling_eps or scaling_lams
        # stops the run before the first one
        scaling_rows = certify_scaling(basis.omega[0], list(config.scaling_lams), config.scaling_eps, [1.0, 2.0, math.inf])
    except (ValueError, OverflowError) as exc:  # the basis, schedule or slab table the config asks for
        raise ConfigError(str(exc)) from exc
    except TypeError as exc:  # e.g. a string scaling_eps
        raise ConfigError(f"config value of the wrong type: {exc}") from exc
    psis = build_test_functions(config.d, config.seed)
    # the peak after set-up and after each stage's record, so a run shows
    # what each stage adds on top of the import and set-up floor
    timing = {"start": start, "setup_peak_rss_mb": _peak_rss_mb(), "stage_peak_rss_mb": []}
    try:  # only once set-up has passed, so that bad input leaves no directory
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {config.out!r}: {exc}") from exc

    state = base_state(params)
    stages = []

    def record_stage(st) -> list:
        """Certify and save the stage; returns the names of its failed checks."""
        cert = certify_items(st)
        weak = weak_form_test(st, psis, params)
        stage_dir = os.path.join(config.out, f"stage-{st.q}")
        os.makedirs(stage_dir, exist_ok=True)
        save_snapshot(st.theta, os.path.join(stage_dir, "theta.npz"))
        save_snapshot(st.u, os.path.join(stage_dir, "u.npz"))
        save_snapshot(st.R, os.path.join(stage_dir, "R.npz"))
        if st.increments:
            save_snapshot(st.increments[-1].w, os.path.join(stage_dir, "w.npz"))
        stages.append(
            {
                "q": st.q,
                "items": cert,
                "weak_form": weak,
                "diagnostics": st.diagnostics,
                "history": st.norm_history[-1],
            }
        )
        timing["stage_peak_rss_mb"].append(_peak_rss_mb())
        failed = [item for item in ("item1", "item2", "item6") if not cert[item]["pass"]]
        return failed + ([] if weak["all_pass"] else ["weak_form"])

    failed = record_stage(state)
    while not failed and state.q < params.qmax:
        state, _ = step(state, params)
        failed = record_stage(state)

    # R-pairing decay across stages per test function
    decay = {}
    # values below the roundoff scale of the largest pairing are noise, not
    # signal: the stress coefficients at untouched modes carry product debris
    floor = 1e-12 * max(
        (
            abs(s["weak_form"][label]["R_pairing"])
            for s in stages
            for label, *_ in psis
        ),
        default=0.0,
    )
    for label, *_ in psis:
        series = [abs(s["weak_form"][label]["R_pairing"]) for s in stages]
        nonzero = [v for v in series if v > floor]
        decay[label] = {
            "series": series,
            "noise_floor": floor,
            "decreasing": bool(all(b < a for a, b in zip(nonzero, nonzero[1:])))
            if len(nonzero) >= 2
            else None,
        }

    write_scaling_csv(scaling_rows, os.path.join(config.out, "scaling.csv"))
    # one row per iteration stage: the schedule from its history entry, the
    # cancellation measurements from its diagnostics
    head = ("q", "lam", "eps", "degenerate")
    tail = ("ratio", "low_Hs", "high_Hs", "offdiag_Hs", "mean_cancellation_rel")
    with open(os.path.join(config.out, "cancellation.csv"), "w") as fh:
        fh.write(",".join(head + tail) + "\n")
        for st in stages[1:]:
            row = [st["history"][k] for k in head] + [st["diagnostics"].get(k) for k in tail]
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")

    report = {
        "version": REPORT_VERSION,
        "config": {
            "multiplier": m.name,
            "d": config.d,
            "gamma": config.gamma,
            "s": config.s,
            "b0": config.b0,
            "qmax": config.qmax,
            "lambda1": config.lambda1,
            "grid_budget": config.grid_budget,
            "seed": config.seed,
        },
        "basis": {
            "omega": [list(k) for k in basis.omega],
            "k_star": basis.k_star.tolist(),
            "eps_omega": basis.eps_omega,
            "eps_omega_safety_factor": 0.5,
            "gamma_margin": basis.gamma_margin,
            "common_norm": basis.common_norm,
        },
        "params": {
            "r": "%d/%d" % params.r.as_integer_ratio(),
            "c": "%d/%d" % params.c.as_integer_ratio(),
            "A": state.norm_history[0]["A"],
            "delta": state.norm_history[0]["delta"],
            "lam_schedule": params.lam_schedule,
            "eps_schedule": params.eps_schedule,
            "stage_flags": params.stage_flags,
            "amplitude_constant": "discrete-harmonic-weight-sum",
            "weak_form_product": "mean-free",
            "dual_exponent_choice": "s' = s",
        },
        "claims": claims,
        "stages": stages,
        "pairing_decay": decay,
        "exact_pass": not failed,
    }
    _dump(report, os.path.join(config.out, "report.json"))
    _dump({"history": state.norm_history}, os.path.join(config.out, "history.json"))
    timing["elapsed_s"] = time.perf_counter() - t0
    timing["peak_rss_mb"] = _peak_rss_mb()
    _dump(timing, os.path.join(config.out, "timing.json"))
    if not failed:
        return 0
    print(f"stage {state.q} failed certification: {', '.join(failed)}", file=sys.stderr)
    return 1
