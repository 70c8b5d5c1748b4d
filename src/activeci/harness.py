"""Run orchestration: per-stage certification of the inductive items,
weak-form pairing tests, diagnostics, and report emission.

Exact structural items (mean-zero, relaxed-equation residual, single-shell
increment support) hard-fail the run; quantitative items (stress decay,
increment norms, paraproduct sums) are reported with achieved-vs-target and
never fail it — their absolute constants presuppose frequency scales far
beyond any desk run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .directions import build_basis
from .fields import (
    SpectralField,
    fractional_laplacian,
    gradient,
    lp_norm_detailed,
    mean_part,
    multiply,
    nonzero_part,
    divergence_defect,
    save_snapshot,
    sobolev_norm,
    besov_norm,
)
from .iteration import (
    ITEM4_PAIRS,
    IterationParams,
    IterationState,
    base_state,
    make_params,
    oscillation_diagnostics,
    step,
)
from .kernels import ShellKernel
from .multipliers import (
    Multiplier,
    check_claims,
    ipm2d,
    ipm3d,
    load_multiplier,
    mg,
    sqg,
)
from .slabs import build_profile, certify_scaling, write_scaling_csv

__all__ = [
    "RunConfig",
    "TestFunctionSet",
    "ConfigError",
    "resolve_multiplier",
    "build_test_functions",
    "pairing",
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
    grid_budget: int = 8192
    out: str = "out"
    seed: int = 0
    supplied_basis: list | None = None
    gamma_margin: float = 0.1
    scaling_eps: float = 0.5
    scaling_lams: tuple = (64, 256, 1024, 4096)

    def __post_init__(self):
        floor = self.d / 2 + max(self.gamma - 1.0, 0.0)
        if self.s <= floor:
            raise ConfigError(
                f"s = {self.s} must exceed d/2 + max(gamma-1, 0) = {floor}"
            )
        if not (0 < self.gamma <= 2):
            raise ConfigError(f"gamma = {self.gamma} must lie in (0, 2]")
        if self.qmax < 0:
            raise ConfigError("qmax must be >= 0")


@dataclass
class TestFunctionSet:
    members: list  # (label, field, support_radius)


def resolve_multiplier(config: RunConfig) -> Multiplier:
    name = config.multiplier
    if name == "ipm2d":
        m = ipm2d()
    elif name == "ipm3d":
        m = ipm3d()
    elif name == "sqg":
        m = sqg()
    elif name == "mg":
        m = mg()
    elif name.startswith("file:"):
        m = load_multiplier(name[len("file:") :])
    else:
        raise ConfigError(f"unknown multiplier {name!r}")
    if m.dim != config.d:
        raise ConfigError(f"multiplier {m.name} is {m.dim}-dimensional, config d = {config.d}")
    report = check_claims(m)
    for required in ("homogeneous_deg0", "divergence_free", "real_output", "not_odd", "bounded"):
        claimed = bool(m.claims[required])
        observed = bool(report[required]["pass"])
        if not (claimed and observed):
            raise ConfigError(
                f"multiplier {m.name} rejected: the iteration requires "
                f"{required} (claimed={claimed}, observed={observed})"
            )
    return m


def build_test_functions(d: int, seed: int) -> TestFunctionSet:
    """Six real single modes at |xi| in {1, 2, 5} plus two seeded random
    band-limited combinations."""
    if d == 2:
        singles = [(1, 0), (0, 1), (2, 0), (0, 2), (3, 4), (5, 0)]
    else:
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
        f = SpectralField.scalar(d, {xi: 0.5, neg: 0.5}, reality=True)
        members.append((f"mode{xi}", f, math.sqrt(sum(c * c for c in xi))))
    rng = np.random.default_rng(seed)
    for idx in range(2):
        coeffs = {}
        for _ in range(4):
            xi = tuple(int(c) for c in rng.integers(-6, 7, size=d))
            if all(c == 0 for c in xi):
                continue
            amp = complex(rng.normal(), rng.normal())
            coeffs[xi] = coeffs.get(xi, 0.0) + amp / 2.0
            neg = tuple(-c for c in xi)
            coeffs[neg] = coeffs.get(neg, 0.0) + np.conj(amp) / 2.0
        f = SpectralField.scalar(d, coeffs, reality=True)
        members.append((f"band{idx}", f, f.max_freq))
    return TestFunctionSet(members)


def pairing(f: SpectralField, g: SpectralField) -> complex:
    """Exact integral of f.g over the torus: sum_xi fhat(xi) ghat(-xi),
    contracted over components for vector fields."""
    if f.dim != g.dim or f.rank != g.rank:
        raise ValueError("pairing needs fields of equal dimension and rank")
    small, big = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    total = 0.0 + 0.0j
    for xi, a in small.coeffs.items():
        b = big.coeffs.get(tuple(-c for c in xi))
        if b is None:
            continue
        if f.rank == 0:
            total += a * b
        else:
            total += complex(np.dot(np.asarray(a), np.asarray(b)))
    return total


def pairing_gross(f: SpectralField, g: SpectralField) -> float:
    """Sum of |fhat(xi)| |ghat(-xi)| — the magnitude scale of the pairing,
    used as the roundoff noise floor when the signed sum cancels."""
    small, big = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    total = 0.0
    for xi, a in small.coeffs.items():
        b = big.coeffs.get(tuple(-c for c in xi))
        if b is None:
            continue
        if f.rank == 0:
            total += abs(a) * abs(b)
        else:
            total += float(np.linalg.norm(a) * np.linalg.norm(b))
    return total


# -- inductive items ------------------------------------------------------


def certify_items(
    state: IterationState,
    params: IterationParams,
    kernel: ShellKernel,
    grid_budget: int,
) -> dict:
    q = state.q
    report = {"q": q}

    # item 1: mean-zero scalar, divergence-free drift (exact / 1e-13)
    mean = abs(mean_part(state.theta))
    div_u = divergence_defect(state.u)
    report["item1"] = {
        "theta_mean": mean,
        "div_u_rel": div_u,
        "pass": bool(mean == 0.0 and div_u <= 1e-13),
        "tolerance": 1e-13,
    }

    # item 2: relaxed-equation residual (exact up to roundoff), computed
    # once per state by the iteration's own check
    defect = state.norm_history[-1]["residual_defect"]
    report["item2"] = {"residual_defect": defect, "pass": bool(defect <= 1e-10), "tolerance": 1e-10}

    # item 3: stress smallness, value + trend
    r_hs = sobolev_norm(state.R, -params.s)
    target = 2.0**-q
    hist = [h for h in state.norm_history if h.get("ratio") is not None]
    report["item3"] = {
        "R_Hs": r_hs,
        "paper_target": target,
        "achieved_absolute": bool(r_hs < target),
        "ratios": [h["ratio"] for h in hist],
        "trend_decreasing": bool(all(h["ratio"] < 1.0 for h in hist)) if hist else None,
    }

    # item 4: increment norms in Besov/L^p with fitted geometric decay
    item4 = {}
    for alpha, p in ITEM4_PAIRS:
        vals = []
        for inc in state.increments:
            w = inc["w"]
            if w.is_zero():
                vals.append({"stage": inc["stage"], "besov": 0.0, "lp": 0.0})
                continue
            vals.append(
                {
                    "stage": inc["stage"],
                    "besov": besov_norm(w, alpha, kernel, grid_budget),
                    "lp": lp_norm_detailed(w, p, grid_budget)[0],
                }
            )
        totals = [v["besov"] + v["lp"] for v in vals]
        rate = None
        positive = [t for t in totals if t > 0]
        if len(positive) >= 2:
            rate = float(
                np.exp(np.polyfit(range(len(positive)), np.log(positive), 1)[0])
            )
        item4[f"alpha={alpha},p={p}"] = {"per_stage": vals, "fitted_ratio": rate}
    report["item4"] = item4

    # item 5: L^1 mass floor with the implemented delta
    l1, l1_err = lp_norm_detailed(state.theta, 1.0, grid_budget)
    floor = (1.0 + 2.0**-q) * params.delta
    report["item5"] = {
        "theta_L1": l1,
        "quad_err": l1_err,
        "floor": floor,
        "delta": params.delta,
        "delta_max_here": l1 / (1.0 + 2.0**-q),
        "pass": bool(l1 > floor),
    }

    # item 6: each increment confined to one dyadic shell plateau (exact scan)
    shells = []
    ok6 = True
    for inc in state.increments:
        w = inc["w"]
        if w.is_zero():
            shells.append({"stage": inc["stage"], "degenerate": True, "pass": True})
            continue
        lam = params.stage_lam(inc["stage"])
        j = lam.bit_length() - 1
        lo, hi = 2.0**j, (12.0 / 7.0) * 2.0**j
        mags = np.linalg.norm(w.freq_array().astype(float), axis=1)
        inside = bool(np.all((mags >= lo - 1e-9) & (mags <= hi + 1e-9)))
        plateau = bool(np.all(kernel.shell_weight(w.freq_array().astype(float), j) == 1.0))
        shells.append(
            {
                "stage": inc["stage"],
                "shell_index": j,
                "min_freq": float(mags.min()),
                "max_freq": float(mags.max()),
                "pass": inside and plateau,
            }
        )
        ok6 = ok6 and inside and plateau
    report["item6"] = {"per_stage": shells, "pass": ok6}

    # item 7: full paraproduct interaction matrix and partial sums
    mat = {}
    partial = []
    running = 0.0
    incs = state.increments
    for n, inc_n in enumerate(incs, start=1):
        for mth, inc_m in enumerate(incs, start=1):
            wn, twm = inc_n["w"], inc_m["Tw"]
            if wn.is_zero() or twm.is_zero():
                val = 0.0
            else:
                val = sobolev_norm(multiply(wn, twm), -params.s)
            mat[f"{n},{mth}"] = val
        running = sum(v for v in mat.values())
        partial.append(running)
    monotone = all(b >= a - 1e-15 for a, b in zip(partial, partial[1:]))
    report["item7"] = {
        "matrix": mat,
        "partial_sums": partial,
        "monotone_bounded": bool(monotone),
    }

    report["exact_pass"] = bool(
        report["item1"]["pass"] and report["item2"]["pass"] and report["item6"]["pass"]
    )
    return report


def weak_form_test(state: IterationState, psis: TestFunctionSet, params: IterationParams) -> dict:
    """Pair the relaxed equation against each band-limited test function.

    Identity: -<P_{!=0}(theta u), grad psi> + <theta, Lambda^gamma psi>
            = -<R, grad psi>, an algebraic consequence of the residual
    invariant.  The mean-free product is used; constants pair to zero
    against grad psi anyway.
    """
    theta_u = nonzero_part(multiply(state.theta, state.u))
    results = {}
    for label, psi, radius in psis.members:
        gpsi = gradient(psi)
        diss = pairing(state.theta, fractional_laplacian(psi, params.gamma))
        transport = -pairing(theta_u, gpsi)
        lhs = transport + diss
        rhs = -pairing(state.R, gpsi)
        # normalize by the gross term size: the pairings themselves can
        # cancel to roundoff, where a self-relative defect is meaningless
        scale = max(
            pairing_gross(theta_u, gpsi),
            pairing_gross(state.theta, fractional_laplacian(psi, params.gamma)),
            pairing_gross(state.R, gpsi),
            abs(lhs),
            abs(rhs),
        )
        defect = abs(lhs - rhs) / scale if scale > 0 else 0.0
        results[label] = {
            "support_radius": float(radius),
            "lhs": float(np.real(lhs)),
            "rhs": float(np.real(rhs)),
            "defect_rel": float(defect),
            "R_pairing": float(np.real(pairing(state.R, gpsi))),
            "R_pairing_gross": float(pairing_gross(state.R, gpsi)),
            "pass": bool(defect <= 1e-10),
        }
    results["all_pass"] = bool(all(v["pass"] for k, v in results.items() if k != "all_pass"))
    return results


# -- orchestration --------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _dump(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def run(config: RunConfig) -> int:
    """Execute the full default pipeline; returns the exit status.

    0 iff every exact structural check passed and no module error surfaced.
    Quantitative trends are reported, never fatal.
    """
    t0 = time.time()
    os.makedirs(config.out, exist_ok=True)
    m = resolve_multiplier(config)
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
    except ValueError as exc:  # the basis or schedule the config asks for
        raise ConfigError(str(exc)) from exc
    kernel = ShellKernel(r=float(params.r))
    profile = build_profile()
    psis = build_test_functions(config.d, config.seed)

    state = base_state(params, m, basis)
    stages = []
    cancellations = []
    timing = {"start": t0}

    def record_stage(st, diag):
        cert = certify_items(st, params, kernel, config.grid_budget)
        weak = weak_form_test(st, psis, params)
        stage_dir = os.path.join(config.out, f"stage-{st.q}")
        os.makedirs(stage_dir, exist_ok=True)
        save_snapshot(st.theta, os.path.join(stage_dir, "theta.json"))
        save_snapshot(st.u, os.path.join(stage_dir, "u.json"))
        save_snapshot(st.R, os.path.join(stage_dir, "R.json"))
        if st.increments:
            save_snapshot(st.increments[-1]["w"], os.path.join(stage_dir, "w.json"))
        stages.append(
            {
                "q": st.q,
                "items": cert,
                "weak_form": weak,
                "diagnostics": diag,
                "history": st.norm_history[-1],
            }
        )

    record_stage(state, None)
    for _ in range(params.qmax):
        prev = state
        state, bundle = step(state, params, basis, m, kernel, profile)
        diag = oscillation_diagnostics(bundle, prev, params, basis, m)
        record_stage(state, diag)
        cancellations.append(
            {
                "q": state.q,
                "lam": bundle.lam,
                "eps": bundle.eps,
                "degenerate": bundle.degenerate,
                **{k: diag.get(k) for k in ("ratio", "low_Hs", "high_Hs", "offdiag_Hs", "mean_cancellation_rel")},
            }
        )

    # R-pairing decay across stages per test function
    decay = {}
    # values below the roundoff scale of the largest pairing are noise, not
    # signal: the stress coefficients at untouched modes carry product debris
    floor = 1e-12 * max(
        (
            abs(s["weak_form"][label]["R_pairing"])
            for s in stages
            for label, *_ in psis.members
        ),
        default=0.0,
    )
    for label, *_ in psis.members:
        series = [abs(s["weak_form"][label]["R_pairing"]) for s in stages]
        nonzero = [v for v in series if v > floor]
        decay[label] = {
            "series": series,
            "noise_floor": floor,
            "decreasing": bool(all(b < a for a, b in zip(nonzero, nonzero[1:])))
            if len(nonzero) >= 2
            else None,
        }

    scaling_rows = certify_scaling(
        basis.omega[0], profile, list(config.scaling_lams), config.scaling_eps, [1.0, 2.0, math.inf]
    )
    write_scaling_csv(scaling_rows, os.path.join(config.out, "scaling.csv"))
    with open(os.path.join(config.out, "cancellation.csv"), "w") as fh:
        fh.write("q,lam,eps,degenerate,ratio,low_Hs,high_Hs,offdiag_Hs,mean_cancellation_rel\n")
        for row in cancellations:
            fh.write(
                ",".join(
                    "" if row.get(k) is None else str(row.get(k))
                    for k in (
                        "q",
                        "lam",
                        "eps",
                        "degenerate",
                        "ratio",
                        "low_Hs",
                        "high_Hs",
                        "offdiag_Hs",
                        "mean_cancellation_rel",
                    )
                )
                + "\n"
            )

    exact_ok = all(s["items"]["exact_pass"] and s["weak_form"]["all_pass"] for s in stages)
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
            "r": str(params.r),
            "c": str(params.c),
            "A": params.A,
            "delta": params.delta,
            "lam_schedule": params.lam_schedule,
            "eps_schedule": params.eps_schedule,
            "stage_flags": params.stage_flags,
            "amplitude_constant": "discrete-harmonic-weight-sum",
            "weak_form_product": "mean-free",
            "dual_exponent_choice": "s' = s",
        },
        "claims": check_claims(m),
        "stages": stages,
        "pairing_decay": decay,
        "exact_pass": exact_ok,
    }
    _dump(report, os.path.join(config.out, "report.json"))
    _dump({"history": state.norm_history}, os.path.join(config.out, "history.json"))
    timing["elapsed_s"] = time.time() - t0
    _dump(timing, os.path.join(config.out, "timing.json"))
    return 0 if exact_ok else 1
