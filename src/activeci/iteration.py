"""The convex-integration step.

State (theta_q, u_q, R_q) solves the relaxed equation
div(theta u) + Lambda^gamma theta = div R with u = T theta.  Each stage adds
a potential increment

    w_{q+1} = 2 sum_{k in Omega} P_{<=lam}(a_{k,q} rho^k) cos(2 pi sigma k.x)

whose quadratic self-interaction cancels the low-frequency part of R_q.  The
new stress splits into oscillation, Nash, and dissipation pieces

    R_O = R_q + w Tw,   R_N = w u_q + theta_q Tw,   R_D = -Lambda^{gamma-2} grad w,

and the residual identity for the new state is an exact algebraic consequence
of this bookkeeping, which is what the invariant checks verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .directions import DirectionBasis
from .fields import (
    GridBuffer,
    SpectralField,
    SupportError,
    analyze,
    besov_norm,
    divergence,
    divergence_defect,
    fractional_laplacian,
    gradient,
    low_pass,
    lp_norm_detailed,
    lp_norms,
    mean_part,
    multiply,
    nonzero_part,
    sample,
    sobolev_norm,
)
from .kernels import ShellKernel
from .multipliers import Multiplier, apply_T
from .slabs import Profile, SlabSpec, slab_fourier

__all__ = [
    "IterationParams",
    "IterationState",
    "PerturbationBundle",
    "EmptyInterval",
    "ZeroStress",
    "make_params",
    "base_state",
    "amplitudes",
    "build_increment",
    "step",
    "oscillation_diagnostics",
    "residual_defect",
]

LP_EXPONENTS = (1.0, 4.0 / 3.0, 3.0 / 2.0, 2.0)
BESOV_ALPHAS = (-0.1, -0.5, -0.9)
# (Besov alpha, L^p exponent) pairs of certification item 4
ITEM4_PAIRS = ((-0.1, 1.0), (-0.5, 1.5), (-0.9, 1.9))


class EmptyInterval(ValueError):
    """No admissible carrier fraction c exists for the given r and |k|."""


class ZeroStress(ValueError):
    """The stress field vanishes; the state already solves the equation."""


@dataclass
class IterationParams:
    d: int
    gamma: float
    s: float
    b0: int
    qmax: int
    A: float
    delta: float
    r: Fraction
    c: Fraction
    lam_schedule: list
    eps_schedule: list
    stage_flags: list  # per-stage dict: eps_formula, adapted, degenerate, ...
    basis_norm: int
    grid_budget: int

    def sigma(self, stage: int) -> int:
        """Integer carrier frequency sigma = c * lam for 1-based stage."""
        val = self.c * self.lam_schedule[stage - 1]
        if val.denominator != 1:
            raise ValueError(f"sigma = {val} is not an integer at stage {stage}")
        return int(val)

    def stage_lam(self, stage: int) -> int:
        return self.lam_schedule[stage - 1]

    def stage_eps(self, stage: int) -> float:
        return self.eps_schedule[stage - 1]


@dataclass
class IterationState:
    q: int
    theta: SpectralField
    u: SpectralField
    R: SpectralField
    norm_history: list = dc_field(default_factory=list)
    increments: list = dc_field(default_factory=list)  # per stage: {w, Tw}


@dataclass
class PerturbationBundle:
    stage: int
    lam: int
    eps: float
    sigma: int
    per_k: dict  # k -> {a, w_plus, w_minus, w_k, S, amp_info, mode_cap}
    w: SpectralField
    Tw: SpectralField
    degenerate: bool
    lp_report: dict


def _harmonic_survives(lam: int, j: int, knorm: int, r: Fraction) -> bool:
    """Does the first slab harmonic lam^eps k clear the low-pass support
    |xi| < r lam (eps = j / log2 lam)?"""
    return 2**j * knorm < float(r) * lam


def make_params(
    basis: DirectionBasis,
    d: int = 2,
    gamma: float = 1.0,
    s: float = 2.0,
    b0: int = 2,
    qmax: int = 2,
    lambda1: int = 256,
    grid_budget: int = 8192,
    lam_step: int = 16,
) -> IterationParams:
    """Derive the full parameter schedule from the direction basis.

    r is the largest power of 2 with r <= (5/14)/|k|; c is the dyadic-odd
    rational (2a+1)/2^b of smallest b inside [1/|k| + r, 12/(7|k|) - r].
    Stage frequencies are lambda1 * lam_step^(q-1); per-stage eps = j/e
    (lam = 2^e) is the largest value not exceeding the offset formula
    1 - 2^{-q-b0} for which the first slab harmonic survives the low-pass.
    Stages where no harmonic can survive are flagged degenerate (the
    increment is identically zero there).
    """
    if s <= d / 2 + max(gamma - 1.0, 0.0):
        raise ValueError(
            f"s = {s} violates s > d/2 + max(gamma-1, 0) = "
            f"{d / 2 + max(gamma - 1.0, 0.0)}"
        )
    knorm = basis.common_norm
    # largest power of two below (5/14)/|k|
    bound = Fraction(5, 14 * knorm)
    b_r = 0
    while Fraction(1, 2**b_r) > bound:
        b_r += 1
    r = Fraction(1, 2**b_r)

    lo = Fraction(1, knorm) + r
    hi = Fraction(12, 7 * knorm) - r
    if lo > hi:
        raise EmptyInterval(f"no admissible c: [{lo}, {hi}] empty for |k| = {knorm}")
    c = None
    for b in range(1, 31):
        den = 2**b
        a_lo = math.ceil((lo * den - 1) / 2)
        a_hi = math.floor((hi * den - 1) / 2)
        if a_lo <= a_hi:
            c = Fraction(2 * a_lo + 1, den)
            break
    if c is None:
        raise EmptyInterval(f"no dyadic-odd c in [{lo}, {hi}]")

    if lambda1 < 2 or lambda1 & (lambda1 - 1):
        raise ValueError(f"lambda1 = {lambda1} must be a power of two")
    lam_schedule = []
    eps_schedule = []
    stage_flags = []
    for q in range(1, qmax + 1):
        lam = lambda1 * lam_step ** (q - 1)
        if (Fraction(lam) * c).denominator != 1:
            raise ValueError(f"sigma = c*lam not an integer at lam = {lam}")
        if lam > grid_budget:
            raise ValueError(
                f"stage frequency {lam} exceeds the grid budget {grid_budget}"
            )
        e = lam.bit_length() - 1
        formula = 1.0 - 2.0 ** (-(q + b0))
        viable = [
            j
            for j in range(1, e)
            if j / e <= formula + 1e-12 and _harmonic_survives(lam, j, knorm, r)
        ]
        if viable:
            j = max(viable)
            degenerate = False
        else:
            j = 1  # keeps the schedule well formed; the increment will vanish
            degenerate = True
        lam_schedule.append(lam)
        eps_schedule.append(j / e)
        stage_flags.append(
            {
                "q": q,
                "eps_formula": formula,
                "eps": j / e,
                "adapted": j / e < formula - 1e-12,
                "degenerate": degenerate,
                "formula_eps_underflow": formula == 1.0,
            }
        )
    return IterationParams(
        d=d,
        gamma=gamma,
        s=s,
        b0=b0,
        qmax=qmax,
        A=1.0,
        delta=0.25,
        r=r,
        c=c,
        lam_schedule=lam_schedule,
        eps_schedule=eps_schedule,
        stage_flags=stage_flags,
        basis_norm=knorm,
        grid_budget=grid_budget,
    )


# -- residual -------------------------------------------------------------


def residual_defect(theta, u, R, gamma) -> float:
    """Relative sup-coefficient defect of div(theta u) + Lambda^gamma theta -
    div R."""
    lhs = divergence(multiply(theta, u)) + fractional_laplacian(theta, gamma)
    rhs = divergence(R)
    defect = (lhs - rhs).max_amp()
    scale = max(lhs.max_amp(), rhs.max_amp())
    if scale == 0.0:
        return 0.0
    return defect / scale


def _check_state(state: IterationState, gamma: float, m: Multiplier) -> float:
    """Raise unless the state obeys the exact invariants; returns the
    relaxed-equation residual defect."""
    if abs(mean_part(state.theta)) != 0.0:
        raise ValueError("theta must be mean-free")
    div_u = divergence_defect(state.u)
    if div_u > 1e-13:
        raise ValueError(f"u not divergence free: defect {div_u:.3g}")
    diff = (state.u - apply_T(m, state.theta)).max_amp()
    if diff > 1e-12 * max(state.u.max_amp(), 1e-300):
        raise ValueError(f"u != T theta: {diff:.3g}")
    defect = residual_defect(state.theta, state.u, state.R, gamma)
    if defect > 1e-10:
        raise ValueError(f"relaxed-equation residual {defect:.3g} exceeds 1e-10")
    return defect


# -- base case ------------------------------------------------------------


def _base_fields(A: float, params: IterationParams, m: Multiplier):
    d = params.d
    e1 = tuple([1] + [0] * (d - 1))
    ne1 = tuple(-c for c in e1)
    theta = SpectralField.scalar(d, {e1: A / 2.0, ne1: A / 2.0}, reality=True)
    u = apply_T(m, theta)
    R = multiply(theta, u) - fractional_laplacian(gradient(theta), params.gamma - 2.0)
    return theta, u, R


def base_state(params: IterationParams, m: Multiplier, basis: DirectionBasis) -> IterationState:
    """theta_0 = A cos(2 pi x_1); A halved until ||R_0||_{H^{-s}} < 1.

    The stress is the exact residual R_0 = theta_0 u_0 - Lambda^{gamma-2}
    grad theta_0 (the sign makes div R_0 reproduce the Lambda^gamma term,
    since div Lambda^{gamma-2} grad = -Lambda^gamma).  delta = A/4 is the
    L^1-floor constant: ||theta_0||_{L^1} = 2A/pi > (1+1) A/4.
    """
    A = params.A
    for _ in range(64):
        theta, u, R = _base_fields(A, params, m)
        if sobolev_norm(R, -params.s) < 1.0:
            break
        A /= 2.0
    else:
        raise ValueError("could not normalize the base stress below 1")
    params.A = A
    params.delta = A / 4.0
    state = IterationState(q=0, theta=theta, u=u, R=R)
    defect = _check_state(state, params.gamma, m)
    state.norm_history.append(
        {
            "q": 0,
            "lam": None,
            "eps": None,
            "degenerate": False,
            "R_Hs": sobolev_norm(R, -params.s),
            "theta_L1": lp_norm_detailed(theta, 1.0, params.grid_budget)[0],
            "A": A,
            "delta": params.delta,
            "residual_defect": defect,
        }
    )
    return state


# -- amplitudes -----------------------------------------------------------


def harmonic_weight_sum(
    spec: SlabSpec, knorm: int, lam: int, kernel: ShellKernel
) -> float:
    """Discrete weight sum S = sum_{n != 0} lam^{eps-1} |phihat(lam^{eps-1}
    n)|^2 Khat(lam^eps n k / lam)^2.

    This is the Riemann sum whose continuum limit is the integral
    int |phihat(x)|^2 Khat(x k)^2 dx; using the sum itself makes the
    constant-amplitude cancellation identity exact at any finite lam.
    """
    step = spec.lam ** (spec.eps - 1.0)
    total = 0.0
    n = 1
    while True:
        weight = float(kernel.lowpass(np.array([step * n * knorm]))[0])
        if weight == 0.0:
            break
        total += 2.0 * step * abs(spec.profile.fhat(step * n)) ** 2 * weight**2
        n += 1
    return total


def amplitudes(
    R: SpectralField,
    basis: DirectionBasis,
    params: IterationParams,
    spec: SlabSpec,
    kernel: ShellKernel,
    stress_cutoff: float | None = None,
) -> dict:
    """Amplitude fields a_{k,q} = (S eps_Omega / ||R||_inf)^{-1/2} Gamma_k(k*
    - eps_Omega R(x)/||R||_inf) for every direction k of the basis,
    re-analyzed and truncated in frequency.

    Returns ``{k: (field, info)}``.  ``spec`` gives lam, eps and the profile,
    which all directions share.  The stress is sampled and the Gamma
    coefficients are solved once for all directions; only the re-analysis
    and truncation run per direction.  ||R||_inf is taken as the grid
    maximum of |R| on the evaluation grid itself, which guarantees the Gamma
    arguments stay in the admissible ball pointwise.

    ``stress_cutoff``: when set, the amplitudes target only the stress below
    that frequency.  The squared amplitude is affine in the stress, so the
    slab harmonics beat its spectrum down by multiples of their spacing;
    cancelling stress content above half the spacing would push error back to
    the low frequencies, costing more in a negative norm than it saves.
    """
    if R.is_zero():
        raise ZeroStress("stress field is identically zero")
    if stress_cutoff is not None and R.max_freq > stress_cutoff:
        R = SpectralField(
            R.dim,
            R.rank,
            {
                xi: amp
                for xi, amp in R.coeffs.items()
                if math.sqrt(sum(c * c for c in xi)) <= stress_cutoff
            },
            reality=R.reality,
        )
        if R.is_zero():
            raise ZeroStress("stress has no content below the cutoff")
    S = harmonic_weight_sum(spec, basis.common_norm, spec.lam, kernel)
    if S <= 0.0:
        raise ZeroStress(
            f"no slab harmonic survives the low-pass at lam={spec.lam}, "
            f"eps={spec.eps}"
        )
    d = params.d
    band = int(np.max(R.max_axis_freq()))
    trunc = min(8 * max(1, int(math.ceil(R.max_freq))), params.grid_budget // 8)
    N = 8
    while N < max(2 * band + 2, 2 * trunc + 2):
        N *= 2
    N = min(N, params.grid_budget)

    grid = sample(R, N)  # shape (d,) + (N,)*d
    pts = grid.reshape(d, -1).T  # (N^d, d)
    rmax = float(np.max(np.linalg.norm(pts, axis=1)))
    if rmax == 0.0:
        raise ZeroStress("stress field vanishes on the evaluation grid")
    v = basis.k_star[None, :] - (basis.eps_omega / rmax) * pts
    E = basis.even_parts.T
    coef = np.linalg.solve(E, v.T).T  # (N^d, d)
    cmin = float(np.min(coef))
    if cmin < basis.gamma_margin * (1 - 1e-9):
        raise ValueError(
            f"amplitude coefficient {cmin:.3g} fell below the margin "
            f"{basis.gamma_margin}"
        )
    pref = (S * basis.eps_omega / rmax) ** (-0.5)
    shared = {"S": S, "R_max": rmax, "prefactor": pref, "trunc_radius": trunc, "grid_N": N}
    out = {}
    for col, k in enumerate(basis.omega):
        a_grid = (pref * np.sqrt(coef[:, col])).reshape((N,) * d)
        a_full = analyze(GridBuffer(d, N, a_grid))
        kept, dropped = {}, 0.0
        total = 0.0
        for xi, amp in a_full.coeffs.items():
            mass = abs(amp) ** 2
            total += mass
            if math.sqrt(sum(c * c for c in xi)) <= trunc:
                kept[xi] = amp
            else:
                dropped += mass
        a = SpectralField(d, 0, kept, reality=True).pruned()
        tail = math.sqrt(dropped / total) if total > 0 else 0.0
        out[k] = (a, {**shared, "tail_fraction": tail})
    return out


# -- increment ------------------------------------------------------------


def build_increment(
    state: IterationState,
    params: IterationParams,
    basis: DirectionBasis,
    m: Multiplier,
    kernel: ShellKernel,
    profile: Profile,
) -> PerturbationBundle:
    stage = state.q + 1
    lam = params.stage_lam(stage)
    eps = params.stage_eps(stage)
    sigma = params.sigma(stage)
    rlam = float(params.r) * lam
    per_k = {}
    w = SpectralField.zero(params.d, 0)
    degenerate = False
    # amplitudes only target stress below half the slab-harmonic spacing
    spacing = round(lam**eps) * params.basis_norm
    cutoff = max(2.0, spacing / 2.0)
    shared_spec = SlabSpec(k=basis.omega[0], lam=lam, eps=eps, profile=profile)
    try:
        amps = amplitudes(state.R, basis, params, shared_spec, kernel, stress_cutoff=cutoff)
    except ZeroStress:
        amps = {}
    for k in basis.omega:
        spec = SlabSpec(k=k, lam=lam, eps=eps, profile=profile)
        if k not in amps:
            degenerate = True
            per_k[k] = {
                "a": SpectralField.zero(params.d, 0),
                "w_plus": SpectralField.zero(params.d, 0),
                "w_minus": SpectralField.zero(params.d, 0),
                "w_k": SpectralField.zero(params.d, 0),
                "S": 0.0,
                "amp_info": None,
                "mode_cap": 0,
            }
            continue
        a, info = amps[k]
        # only slab harmonics that can reach the low-pass support after
        # convolution with the amplitude spectrum matter; dropping the rest
        # before the product is exact, not an approximation
        reach = rlam + a.max_freq
        sig_step = round(lam**eps)
        cap_needed = int(reach // (sig_step * params.basis_norm)) + 1
        rho = slab_fourier(spec, cap_needed)
        rho_t = SpectralField(
            params.d,
            0,
            {
                xi: c
                for xi, c in rho.coeffs.items()
                if math.sqrt(sum(x * x for x in xi)) < reach
            },
            reality=True,
        )
        g = low_pass(multiply(a, rho_t), lam, kernel)
        shift = tuple(sigma * c for c in k)
        w_plus = g.shifted(shift)
        w_minus = g.shifted(tuple(-c for c in shift))
        w_k = w_plus + w_minus
        w_k.reality = w_k.is_hermitian()
        # highest slab harmonic actually kept; sets the diagnostics split scale
        kept_cap = max(
            (
                round(math.sqrt(sum(x * x for x in xi)) / (sig_step * params.basis_norm))
                for xi in rho_t.coeffs
            ),
            default=0,
        )
        per_k[k] = {
            "a": a,
            "w_plus": w_plus,
            "w_minus": w_minus,
            "w_k": w_k,
            "S": info["S"],
            "amp_info": info,
            "mode_cap": kept_cap,
        }
        w = w + w_k
    w.reality = True

    if w.is_zero():
        degenerate = True
    else:
        for xi in w.coeffs:
            mag = math.sqrt(sum(c * c for c in xi))
            if not (lam * (1 - 1e-12) <= mag <= (12.0 / 7.0) * lam * (1 + 1e-12)):
                raise SupportError(
                    f"increment mode {xi} (|xi| = {mag:.1f}) outside the "
                    f"annulus [{lam}, {12 * lam / 7:.1f}]"
                )
        if abs(mean_part(w)) != 0.0:
            raise SupportError("increment acquired a mean")

    lp_report = {}
    if not w.is_zero():
        # one quadrature pass for every norm of w used later: the report's
        # exponents, item 4's exponents and the sup behind its Besov norms
        # (w sits on one shell plateau, so P_j w = w)
        ps = set(LP_EXPONENTS) | {p for _, p in ITEM4_PAIRS} | {math.inf}
        norms = lp_norms(w, sorted(ps), params.grid_budget)
        for p in LP_EXPONENTS:
            norm, err = norms[p]
            target = lam ** ((1.0 - eps) * (0.5 - 1.0 / p))
            lp_report[p] = {"norm": norm, "quad_err": err, "ratio": norm / target}
    Tw = apply_T(m, w)
    return PerturbationBundle(
        stage=stage,
        lam=lam,
        eps=eps,
        sigma=sigma,
        per_k=per_k,
        w=w,
        Tw=Tw,
        degenerate=degenerate,
        lp_report=lp_report,
    )


# -- step -----------------------------------------------------------------


def step(
    state: IterationState,
    params: IterationParams,
    basis: DirectionBasis,
    m: Multiplier,
    kernel: ShellKernel,
    profile: Profile,
    bundle: PerturbationBundle | None = None,
) -> tuple:
    """Advance one stage; returns (new_state, bundle)."""
    if bundle is None:
        bundle = build_increment(state, params, basis, m, kernel, profile)
    w, Tw = bundle.w, bundle.Tw
    theta1 = state.theta + w
    u1 = state.u + Tw
    wTw = multiply(w, Tw)
    R_O = state.R + wTw
    R_N = multiply(w, state.u) + multiply(state.theta, Tw)
    R_D = fractional_laplacian(gradient(w), params.gamma - 2.0).scaled(-1.0)
    R1 = R_O + R_N + R_D

    new_state = IterationState(
        q=state.q + 1,
        theta=theta1,
        u=u1,
        R=R1,
        norm_history=list(state.norm_history),
        increments=list(state.increments),
    )
    defect = _check_state(new_state, params.gamma, m)

    ms = -params.s
    prev = sobolev_norm(state.R, ms)
    cur = sobolev_norm(R1, ms)
    entry = {
        "q": new_state.q,
        "lam": bundle.lam,
        "eps": bundle.eps,
        "degenerate": bundle.degenerate,
        "R_Hs": cur,
        "R_prev_Hs": prev,
        "ratio": cur / prev if prev > 0 else None,
        "R_O_Hs": sobolev_norm(R_O, ms),
        "wTw_Hs": sobolev_norm(wTw, ms),
        "R_N_Hs": sobolev_norm(R_N, ms),
        "R_D_Hs": sobolev_norm(R_D, ms),
        "w_lp": {str(p): rep for p, rep in bundle.lp_report.items()},
        "w_besov": {},
        "residual_defect": defect,
        "amp_info": {
            str(k): rec["amp_info"] for k, rec in bundle.per_k.items()
        },
    }
    if not w.is_zero():
        for alpha in BESOV_ALPHAS:
            entry["w_besov"][str(alpha)] = besov_norm(
                w, alpha, kernel, params.grid_budget
            )
    new_state.norm_history.append(entry)
    new_state.increments.append({"w": w, "Tw": Tw, "stage": new_state.q})
    return new_state, bundle


# -- diagnostics ----------------------------------------------------------


def _restrict(f: SpectralField, predicate) -> SpectralField:
    coeffs = {xi: a for xi, a in f.coeffs.items() if predicate(xi)}
    return SpectralField(f.dim, f.rank, coeffs, reality=f.reality)


def oscillation_diagnostics(
    bundle: PerturbationBundle,
    state: IterationState,
    params: IterationParams,
    basis: DirectionBasis,
    m: Multiplier,
) -> dict:
    """Split w Tw into the diagonal low-frequency cancellation part, the
    diagonal high-frequency remainder, and off-diagonal cross terms; measure
    how well the low part cancels the stress.

    Reported ratios:
      * ``ratio``: ||R_q + P_{<=mu}(sum_k w_k Tw_k)||_{H^{-s}} / ||R_q||_{H^{-s}}
        with the zero mode discarded (the constant k* contribution pairs off
        against nothing in a homogeneous norm).  None when ||R_q|| = 0.
      * ``mean_cancellation_rel``: distance of mean(R_q + w Tw) from its
        closed form (||R||_inf / eps_Omega) k*, relative — with constant
        amplitudes this isolates the Riemann-sum error, which the discrete
        harmonic weight sum makes vanish to roundoff.
    """
    ms = -params.s
    knorm = params.basis_norm
    cap = max((rec["mode_cap"] for rec in bundle.per_k.values()), default=0)
    sig_step = round(bundle.lam**bundle.eps)
    mu = sig_step * max(cap, 1) * knorm * 2

    diag = SpectralField.zero(params.d, 1)
    for rec in bundle.per_k.values():
        wk = rec["w_k"]
        if wk.is_zero():
            continue
        diag = diag + multiply(wk, apply_T(m, wk))
    low = _restrict(diag, lambda xi: sum(c * c for c in xi) <= mu * mu)
    high = _restrict(diag, lambda xi: sum(c * c for c in xi) > mu * mu)

    offdiag = SpectralField.zero(params.d, 1)
    ks = list(bundle.per_k)
    for i, ka in enumerate(ks):
        for kb in ks:
            if ka == kb:
                continue
            wa = bundle.per_k[ka]["w_k"]
            wb = bundle.per_k[kb]["w_k"]
            if wa.is_zero() or wb.is_zero():
                continue
            offdiag = offdiag + multiply(wa, apply_T(m, wb))

    prev_norm = sobolev_norm(state.R, ms)
    resid = state.R + low
    ratio = sobolev_norm(resid, ms) / prev_norm if prev_norm > 0 else None

    report = {
        "mu": mu,
        "low_Hs": sobolev_norm(low, ms),
        "high_Hs": sobolev_norm(high, ms),
        "offdiag_Hs": sobolev_norm(offdiag, ms),
        "R_prev_Hs": prev_norm,
        "ratio": ratio,
        "degenerate": bundle.degenerate,
    }

    # closed-form mean comparison
    rmax = None
    for rec in bundle.per_k.values():
        if rec["amp_info"] is not None:
            rmax = rec["amp_info"]["R_max"]
            break
    if rmax is not None:
        target = (rmax / basis.eps_omega) * basis.k_star
        achieved = np.asarray(
            mean_part(state.R + multiply(bundle.w, bundle.Tw)), dtype=complex
        )
        scale = float(np.linalg.norm(target))
        report["mean_cancellation_rel"] = (
            float(np.linalg.norm(achieved - target)) / scale if scale > 0 else None
        )
    else:
        report["mean_cancellation_rel"] = None

    # off-diagonal frequency-separation certificate
    if not offdiag.is_zero():
        mags = np.linalg.norm(offdiag.freq_array().astype(float), axis=1)
        ksum = np.linalg.norm(
            np.asarray(ks[0], dtype=float) + np.asarray(ks[1], dtype=float)
        )
        threshold = (float(params.c) - 2.0 * float(params.r)) * bundle.lam * ksum
        report["offdiag_min_freq"] = float(mags.min())
        report["offdiag_threshold"] = threshold
        report["offdiag_separated"] = bool(mags.min() >= threshold - 1e-9)
    return report
