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

import numpy as np

from .directions import DirectionBasis
from .fields import (
    SpectralField,
    divergence,
    divergence_defect,
    fractional_laplacian,
    gradient,
    low_pass,
    mean_part,
    multiply,
    sobolev_norm,
)
from .grids import (
    DEFAULT_GRID_BUDGET,
    Quadrature,
    _amplitude_N,
    _analyze_rows,
    _grid_sums,
    _sample_rows,
    besov_norm,
    lp_norm_detailed,
    lp_norms,
)
from .kernels import ShellKernel
from .multipliers import apply_T
from .slabs import PROFILE, SlabSpec, slab_fourier

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
    """The construction context: the schedule, the basis it was derived
    from (which keeps its multiplier) and the shell kernel of low-pass radius
    r.  The kernel is formed from r, so a ``dataclasses.replace`` copy never
    carries a stale one."""

    basis: DirectionBasis
    d: int
    gamma: float
    s: float
    b0: int
    qmax: int
    r: float  # 2^-b_r and (2a+1)/2^b: dyadic, so a float holds each exactly
    c: float
    lam_schedule: list
    eps_schedule: list
    stage_flags: list  # per-stage dict: eps_formula, adapted, degenerate, ...
    grid_budget: int
    kernel: ShellKernel = dc_field(init=False)

    def __post_init__(self):
        self.kernel = ShellKernel(r=self.r)

    def sigma(self, stage: int) -> int:
        """Integer carrier frequency sigma = c * lam for 1-based stage."""
        val = self.c * self.lam_schedule[stage - 1]
        if not val.is_integer():
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
    # the PerturbationBundle of every stage so far
    increments: list = dc_field(default_factory=list)
    # ||w_n T w_m||_{H^{-s}}: row n, column m, one per pair of increments
    interactions: list = dc_field(default_factory=list)
    # oscillation_diagnostics of the increment that made this stage; None at q = 0
    diagnostics: dict | None = None
    # measured by _measure_state: |mean theta|, the divergence defect of u,
    # the relative drift gap |u - T theta|, the product theta u and the L^1
    # quadrature of theta
    theta_mean: float | None = None
    div_u: float | None = None
    drift_rel: float | None = None
    theta_u: SpectralField | None = None
    theta_L1: Quadrature | None = None


@dataclass
class PerturbationBundle:
    stage: int
    lam: int
    eps: float
    per_k: dict  # k -> {w_k, amp_info, mode_cap}
    w: SpectralField
    Tw: SpectralField
    wTw: SpectralField
    degenerate: bool
    w_norms: dict  # {p: Quadrature}: every L^p norm of w taken, item 4's included
    shell: dict  # item 6's scan of w


def _harmonic_survives(lam: int, j: int, knorm: int, r: float) -> bool:
    """Does the first slab harmonic lam^eps k clear the low-pass support
    |xi| < r lam (eps = j / log2 lam)?"""
    return 2**j * knorm < r * lam


def make_params(
    basis: DirectionBasis,
    d: int | None = None,
    gamma: float = 1.0,
    s: float = 2.0,
    b0: int = 2,
    qmax: int = 2,
    lambda1: int = 256,
    grid_budget: int = DEFAULT_GRID_BUDGET,
    lam_step: int = 16,
) -> IterationParams:
    """Derive the full parameter schedule from the direction basis, and
    keep the basis with it.

    r is the largest power of 2 with r <= (5/14)/|k|; c is the dyadic-odd
    rational (2a+1)/2^b of smallest b inside [1/|k| + r, 12/(7|k|) - r].
    Stage frequencies are lambda1 * lam_step^(q-1); per-stage eps = j/e
    (lam = 2^e) is the largest value not exceeding the offset formula
    1 - 2^{-q-b0} for which the first slab harmonic survives the low-pass.
    Stages where no harmonic can survive are flagged degenerate (the
    increment is identically zero there).  The dimension is the basis's; a
    ``d`` that differs from it is a ``ValueError``.
    """
    if d is None:
        d = basis.dim
    elif d != basis.dim:
        raise ValueError(f"d = {d} differs from the basis dimension {basis.dim}")
    if s <= d / 2 + max(gamma - 1.0, 0.0):
        raise ValueError(
            f"s = {s} violates s > d/2 + max(gamma-1, 0) = "
            f"{d / 2 + max(gamma - 1.0, 0.0)}"
        )
    knorm = basis.common_norm
    # r = 2^-b_r, the largest power of two with r <= (5/14)/|k|
    b_r = 0
    while 5 * 2**b_r < 14 * knorm:
        b_r += 1
    r = 2.0**-b_r
    # [lo, hi] = [1/|k| + r, 12/(7|k|) - r] as integer ratios; b_r makes lo < hi
    lo_num, lo_den = 2**b_r + knorm, knorm * 2**b_r
    hi_num, hi_den = 12 * 2**b_r - 7 * knorm, 7 * knorm * 2**b_r
    c = None
    for b in range(1, 31):
        den = 2**b
        # the odd numerators 2a+1 with lo <= (2a+1)/den <= hi
        a_lo = -((lo_den - lo_num * den) // (2 * lo_den))
        a_hi = (hi_num * den - hi_den) // (2 * hi_den)
        if a_lo <= a_hi:
            c = (2 * a_lo + 1) / den
            break
    if c is None:
        raise EmptyInterval(f"no dyadic-odd c in [{lo_num}/{lo_den}, {hi_num}/{hi_den}]")

    if lambda1 < 2 or lambda1 & (lambda1 - 1):
        raise ValueError(f"lambda1 = {lambda1} must be a power of two")
    lam_schedule = []
    eps_schedule = []
    stage_flags = []
    for q in range(1, qmax + 1):
        lam = lambda1 * lam_step ** (q - 1)
        if not (c * lam).is_integer():
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
        basis=basis,
        d=d,
        gamma=gamma,
        s=s,
        b0=b0,
        qmax=qmax,
        r=r,
        c=c,
        lam_schedule=lam_schedule,
        eps_schedule=eps_schedule,
        stage_flags=stage_flags,
        grid_budget=grid_budget,
    )


# -- residual -------------------------------------------------------------


def residual_defect(theta, u, R, gamma) -> tuple:
    """``(defect, theta_u)``: the relative sup-coefficient defect of
    div(theta u) + Lambda^gamma theta - div R, and the product theta u it
    formed."""
    theta_u = multiply(theta, u)
    lhs = divergence(theta_u) + fractional_laplacian(theta, gamma)
    rhs = divergence(R)
    scale = max(lhs.max_amp(), rhs.max_amp())
    return ((lhs - rhs).max_amp() / scale if scale else 0.0), theta_u


def _measure_state(state: IterationState, params: IterationParams) -> float:
    """Measure the exact invariants of the state without judging them; the
    certificate does that.  Returns the relaxed-equation residual defect and
    keeps the other measurements on the state: |mean theta|, the divergence
    defect of u, the drift gap |u - T theta| relative to max |u|, the product
    theta u and the L^1 quadrature of theta."""
    state.theta_mean = abs(mean_part(state.theta))
    state.div_u = divergence_defect(state.u)
    gap = (state.u - apply_T(params.basis.multiplier, state.theta)).max_amp()
    state.drift_rel = gap / max(state.u.max_amp(), 1e-300)
    defect, state.theta_u = residual_defect(state.theta, state.u, state.R, params.gamma)
    state.theta_L1 = lp_norm_detailed(state.theta, 1.0, params.grid_budget)
    return defect


# -- base case ------------------------------------------------------------


def _base_fields(A: float, params: IterationParams):
    d = params.d
    e1 = tuple([1] + [0] * (d - 1))
    ne1 = tuple(-c for c in e1)
    theta = SpectralField.scalar(d, {e1: A / 2.0, ne1: A / 2.0})
    u = apply_T(params.basis.multiplier, theta)
    R = multiply(theta, u) - fractional_laplacian(gradient(theta), params.gamma - 2.0)
    return theta, u, R


def base_state(params: IterationParams) -> IterationState:
    """theta_0 = A cos(2 pi x_1); A halved until ||R_0||_{H^{-s}} < 1.

    The stress is the exact residual R_0 = theta_0 u_0 - Lambda^{gamma-2}
    grad theta_0 (the sign makes div R_0 reproduce the Lambda^gamma term,
    since div Lambda^{gamma-2} grad = -Lambda^gamma).  delta = A/4 is the
    L^1-floor constant: ||theta_0||_{L^1} = 2A/pi > (1+1) A/4.  Both live in
    the base history entry only.
    """
    A = 1.0
    for _ in range(64):
        theta, u, R = _base_fields(A, params)
        R_Hs = sobolev_norm(R, -params.s)
        if R_Hs < 1.0:
            break
        A /= 2.0
    else:
        raise ValueError("could not normalize the base stress below 1")
    state = IterationState(q=0, theta=theta, u=u, R=R)
    defect = _measure_state(state, params)
    state.norm_history.append(
        {
            "q": 0,
            "lam": None,
            "eps": None,
            "degenerate": False,
            "R_Hs": R_Hs,
            "theta_L1": state.theta_L1.norm,
            "A": A,
            "delta": A / 4.0,
            "residual_defect": defect,
        }
    )
    return state


# -- amplitudes -----------------------------------------------------------


def harmonic_weight_sum(spec: SlabSpec, params: IterationParams) -> float:
    """Discrete weight sum S = sum_{n != 0} lam^{eps-1} |phihat(lam^{eps-1}
    n)|^2 Khat(lam^eps n k / lam)^2.

    This is the Riemann sum whose continuum limit is the integral
    int |phihat(x)|^2 Khat(x k)^2 dx; using the sum itself makes the
    constant-amplitude cancellation identity exact at any finite lam.
    """
    step = spec.lam ** (spec.eps - 1.0)
    knorm = params.basis.common_norm
    total = 0.0
    n = 1
    while True:
        weight = float(params.kernel.lowpass(np.array([step * n * knorm]))[0])
        if weight == 0.0:
            break
        total += 2.0 * step * abs(PROFILE.fhat(step * n)) ** 2 * weight**2
        n += 1
    return total


def _amplitude_rows(samples, pref: float, margin: float):
    """The row blocks of one direction's Gamma^2 coefficients, each turned
    into the amplitude in place (square root, prefactor) as it passes.  Once
    the running min falls below the margin, no block is passed on: the min
    is finished over the remaining blocks and a ``ValueError`` gives the
    grid's min, so no root of a value below the margin is taken."""
    cmin = math.inf
    for i, block in samples:
        cmin = min(cmin, float(block.min()))
        if cmin < margin * (1 - 1e-9):
            for _, rest in samples:
                cmin = min(cmin, float(rest.min()))
            raise ValueError(f"amplitude coefficient {cmin:.3g} fell below the margin {margin}")
        np.sqrt(block, out=block)
        block *= pref
        yield i, block


def amplitudes(
    R: SpectralField,
    params: IterationParams,
    spec: SlabSpec,
    stress_cutoff: float | None = None,
) -> dict:
    """Amplitude fields a_{k,q} = (S eps_Omega / ||R||_inf)^{-1/2} Gamma_k(k*
    - eps_Omega R(x)/||R||_inf) for every direction k of the basis,
    re-analyzed and truncated in frequency.

    Returns ``{k: (field, info)}``.  ``spec`` gives lam and eps, which all
    directions share.  ||R||_inf is taken as the grid maximum of
    |R| on the evaluation grid itself, which guarantees the Gamma arguments
    stay in the admissible ball pointwise; it is streamed through row blocks
    of R's components, which share one set of buffers, so no d N^d grid is
    held.  The coefficient map is affine, c = E^{-1} k* -
    (eps_Omega/||R||_inf) E^{-1} R(x), so each direction's Gamma_k^2
    coefficient is a real scalar field with an exact spectrum.  Its samples
    are streamed too: each row block is checked against the margin, turned
    into the amplitude in place (square root, prefactor) and transformed by
    ``_analyze_rows`` into the box |xi_i| <= trunc_radius only, whose
    coefficients are pruned and cut to the radius.  The box's half spectrum,
    about (2 trunc/N)^(d-1) of the whole N^d half spectrum, is the largest
    array, one direction at a time.  ``tail_fraction`` is the L^2 norm
    beyond the radius relative to the whole, by Parseval: the root of the
    mass the transform's passes drop outside the box plus the in-box mass
    beyond the radius, over the whole mass.

    ``stress_cutoff``: when set, the amplitudes target only the stress below
    that frequency.  The squared amplitude is affine in the stress, so the
    slab harmonics beat its spectrum down by multiples of their spacing;
    cancelling stress content above half the spacing would push error back to
    the low frequencies, costing more in a negative norm than it saves.
    """
    if R.is_zero():
        raise ZeroStress("stress field is identically zero")
    if stress_cutoff is not None and R.max_freq > stress_cutoff:
        R = R.weighted(R.radii() <= stress_cutoff)
        if R.is_zero():
            raise ZeroStress("stress has no content below the cutoff")
    basis = params.basis
    S = harmonic_weight_sum(spec, params)
    if S <= 0.0:
        raise ZeroStress(
            f"no slab harmonic survives the low-pass at lam={spec.lam}, "
            f"eps={spec.eps}"
        )
    d = params.d
    trunc, N = _amplitude_N(R, params.grid_budget)

    rmax = float(_grid_sums(R, N, (math.inf,))[math.inf][0])
    if rmax == 0.0:
        raise ZeroStress("stress field vanishes on the evaluation grid")
    pref = (S * basis.eps_omega / rmax) ** (-0.5)
    rows = (-basis.eps_omega / rmax) * basis.even_inv
    means = (basis.even_inv * basis.k_star).sum(axis=1)  # E^{-1} k*
    origin = np.zeros((1, d), dtype=np.int64)
    shared = {"S": S, "R_max": rmax, "prefactor": pref, "trunc_radius": trunc, "grid_N": N}
    out = {}
    for k, row, mean in zip(basis.omega, rows, means):
        coeff = SpectralField(d, 0, R.freqs, (R.amps * row).sum(axis=1))
        samples = _sample_rows(coeff + SpectralField(d, 0, origin, [mean]), N)
        a_box, outside = _analyze_rows(d, N, trunc, _amplitude_rows(samples, pref, basis.gamma_margin))
        inside = a_box.radii() <= trunc
        mass = a_box.masses()
        total = outside + mass.sum()
        tail = math.sqrt((outside + mass[~inside].sum()) / total) if total > 0 else 0.0
        out[k] = (a_box.weighted(inside), {**shared, "tail_fraction": tail})
    return out


# -- increment ------------------------------------------------------------


def _shell_scan(w: SpectralField, stage: int, params: IterationParams) -> dict:
    """Item 6's exact scan: is every frequency of the increment inside the
    dyadic shell j = log2 lam and on its plateau?"""
    if w.is_zero():
        return {"stage": stage, "degenerate": True, "pass": True}
    j = params.stage_lam(stage).bit_length() - 1
    lo, hi = 2.0**j, (12.0 / 7.0) * 2.0**j
    mags = w.radii()
    inside = bool(np.all((mags >= lo - 1e-9) & (mags <= hi + 1e-9)))
    plateau = bool(np.all(params.kernel.shell_weight(w.freqs, j) == 1.0))
    return {
        "stage": stage,
        "shell_index": j,
        "min_freq": float(mags.min()),
        "max_freq": float(mags.max()),
        "pass": inside and plateau,
    }


def build_increment(state: IterationState, params: IterationParams) -> PerturbationBundle:
    basis = params.basis
    stage = state.q + 1
    lam = params.stage_lam(stage)
    eps = params.stage_eps(stage)
    sigma = params.sigma(stage)
    rlam = params.r * lam
    per_k = {}
    w = SpectralField.zero(params.d, 0)
    degenerate = False
    # amplitudes only target stress below half the slab-harmonic spacing
    spacing = round(lam**eps) * basis.common_norm
    cutoff = max(2.0, spacing / 2.0)
    try:
        amps = amplitudes(state.R, params, SlabSpec(k=basis.omega[0], lam=lam, eps=eps), stress_cutoff=cutoff)
    except ZeroStress:
        amps = {}
    for k in basis.omega:
        spec = SlabSpec(k=k, lam=lam, eps=eps)
        if k not in amps:
            degenerate = True
            per_k[k] = {
                "w_k": SpectralField.zero(params.d, 0),
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
        cap_needed = int(reach // (sig_step * basis.common_norm)) + 1
        rho = slab_fourier(spec, cap_needed)
        rho_t = rho.weighted(rho.radii() < reach)
        g = low_pass(multiply(a, rho_t), lam, params.kernel)
        w_k = g.modulated([sigma * c for c in k])
        # highest slab harmonic actually kept; sets the diagnostics split scale
        kept_cap = int(np.round(rho_t.radii() / (sig_step * basis.common_norm)).max(initial=0))
        per_k[k] = {
            "w_k": w_k,
            "amp_info": info,
            "mode_cap": kept_cap,
        }
        w = w + w_k

    degenerate = degenerate or w.is_zero()

    # one quadrature pass for every norm of w used later: the report's
    # exponents, item 4's exponents and the sup behind its Besov norms (w
    # sits on one shell plateau, so P_j w = w); all 0 when w vanishes
    ps = set(LP_EXPONENTS) | {p for _, p in ITEM4_PAIRS} | {math.inf}
    norms = lp_norms(w, sorted(ps), params.grid_budget)
    Tw = apply_T(basis.multiplier, w)
    return PerturbationBundle(
        stage=stage,
        lam=lam,
        eps=eps,
        per_k=per_k,
        w=w,
        Tw=Tw,
        wTw=multiply(w, Tw),
        degenerate=degenerate,
        w_norms=norms,
        shell=_shell_scan(w, stage, params),
    )


# -- step -----------------------------------------------------------------


def step(state: IterationState, params: IterationParams) -> tuple:
    """Advance one stage; returns (new_state, bundle).

    Each measurement of the new stage is taken once, while the stage is
    built, and kept on the new state for certification to read: the
    oscillation diagnostics, the history entry, the increment (the bundle
    itself, last in ``increments``) and the new row and column of the
    interaction matrix.
    """
    bundle = build_increment(state, params)
    # taken before R_O, R_N and R_D exist, so its products add nothing to their peak
    diagnostics = oscillation_diagnostics(bundle, state, params)
    w, Tw, wTw = bundle.w, bundle.Tw, bundle.wTw
    theta1 = state.theta + w
    u1 = state.u + Tw
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
        increments=state.increments + [bundle],
        diagnostics=diagnostics,
    )
    defect = _measure_state(new_state, params)

    ms = -params.s
    prev = state.norm_history[-1]["R_Hs"]
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
        "w_lp": {},
        "w_besov": {},
        "residual_defect": defect,
        "amp_info": {
            str(k): rec["amp_info"] for k, rec in bundle.per_k.items()
        },
    }
    if not w.is_zero():
        for p in LP_EXPONENTS:
            rec = bundle.w_norms[p]
            target = bundle.lam ** ((1.0 - bundle.eps) * (0.5 - 1.0 / p))
            entry["w_lp"][str(p)] = {**rec._asdict(), "ratio": rec.norm / target}
        for alpha in BESOV_ALPHAS:
            entry["w_besov"][str(alpha)] = besov_norm(
                w, alpha, params.kernel, params.grid_budget
            )
    new_state.norm_history.append(entry)

    # the new column (w_n T w, n < q) and row (w T w_m, m < q) of the
    # interaction matrix; its diagonal entry is wTw_Hs
    col = [sobolev_norm(multiply(inc.w, Tw), ms) for inc in state.increments]
    row = [sobolev_norm(multiply(w, inc.Tw), ms) for inc in state.increments]
    new_state.interactions = [r + [c] for r, c in zip(state.interactions, col)]
    new_state.interactions.append(row + [entry["wTw_Hs"]])
    return new_state, bundle


# -- diagnostics ----------------------------------------------------------


def oscillation_diagnostics(bundle: PerturbationBundle, state: IterationState, params: IterationParams) -> dict:
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
    basis = params.basis
    cap = max((rec["mode_cap"] for rec in bundle.per_k.values()), default=0)
    sig_step = round(bundle.lam**bundle.eps)
    mu = sig_step * max(cap, 1) * basis.common_norm * 2

    w_k = {k: rec["w_k"] for k, rec in bundle.per_k.items() if not rec["w_k"].is_zero()}
    Tw_k = {k: apply_T(basis.multiplier, wk) for k, wk in w_k.items()}
    diag = SpectralField.zero(params.d, 1)
    for k, wk in w_k.items():
        diag = diag + multiply(wk, Tw_k[k])
    mag2 = (diag.freqs * diag.freqs).sum(axis=1)
    low, high = diag.weighted(mag2 <= mu * mu), diag.weighted(mag2 > mu * mu)

    offdiag = SpectralField.zero(params.d, 1)
    for ka, wa in w_k.items():
        for kb, twb in Tw_k.items():
            if ka != kb:
                offdiag = offdiag + multiply(wa, twb)

    prev_norm = state.norm_history[-1]["R_Hs"]
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

    # closed-form mean comparison; the amplitudes share one R_max
    infos = [rec["amp_info"] for rec in bundle.per_k.values() if rec["amp_info"] is not None]
    report["mean_cancellation_rel"] = None
    if infos:
        target = (infos[0]["R_max"] / basis.eps_omega) * basis.k_star
        achieved = np.asarray(mean_part(state.R) + mean_part(bundle.wTw), dtype=complex)
        scale = math.hypot(*target)
        if scale > 0:
            report["mean_cancellation_rel"] = math.hypot(*np.abs(achieved - target)) / scale

    # off-diagonal frequency-separation certificate: each w_k lies within
    # r lam of +-sigma k (sigma = c lam), so w_a T w_b with a != b sits at
    # least lam (c min |k_a +- k_b| - 2 r) from the origin
    if not offdiag.is_zero():
        mags = offdiag.radii()
        ks = np.asarray(list(bundle.per_k), dtype=float)
        a, b = np.triu_indices(len(ks), 1)
        gap = float(np.linalg.norm(np.concatenate((ks[a] + ks[b], ks[a] - ks[b])), axis=1).min())
        threshold = bundle.lam * (params.c * gap - 2.0 * params.r)
        report["offdiag_min_freq"] = float(mags.min())
        report["offdiag_threshold"] = threshold
        report["offdiag_separated"] = bool(mags.min() >= threshold - 1e-9)
    return report
