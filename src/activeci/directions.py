"""Direction sets for the cancellation mechanism.

In 2D, a pair of equal-norm lattice directions is extracted from an arc of
the circle where the symbol's even part does not vanish; in 3D a basis must
be supplied and is only validated.  The reconstruction solver writes vectors
near k* = sum of even parts as positive combinations sum_k Gamma_k^2
(m(k) + m(-k)) — the load-bearing identity of the whole construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .multipliers import REAL_TOL, Multiplier, even_part

__all__ = [
    "DirectionBasis",
    "DegenerateBasis",
    "NoArcFound",
    "SearchExhausted",
    "OutsideBall",
    "NegativeCoefficient",
    "find_arc",
    "lattice_basis_in_arc",
    "build_basis",
    "gamma_coefficients",
    "estimate_eps_omega",
]

DEFAULT_GAMMA_MARGIN = 0.1


class DegenerateBasis(ValueError):
    """Even parts of the chosen directions are linearly dependent."""


class NoArcFound(ValueError):
    """No arc with nonvanishing even part exists (odd symbol)."""


class SearchExhausted(ValueError):
    """Lattice search hit the norm cap without finding a valid pair."""


class OutsideBall(ValueError):
    """Reconstruction requested outside the ball B(k*, eps_omega)."""


class NegativeCoefficient(ValueError):
    """A squared-amplitude coefficient fell below the margin."""


@dataclass
class DirectionBasis:
    dim: int
    multiplier: Multiplier  # the symbol whose even parts these are
    omega: list  # d lattice direction tuples
    even_parts: np.ndarray  # (d, d), row i = m(k_i) + m(-k_i)
    k_star: np.ndarray
    eps_omega: float
    gamma_margin: float
    common_norm: int
    # E^{-1}, formed once from even_parts (E's columns): c(v) = E^{-1} v
    even_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        self.omega = [tuple(int(c) for c in k) for k in self.omega]
        self.even_parts = np.asarray(self.even_parts, dtype=float)
        self.k_star = np.asarray(self.k_star, dtype=float)
        self.even_inv = np.linalg.inv(self.even_parts.T)


def find_arc(m: Multiplier, resolution: int = 720):
    """Locate an arc of directions where |m(xi) + m(-xi)| is large.

    Returns (center_angle, half_width).  Directions are probed through nearby
    rational points, which is exact for the shipped rational symbols.
    """
    if m.dim != 2:
        raise ValueError("arc search is a 2D construction")
    angles = np.linspace(0.0, np.pi, resolution, endpoint=False)
    # rational proxies: scale each direction to a nearby integer vector
    denom = 10**6
    probes = np.rint(denom * np.stack([np.cos(angles), np.sin(angles)], axis=1)).astype(np.int64)
    val = m(probes) + m(-probes)
    if m.claims["real_output"]:
        # a probe whose claimed-real even part is not real counts as zero
        val = np.where(np.max(np.abs(val.imag), axis=1, keepdims=True) > REAL_TOL, 0.0, val.real)
    mags = np.linalg.norm(val, axis=1)
    peak = float(mags.max())
    if peak <= 1e-10:
        raise NoArcFound(f"{m.name}: even part vanishes on the sampled circle")
    good = mags >= 0.5 * peak
    best_i = int(np.argmax(mags))
    # grow the arc around the peak while the level condition holds; the
    # magnitude is pi-periodic in the angle, so growth wraps around
    step = np.pi / resolution
    lo = hi = 0
    while lo > -(resolution - 1) and good[(best_i + lo - 1) % resolution]:
        lo -= 1
    while hi - lo < resolution - 1 and good[(best_i + hi + 1) % resolution]:
        hi += 1
    center = angles[best_i] + step * 0.5 * (lo + hi)
    half_width = max(step * 0.5 * (hi - lo), step)
    return center, half_width


def lattice_basis_in_arc(arc, norm_cap: int = 1000):
    """Two non-collinear integer vectors of equal integer norm with unit
    vectors in the arc (or its reflection through the origin), minimizing the
    common norm.

    Mirrors the density argument: enumerate lattice points of integer
    Euclidean norm and test membership.
    """
    center, half_width = arc
    if half_width <= 0:
        raise SearchExhausted("degenerate arc of width zero")

    def in_arc(v):
        ang = math.atan2(v[1], v[0])
        for cand in (ang, ang + np.pi, ang - np.pi, ang + 2 * np.pi, ang - 2 * np.pi):
            if abs(cand - center) <= half_width + 1e-12:
                return True
        return False

    def canonical(v):
        # directions and their negatives are interchangeable; fix the sign
        if v[0] < 0 or (v[0] == 0 and v[1] < 0):
            return (-v[0], -v[1])
        return v

    for n in range(1, norm_cap + 1):
        hits = set()
        for a in range(-n, n + 1):
            b2 = n * n - a * a
            b = int(round(math.sqrt(b2))) if b2 >= 0 else -1
            if b < 0 or b * b != b2:
                continue
            for v in {(a, b), (a, -b)}:
                if in_arc(v):
                    hits.add(canonical(v))
        # among equal-norm pairs prefer the best-separated lines (best
        # conditioning of the even-part solve), then the lexicographically
        # smallest pair for determinism
        best = None
        for v1 in sorted(hits):
            for v2 in sorted(hits):
                if v2 <= v1 or v1[0] * v2[1] - v1[1] * v2[0] == 0:
                    continue
                cosang = abs(v1[0] * v2[0] + v1[1] * v2[1]) / (n * n)
                key = (round(cosang, 12), v1, v2)
                if best is None or key < best:
                    best = key
        if best is not None:
            return [best[1], best[2]]
    raise SearchExhausted(f"no equal-norm pair with norm <= {norm_cap} in the arc")


def estimate_eps_omega(even_inv: np.ndarray, margin: float) -> float:
    """Largest ball radius around k* on which all solved coefficients stay
    above the margin, times a 1/2 safety factor.

    The coefficient map v -> c(v) is affine (c = E^{-1} v with c(k*) = 1), so
    the minimum over the ball is attained on the boundary in closed form:
    min_k c_k = 1 - eps * ||row_k(E^{-1})||.
    """
    row_norms = np.linalg.norm(even_inv, axis=1)
    room = 1.0 - margin
    if room <= 0:
        return 0.0
    eps = float(room / row_norms.max())
    return 0.5 * eps


def build_basis(m: Multiplier, supplied=None, margin: float = DEFAULT_GAMMA_MARGIN) -> DirectionBasis:
    """Construct (d=2) or validate (supplied, any d) a direction basis."""
    if supplied is None:
        if m.dim != 2:
            raise ValueError(
                "automatic basis construction exists only in 2D; supply a basis"
            )
        arc = find_arc(m)
        omega = lattice_basis_in_arc(arc)
    else:
        omega = [tuple(int(c) for c in v) for v in supplied]
        if len(omega) != m.dim:
            raise DegenerateBasis(
                f"supplied basis must have {m.dim} members, got {len(omega)}"
            )
    norms = [math.sqrt(sum(c * c for c in k)) for k in omega]
    common = norms[0]
    if any(abs(n - common) > 1e-12 for n in norms) or abs(common - round(common)) > 1e-12:
        raise DegenerateBasis(f"directions must share one integer norm, got {norms}")

    ep = np.array(even_part(m, omega), dtype=float)
    # normalized determinant test for linear independence
    row_norms = np.linalg.norm(ep, axis=1)
    if np.any(row_norms < 1e-12):
        raise DegenerateBasis(f"{m.name}: vanishing even part in {omega}")
    det = abs(np.linalg.det(ep / row_norms[:, None]))
    if det < 1e-10:
        raise DegenerateBasis(f"{m.name}: dependent even parts, normalized det {det:.2e}")

    k_star = ep.sum(axis=0)
    if np.linalg.norm(k_star) <= 1e-10:
        raise DegenerateBasis("k* vanishes")
    basis = DirectionBasis(
        dim=m.dim,
        multiplier=m,
        omega=omega,
        even_parts=ep,
        k_star=k_star,
        eps_omega=math.nan,  # set below from the basis's one inverse
        gamma_margin=margin,
        common_norm=int(round(common)),
    )
    basis.eps_omega = estimate_eps_omega(basis.even_inv, margin)
    return basis


def gamma_coefficients(basis: DirectionBasis, v):
    """Solve v = sum_k Gamma_k(v)^2 (m(k) + m(-k)); returns {k: Gamma_k(v)}.

    Accepts a single vector or an (n, d) batch; batch output is (n, d) with
    column order matching basis.omega.
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    vb = v[None, :] if single else v
    dist = np.linalg.norm(vb - basis.k_star[None, :], axis=1)
    if np.any(dist > basis.eps_omega * (1 + 1e-12)):
        raise OutsideBall(
            f"max |v - k*| = {dist.max():.3g} exceeds eps_omega = {basis.eps_omega:.3g}"
        )
    c = vb @ basis.even_inv.T  # (n, d)
    if np.min(c) < basis.gamma_margin * (1 - 1e-9):
        raise NegativeCoefficient(
            f"min coefficient {np.min(c):.3g} below margin {basis.gamma_margin}"
        )
    gamma = np.sqrt(c)
    if single:
        return {k: float(g) for k, g in zip(basis.omega, gamma[0])}
    return gamma
