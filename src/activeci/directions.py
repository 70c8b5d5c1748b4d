"""Direction sets for the cancellation mechanism.

One rule finds the directions in every dimension d.  The even part
m(xi) + m(-xi) of the degree-0 symbol peaks at some P over the probes
|xi_i| <= PROBE_RADIUS.  For n = 1, 2, ..., NORM_CAP the search lists the
integer vectors of Euclidean norm n, one sign per line, in lexicographic
order, and keeps those whose even part is at least P / 2.  Among the d-sets
of them whose even parts pass build_basis' independence test it takes the
best-separated lines (the smallest largest pairwise |cos|), then the
lexicographically smallest set.  It raises DegenerateBasis past NORM_CAP,
and before any of its arrays would exceed SEARCH_ENTRIES.  A supplied basis
is used as given, once it passes the same checks.  The reconstruction
solver writes vectors near k* = sum of even parts as positive combinations
sum_k Gamma_k^2 (m(k) + m(-k)) — the load-bearing identity of the whole
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .multipliers import Multiplier, even_part

__all__ = [
    "DirectionBasis",
    "DegenerateBasis",
    "OutsideBall",
    "NegativeCoefficient",
    "build_basis",
    "gamma_coefficients",
    "estimate_eps_omega",
]

DEFAULT_GAMMA_MARGIN = 0.1
# the even part's peak is taken over the integer cube |xi_i| <= PROBE_RADIUS
PROBE_RADIUS = 8
# the search's largest norm.  The d-sets it tries grow fast with n: a 3-D
# symbol whose even parts span only a plane exhausts norm 32 in 0.1 s, but
# norm 100 in 9 s at 0.6 GB (2-core x86-64 host)
NORM_CAP = 32
# the most entries one search array may hold, checked before it is made.
# ipm2d and ipm3d stop at 10 and 364 d-sets, and a 3-D symbol whose even
# parts span only a plane exhausts NORM_CAP with at most 35,990 3-sets (9
# entries each) per norm.  A 4-D one whose even parts span a 3-D subspace
# would reach 1.15e6 4-sets (16 entries each) at norm 5 and 1.4e7 at norm 7
SEARCH_ENTRIES = 2**22
# smallest normalized determinant of independent even parts
DET_TOL = 1e-10


class DegenerateBasis(ValueError):
    """No d directions with independent even parts: the supplied ones fail,
    or the search finds none up to NORM_CAP."""


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


def _normalized_det(ep: np.ndarray) -> np.ndarray:
    """|det| of each (d, d) block of even parts with its rows scaled to unit
    length, 0 where a row vanishes; the rows are independent when it is at
    least DET_TOL."""
    norms = np.linalg.norm(ep, axis=-1, keepdims=True)
    unit = np.divide(ep, norms, out=np.zeros_like(ep), where=norms >= 1e-12)
    return np.abs(np.linalg.det(unit))


def _bounded(m: Multiplier, entries: int, what: str) -> None:
    """Raise if the search's array of ``what`` would hold more than
    SEARCH_ENTRIES entries."""
    if entries > SEARCH_ENTRIES:
        raise DegenerateBasis(
            f"{m.name}: the basis search's {what} would hold {entries} entries, over {SEARCH_ENTRIES}; supply a basis"
        )


def _sphere(n: int, d: int) -> np.ndarray:
    """The integer vectors of Euclidean norm n whose first nonzero entry is
    positive (one per line), in lexicographic order."""
    head = np.indices((2 * n + 1,) * (d - 1)).reshape(d - 1, -1).T - n
    rest = n * n - np.sum(head * head, axis=1)
    last = np.rint(np.sqrt(np.maximum(rest, 0))).astype(np.int64)
    on = last * last == rest
    twin = on & (last > 0)
    vecs = np.concatenate([np.column_stack([head[on], last[on]]), np.column_stack([head[twin], -last[twin]])])
    vecs = vecs[vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)] > 0]
    return vecs[np.lexsort(vecs.T[::-1])]


def _lattice_search(m: Multiplier) -> np.ndarray:
    """The d lattice directions the module docstring's rule picks for m, one
    per row."""
    d = m.dim
    _bounded(m, (2 * PROBE_RADIUS + 1) ** d * d, "probes")
    cube = np.indices((2 * PROBE_RADIUS + 1,) * d).reshape(d, -1).T - PROBE_RADIUS
    peak = float(np.max(np.linalg.norm(even_part(m, cube[cube.any(axis=1)]), axis=1)))
    if peak <= 1e-10:
        raise DegenerateBasis(f"{m.name}: even part vanishes on every probe |xi_i| <= {PROBE_RADIUS}")
    for n in range(1, NORM_CAP + 1):
        _bounded(m, (2 * n + 1) ** (d - 1) * d, f"vectors of norm {n}")
        vecs = _sphere(n, d)
        ep = even_part(m, vecs)
        level = np.linalg.norm(ep, axis=1) >= 0.5 * peak
        vecs, ep = vecs[level], ep[level]
        if len(vecs) < d:
            continue
        _bounded(m, math.comb(len(vecs), d) * d * d, f"{d}-sets of norm {n}")
        # the d-sets in lexicographic order, and each one's largest |cos|
        # times n^2, an exact integer
        sets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(len(vecs)), d)), dtype=np.intp)
        sets = sets.reshape(-1, d)
        dots = np.abs(vecs @ vecs.T)
        worst = np.max([dots[sets[:, i], sets[:, j]] for i, j in itertools.combinations(range(d), 2)], axis=0)
        ok = np.flatnonzero(_normalized_det(ep[sets]) >= DET_TOL)
        if len(ok):
            return vecs[sets[ok[np.argmin(worst[ok])]]]
    raise DegenerateBasis(f"{m.name}: no {d} directions of norm <= {NORM_CAP} have independent even parts")


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
    """The direction basis of m: the supplied one, or else the lattice
    search's (module docstring), validated alike in any dimension."""
    omega = [tuple(int(c) for c in v) for v in (_lattice_search(m) if supplied is None else supplied)]
    if len(omega) != m.dim or any(len(k) != m.dim for k in omega):
        raise DegenerateBasis(f"supplied basis must be {m.dim} vectors of length {m.dim}, got {omega}")
    norms = [math.sqrt(sum(c * c for c in k)) for k in omega]
    common = norms[0]
    if any(abs(n - common) > 1e-12 for n in norms) or abs(common - round(common)) > 1e-12:
        raise DegenerateBasis(f"directions must share one integer norm, got {norms}")

    ep = np.array(even_part(m, omega), dtype=float)
    det = _normalized_det(ep)
    if det < DET_TOL:
        raise DegenerateBasis(f"{m.name}: dependent or vanishing even parts in {omega}, normalized det {det:.2e}")

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
