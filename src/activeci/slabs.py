"""Intermittent slab building blocks.

A slab is a 1-D profile oscillating at frequency lam along a lattice
direction k, periodized at scale lam^{-eps}:

    rho(x) = sum_n lam^{(1-eps)/2} phi(lam k.x + lam^{1-eps} n).

Its Fourier series lives on the line {lam^eps n k} with coefficients
lam^{(eps-1)/2} phihat(lam^{eps-1} n), which is how the iteration consumes
it.  eps tunes the L^p family: ||rho||_{L^p} ~ lam^{(1-eps)(1/2 - 1/p)}.

phihat comes from the trapezoid rule with spacing h = 1/TRAP_N on [-1, 1].
phi is C^infinity and vanishes with all its derivatives at +-1, so by
Poisson summation the trapezoid sum of phi(x) e^{-2 pi i t x} equals
sum_k phihat(t + k/h) exactly: its only error is the alias
phihat(t +- TRAP_N) and beyond.  For |t| <= TRAP_N/2 that is at most
|phihat(512)|, below 1e-25 (|phihat(200)| is about 3e-19), far under the
roundoff of the sum itself.  ``Profile.fhat`` refuses larger |t|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import SpectralField

__all__ = [
    "PROFILE",
    "Profile",
    "SlabSpec",
    "TailTooFat",
    "build_profile",
    "slab_fourier",
    "slab_physical",
    "certify_scaling",
    "write_scaling_csv",
]


class TailTooFat(ValueError):
    """No admissible mode cap meets the Fourier-tail tolerance."""


TRAP_N = 1024  # trapezoid spacing 1/TRAP_N; fhat is exact for |t| <= TRAP_N/2
# interior trapezoid nodes of [0, 1]; phi vanishes at both ends
_NODES = np.arange(1, TRAP_N) / TRAP_N


@dataclass
class Profile:
    """Smooth odd L2-normalized bump supported in (-1, 1)."""

    norm_const: float
    _fhat_cache: dict = field(default_factory=dict, repr=False)
    _samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._samples = self(_NODES)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        out[inside] = self.norm_const * np.sin(np.pi * xi) * np.exp(-1.0 / (1.0 - xi * xi))
        return out

    def fhat(self, t: float) -> complex:
        """Fourier transform phihat(t) = int phi(x) e^{-2 pi i t x} dx.

        phi odd and real, so phihat(t) = -2i int_0^1 phi(x) sin(2 pi t x) dx,
        purely imaginary with phihat(-t) = conj(phihat(t)).  Evaluated by the
        trapezoid rule (see the module docstring), exact up to an alias below
        1e-25 for |t| <= TRAP_N/2; larger |t| raises ValueError.
        """
        key = round(float(t), 12)
        if key not in self._fhat_cache:
            if abs(key) > TRAP_N / 2:
                raise ValueError(
                    f"phihat({key}) lies beyond the exact trapezoid range "
                    f"|t| <= {TRAP_N // 2}"
                )
            sines = np.sin(2.0 * np.pi * key * _NODES)
            val = -2.0j / TRAP_N * math.fsum(self._samples * sines)
            self._fhat_cache[key] = val
            self._fhat_cache[-key] = np.conj(val)
        return self._fhat_cache[key]


# L2 mass of sin(pi x) exp(-1/(1-x^2)) by the trapezoid rule, exact for the
# same reason as ``Profile.fhat`` (the mass is the transform of phi^2 at
# t = 0); phi^2 is even, so it is twice the interior sum over (0, 1)
_MASS = 2.0 / TRAP_N * float(np.sum(np.sin(np.pi * _NODES) ** 2 * np.exp(-2.0 / (1.0 - _NODES**2))))
# the one slab profile C sin(pi x) exp(-1/(1-x^2)), C fixed by L2 normalization;
# every slab shares its fhat cache, which holds a function of t alone
PROFILE = Profile(norm_const=1.0 / math.sqrt(_MASS))


def build_profile() -> Profile:
    """The slab profile, ``PROFILE``: every slab uses it."""
    return PROFILE


@dataclass
class SlabSpec:
    k: tuple
    lam: int
    eps: float

    def __post_init__(self):
        self.k = tuple(int(c) for c in self.k)
        self.lam = int(self.lam)
        if self.lam < 2 or self.lam & (self.lam - 1):
            raise ValueError(f"lam must be a power of two, got {self.lam}")
        if not (0 < self.eps <= 1):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        sigma = self.lam**self.eps
        if abs(sigma - round(sigma)) > 1e-9:
            raise ValueError(f"lam^eps = {sigma} is not an integer")
        # translated copies along k have supports of width 2 spaced lam^{1-eps}
        # apart in the lam k.x variable; require strict disjointness
        self.disjointness_threshold = 2.0
        if self.lam ** (1.0 - self.eps) < self.disjointness_threshold:
            raise ValueError(
                f"lam^(1-eps) = {self.lam ** (1.0 - self.eps):.3g} below the "
                f"disjoint-support threshold {self.disjointness_threshold}"
            )

    @property
    def harmonic_step(self) -> int:
        """Integer lam^eps: Fourier support spacing along k."""
        return int(round(self.lam**self.eps))


def _choose_cap(spec: SlabSpec, tol: float = 1e-12, hard_cap: int = 20000) -> int:
    """Smallest mode cap whose dropped |phihat| tail is <= tol of the kept mass."""
    step = spec.lam ** (spec.eps - 1.0)
    kept = 0.0
    mags = []
    n = 1
    while n <= hard_cap:
        mag = abs(PROFILE.fhat(step * n))
        mags.append(mag)
        kept += mag
        # super-polynomial decay: once the last few terms are tiny relative to
        # the mass, bound the tail by a geometric comparison
        if n >= 4 and kept > 0:
            recent = mags[-3:]
            if max(recent) <= 0.25 * tol * kept:
                return n
        n += 1
    raise TailTooFat(
        f"tail tolerance {tol} not reached within {hard_cap} modes at "
        f"lam={spec.lam}, eps={spec.eps}"
    )


def slab_fourier(spec: SlabSpec, mode_cap: int | None = None) -> SpectralField:
    """Fourier-series form of the slab: modes at lam^eps n k, 0 < |n| <= cap,
    with coefficients lam^{(eps-1)/2} phihat(lam^{eps-1} n).  Mean-free by the
    oddness of the profile (phihat(0) = 0, never stored)."""
    if mode_cap is None:
        mode_cap = _choose_cap(spec)
    step = spec.lam ** (spec.eps - 1.0)
    amp = spec.lam ** ((spec.eps - 1.0) / 2.0)
    c = amp * np.array([PROFILE.fhat(step * n) for n in range(1, mode_cap + 1)], dtype=complex)
    xi = np.outer(spec.harmonic_step * np.arange(1, mode_cap + 1), spec.k)
    return SpectralField.from_entries(len(spec.k), 0, np.concatenate((xi, -xi)), np.concatenate((c, c.conj())))


def slab_physical(spec: SlabSpec, x) -> float:
    """Direct translated-profile sum at one point of the torus."""
    x = np.asarray(x, dtype=float)
    t = spec.lam * math.fsum(np.multiply(spec.k, x))
    spacing = spec.lam ** (1.0 - spec.eps)
    # phi(t + spacing * n) != 0 needs |t + spacing * n| < 1
    n_lo = math.floor((-1.0 - t) / spacing)
    n_hi = math.ceil((1.0 - t) / spacing)
    total = 0.0
    amp = spec.lam ** ((1.0 - spec.eps) / 2.0)
    for n in range(n_lo, n_hi + 1):
        total += amp * float(PROFILE(np.array([t + spacing * n]))[0])
    return total


def _line_norm(spec: SlabSpec, p: float, pts_per_copy: int = 256) -> float:
    """L^p norm of the slab via its 1-D reduction.

    With gcd of the direction entries equal to 1, the map x -> k.x pushes the
    torus measure to the uniform measure on the circle, so the d-dimensional
    L^p norm equals the L^p(T) norm of g(t) = sum_n lam^{(1-eps)/2}
    phi(lam t + lam^{1-eps} n).
    """
    g = math.gcd(*[abs(c) for c in spec.k])
    if g != 1:
        raise ValueError(f"direction {spec.k} must have coprime entries")
    amp = spec.lam ** ((1.0 - spec.eps) / 2.0)
    # one period of g in t has length lam^{-eps} and holds a single copy of
    # phi(lam t); integrate that copy on a fine grid and replicate
    copies = spec.harmonic_step  # lam^eps copies tile the circle
    u = np.linspace(-1.0, 1.0, 2 * pts_per_copy, endpoint=False)
    vals = amp * PROFILE(u)
    if np.isinf(p):
        return float(np.max(np.abs(vals)))
    du = (u[1] - u[0]) / spec.lam  # dt = du / lam
    integral_one_copy = float(np.sum(np.abs(vals) ** p) * du)
    return (copies * integral_one_copy) ** (1.0 / p)


def _line_slope(x, y) -> float:
    """Least-squares slope of ``y`` against ``x``, sum (x - xbar)(y - ybar)
    / sum (x - xbar)^2, each sum by ``math.fsum``.  ``np.polyfit``'s LAPACK
    driver made a run resident in about 0.8 MB more of OpenBLAS code for
    these few-point fits.  ValueError unless ``x`` holds two distinct
    values."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(set(x)) < 2:
        raise ValueError(f"a line fit needs two distinct abscissae, got {x}")
    xbar, ybar = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - xbar for v in x]
    return math.fsum(a * (b - ybar) for a, b in zip(dx, y)) / math.fsum(a * a for a in dx)


def certify_scaling(k, lam_list, eps: float, p_list) -> list:
    """Measure ||rho||_{L^p} across scales and fit log-log slopes against the
    target exponent (1-eps)(1/2 - 1/p).  Returns report rows; deviations are
    entries, never errors.  ValueError when fewer than two distinct
    frequencies are given, since no slope can be fitted."""
    if len(set(lam_list)) < 2:
        raise ValueError(f"a slope fit needs at least two distinct frequencies, got {list(lam_list)}")
    rows = []
    for p in p_list:
        pf = float(p)
        norms = []
        for lam in lam_list:
            spec = SlabSpec(k=k, lam=lam, eps=eps)
            norms.append(_line_norm(spec, pf))
        slope = _line_slope(np.log2(np.asarray(lam_list, dtype=float)), np.log2(np.asarray(norms)))
        inv_p = 0.0 if np.isinf(pf) else 1.0 / pf
        target = (1.0 - eps) * (0.5 - inv_p)
        for lam, norm in zip(lam_list, norms):
            rows.append(
                {
                    "p": "inf" if np.isinf(pf) else pf,
                    "lam": int(lam),
                    "norm": norm,
                    "fitted_slope": slope,
                    "target_slope": target,
                    "deviation": slope - target,
                }
            )
    return rows


def write_scaling_csv(rows, path) -> None:
    fieldnames = ["p", "lam", "norm", "fitted_slope", "target_slope", "deviation"]
    with open(path, "w", newline="") as fh:  # "\r\n" ends a row, as in csv.DictWriter
        fh.write(",".join(fieldnames) + "\r\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in fieldnames) + "\r\n")
