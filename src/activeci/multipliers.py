"""Drift-operator symbols m(xi) and their structural checks.

A drift operator T acts on scalar fields by u_hat(xi) = m(xi) theta_hat(xi).
The iteration requires m to be degree-0 homogeneous, bounded, divergence
free, real-output, and crucially *not odd*: the cancellation mechanism can
only produce directions in the span of the even parts m(xi) + m(-xi).

Shipped symbols: the incompressible porous media equation in 2D and 3D (the
ones the iteration accepts), plus the surface quasi-geostrophic symbol (odd)
and the magneto-geostrophic symbol (unbounded) as diagnostic examples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fields import SpectralField

__all__ = [
    "Multiplier",
    "ClaimViolation",
    "ipm2d",
    "ipm3d",
    "sqg",
    "mg",
    "apply_T",
    "even_part",
    "check_claims",
    "claim_sample",
    "load_multiplier",
]

CLAIM_NAMES = ("homogeneous_deg0", "divergence_free", "real_output", "not_odd", "bounded")

SAMPLE_SEED = 0x5EED


class ClaimViolation(ValueError):
    """A multiplier violated one of its declared structural claims."""


@dataclass
class Multiplier:
    """Symbol m: Z^d \\ {0} -> C^d with declared structural claims."""

    dim: int
    symbol: "callable"
    name: str
    claims: dict = field(default_factory=dict)

    def __post_init__(self):
        base = {c: True for c in CLAIM_NAMES}
        base.update(self.claims)
        self.claims = base

    def __call__(self, xi):
        xi = tuple(int(c) for c in xi)
        if all(c == 0 for c in xi):
            raise ValueError("symbol undefined at xi = 0")
        return np.asarray(self.symbol(xi), dtype=complex)


def ipm2d() -> Multiplier:
    """2D incompressible porous media: <xi1 xi2, -xi1^2> / |xi|^2."""

    def sym(xi):
        x1, x2 = xi
        n2 = x1 * x1 + x2 * x2
        return np.array([x1 * x2 / n2, -x1 * x1 / n2], dtype=complex)

    return Multiplier(2, sym, "ipm2d")


def ipm3d() -> Multiplier:
    """3D incompressible porous media: <xi1 xi3, xi2 xi3, -xi1^2 - xi2^2> / |xi|^2."""

    def sym(xi):
        x1, x2, x3 = xi
        n2 = x1 * x1 + x2 * x2 + x3 * x3
        return np.array(
            [x1 * x3 / n2, x2 * x3 / n2, -(x1 * x1 + x2 * x2) / n2], dtype=complex
        )

    return Multiplier(3, sym, "ipm3d")


def sqg() -> Multiplier:
    """Surface quasi-geostrophic: i <xi2, -xi1> / |xi|.  Odd symbol."""

    def sym(xi):
        x1, x2 = xi
        n = np.sqrt(x1 * x1 + x2 * x2)
        return np.array([1j * x2 / n, -1j * x1 / n], dtype=complex)

    return Multiplier(2, sym, "sqg", claims={"not_odd": False})


def mg() -> Multiplier:
    """Magneto-geostrophic symbol; unbounded (|m(l^2, l, 1)| ~ l^2), zero at xi3 = 0."""

    def sym(xi):
        x1, x2, x3 = xi
        if x3 == 0:
            return np.zeros(3, dtype=complex)
        n2 = x1 * x1 + x2 * x2 + x3 * x3
        den = x3 * x3 * n2 + x2**4
        return np.array(
            [
                (x2 * x3 * n2 + x1 * x2 * x2 * x3) / den,
                (-x1 * x3 * n2 + x2**3 * x3) / den,
                (-x2 * x2 * (x1 * x1 + x2 * x2)) / den,
            ],
            dtype=complex,
        )

    return Multiplier(3, sym, "mg", claims={"bounded": False})


def apply_T(m: Multiplier, theta: SpectralField) -> SpectralField:
    """Apply the drift operator: u_hat(xi) = m(xi) theta_hat(xi); drops xi = 0."""
    if theta.rank != 0:
        raise ValueError("drift operator acts on scalar fields")
    if theta.dim != m.dim:
        raise ValueError("dimension mismatch")
    keep = theta.freqs.any(axis=1)
    freqs = theta.freqs[keep]
    sym = np.array([m(xi) for xi in freqs.tolist()], dtype=complex).reshape(-1, m.dim)
    reality = theta.reality and m.claims["real_output"]
    return SpectralField(m.dim, 1, freqs, sym * theta.amps[keep, None], reality).pruned()


def even_part(m: Multiplier, xi) -> np.ndarray:
    """m(xi) + m(-xi), asserted real when the symbol claims real output."""
    xi = tuple(int(c) for c in xi)
    val = m(xi) + m(tuple(-c for c in xi))
    if m.claims["real_output"]:
        if np.max(np.abs(np.imag(val))) > 1e-13:
            raise ClaimViolation(
                f"{m.name}: non-real even part {val} at xi = {xi}"
            )
        return np.real(val)
    return val


def claim_sample(m: Multiplier, extra=(), n_random: int = 100):
    """Deterministic sample of lattice points: axes, supplied directions, and
    seeded pseudo-random points."""
    pts = []
    for i in range(m.dim):
        e = [0] * m.dim
        e[i] = 1
        pts.append(tuple(e))
        pts.append(tuple(-c for c in e))
    for v in extra:
        pts.append(tuple(int(c) for c in v))
    rng = np.random.default_rng(SAMPLE_SEED)
    count = 0
    while count < n_random:
        xi = tuple(int(c) for c in rng.integers(-50, 51, size=m.dim))
        if any(c != 0 for c in xi):
            pts.append(xi)
            count += 1
    return pts


def check_claims(m: Multiplier, sample=None) -> dict:
    """Evaluate every declared claim on a point sample; failures are entries,
    not exceptions."""
    if sample is None:
        sample = claim_sample(m)
    sample = [tuple(int(c) for c in xi) for xi in sample]
    if not sample or any(all(c == 0 for c in xi) for xi in sample):
        raise ValueError("sample must be nonempty and exclude the origin")
    report = {}

    # homogeneity of degree 0 under integer dilation
    ok, witness = True, None
    for xi in sample:
        base = m(xi)
        for lam in (2, 3, 5):
            scaled = m(tuple(lam * c for c in xi))
            if np.max(np.abs(scaled - base)) > 1e-12:
                ok, witness = False, (xi, lam)
                break
        if not ok:
            break
    report["homogeneous_deg0"] = {"pass": ok, "witness": witness}

    ok, witness = True, None
    for xi in sample:
        if abs(np.dot(np.asarray(xi, dtype=complex), m(xi))) > 1e-12:
            ok, witness = False, xi
            break
    report["divergence_free"] = {"pass": ok, "witness": witness}

    ok, witness = True, None
    for xi in sample:
        neg = m(tuple(-c for c in xi))
        if np.max(np.abs(m(xi) - np.conj(neg))) > 1e-12:
            ok, witness = False, xi
            break
    report["real_output"] = {"pass": ok, "witness": witness}

    ok, witness = False, None
    for xi in sample:
        val = m(xi) + m(tuple(-c for c in xi))
        if np.max(np.abs(val)) > 1e-10:
            ok, witness = True, xi
            break
    report["not_odd"] = {"pass": ok, "witness": witness}

    mags = [float(np.linalg.norm(m(xi))) for xi in sample]
    bound = max(mags)
    report["bounded"] = {"pass": bound <= 10.0, "witness": None, "max": bound}

    for name in CLAIM_NAMES:
        report[name]["claimed"] = bool(m.claims[name])
        report[name]["consistent"] = report[name]["pass"] == bool(m.claims[name])
    return report


# -- user-defined symbols --------------------------------------------------
#
# Declarative format (JSON): each component of m is a ratio of polynomials in
# the frequency coordinates.  A polynomial is a list of monomials
# [e_1, ..., e_d, coeff_re, coeff_im] meaning coeff * xi_1^{e_1} ... xi_d^{e_d}.
#
#   {
#     "name": "my-symbol",
#     "dim": 2,
#     "components": [
#       {"num": [[1, 1, 1.0, 0.0]], "den": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]]},
#       {"num": [[2, 0, -1.0, 0.0]], "den": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]]}
#     ],
#     "claims": {"not_odd": true}
#   }


def _poly_eval(monomials, xi):
    total = 0.0 + 0.0j
    d = len(xi)
    for mono in monomials:
        exps = mono[:d]
        coeff = complex(mono[d], mono[d + 1])
        term = coeff
        for e, x in zip(exps, xi):
            term *= float(x) ** e
        total += term
    return total


def load_multiplier(path) -> Multiplier:
    """Load a user-defined rational symbol from its declarative JSON file."""
    with open(path) as fh:
        data = json.load(fh)
    dim = int(data["dim"])
    comps = data["components"]
    if len(comps) != dim:
        raise ValueError("component count must equal the dimension")

    def sym(xi, comps=comps):
        out = []
        for comp in comps:
            num = _poly_eval(comp["num"], xi)
            den = _poly_eval(comp.get("den", [[0] * dim + [1.0, 0.0]]), xi)
            out.append(num / den)
        return np.array(out, dtype=complex)

    return Multiplier(dim, sym, data.get("name", "user"), claims=data.get("claims", {}))
