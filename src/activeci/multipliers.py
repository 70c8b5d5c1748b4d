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
import random
from dataclasses import dataclass, field

import numpy as np

from .fields import SpectralField, nonzero_part

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
    """Symbol m: Z^d \\ {0} -> C^d with declared structural claims.

    ``symbol`` maps an integer frequency array of shape (..., d) to complex
    values of shape (..., d), written as array arithmetic on ``xi[..., i]``;
    one point is the shape-(d,) case.
    """

    dim: int
    symbol: "callable"
    name: str
    claims: dict = field(default_factory=dict)

    def __post_init__(self):
        base = {c: True for c in CLAIM_NAMES}
        base.update(self.claims)
        self.claims = base

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=np.int64)
        if not xi.any(axis=-1).all():
            raise ValueError("symbol undefined at xi = 0")
        return np.asarray(self.symbol(xi), dtype=complex)


def ipm2d() -> Multiplier:
    """2D incompressible porous media: <xi1 xi2, -xi1^2> / |xi|^2."""

    def sym(xi):
        x1, x2 = xi[..., 0], xi[..., 1]
        n2 = x1 * x1 + x2 * x2
        return np.stack([x1 * x2 / n2, -x1 * x1 / n2], axis=-1)

    return Multiplier(2, sym, "ipm2d")


def ipm3d() -> Multiplier:
    """3D incompressible porous media: <xi1 xi3, xi2 xi3, -xi1^2 - xi2^2> / |xi|^2."""

    def sym(xi):
        x1, x2, x3 = xi[..., 0], xi[..., 1], xi[..., 2]
        n2 = x1 * x1 + x2 * x2 + x3 * x3
        return np.stack([x1 * x3 / n2, x2 * x3 / n2, -(x1 * x1 + x2 * x2) / n2], axis=-1)

    return Multiplier(3, sym, "ipm3d")


def sqg() -> Multiplier:
    """Surface quasi-geostrophic: i <xi2, -xi1> / |xi|.  Odd symbol."""

    def sym(xi):
        x1, x2 = xi[..., 0], xi[..., 1]
        n = np.sqrt(x1 * x1 + x2 * x2)
        return 1j * np.stack([x2 / n, -x1 / n], axis=-1)

    return Multiplier(2, sym, "sqg", claims={"not_odd": False})


def mg() -> Multiplier:
    """Magneto-geostrophic symbol; unbounded (|m(l^2, l, 1)| ~ l^2), zero at xi3 = 0."""

    def sym(xi):
        # degree-5 numerators overflow int64 beyond |xi| ~ 6000
        x1, x2, x3 = np.moveaxis(xi.astype(float), -1, 0)
        live = x3 != 0
        n2 = x1 * x1 + x2 * x2 + x3 * x3
        # rows with xi3 = 0 divide by 1 and are zeroed: x2 = 0 there makes den 0
        den = np.where(live, x3 * x3 * n2 + x2**4, 1)
        val = np.stack(
            [
                (x2 * x3 * n2 + x1 * x2 * x2 * x3) / den,
                (-x1 * x3 * n2 + x2**3 * x3) / den,
                (-x2 * x2 * (x1 * x1 + x2 * x2)) / den,
            ],
            axis=-1,
        )
        return np.where(live[..., None], val, 0.0)

    return Multiplier(3, sym, "mg", claims={"bounded": False})


def apply_T(m: Multiplier, theta: SpectralField) -> SpectralField:
    """Apply the drift operator: u_hat(xi) = m(xi) theta_hat(xi); drops xi = 0.

    The symbol sees the stored upper half only: a real-output symbol has
    m(-xi) = conj m(xi), so u is stored as its half spectrum too."""
    if theta.rank != 0:
        raise ValueError("drift operator acts on scalar fields")
    if theta.dim != m.dim:
        raise ValueError("dimension mismatch")
    if not m.claims["real_output"]:
        raise ValueError(f"symbol {m.name!r} does not claim a real output")
    theta = nonzero_part(theta)
    return SpectralField(m.dim, 1, theta.freqs, m(theta.freqs) * theta.amps[:, None]).pruned()


# largest imaginary part a claimed-real even part may carry
REAL_TOL = 1e-13


def even_part(m: Multiplier, xi) -> np.ndarray:
    """m(xi) + m(-xi) for one point (d,) or an array (..., d), asserted real
    when the symbol claims real output."""
    xi = np.asarray(xi, dtype=np.int64)
    val = m(xi) + m(-xi)
    if not m.claims["real_output"]:
        return val
    bad = np.argwhere(np.max(np.abs(val.imag), axis=-1) > REAL_TOL)
    if len(bad):
        at = tuple(bad[0])
        raise ClaimViolation(
            f"{m.name}: non-real even part {val[at]} at xi = {tuple(xi[at].tolist())}"
        )
    return val.real


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
    rng = random.Random(SAMPLE_SEED)  # private: the global generator stays untouched
    count = 0
    while count < n_random:
        xi = tuple(rng.randint(-50, 50) for _ in range(m.dim))
        if any(xi):
            pts.append(xi)
            count += 1
    return pts


def check_claims(m: Multiplier, sample=None) -> dict:
    """Evaluate every declared claim on a point sample; failures are entries,
    not exceptions.  A witness is the first failing point in sample order."""
    if sample is None:
        sample = claim_sample(m)
    pts = np.asarray(sample, dtype=np.int64).reshape(-1, m.dim)
    if not len(pts) or not pts.any(axis=1).all():
        raise ValueError("sample must be nonempty and exclude the origin")

    def first(bad):
        i = int(np.argmax(bad))
        return tuple(pts[i].tolist()) if bad[i] else None

    val, neg = m(pts), m(-pts)
    report = {}

    # homogeneity of degree 0 under integer dilation; the witness pairs the
    # first failing point with its first failing factor
    lams = (2, 3, 5)
    bad = np.stack([np.max(np.abs(m(lam * pts) - val), axis=1) > 1e-12 for lam in lams], axis=1)
    hit = bad.any(axis=1)
    witness = first(hit)
    if witness is not None:
        witness = (witness, lams[int(np.argmax(bad[np.argmax(hit)]))])
    report["homogeneous_deg0"] = {"pass": witness is None, "witness": witness}

    witness = first(np.abs(np.sum(pts * val, axis=1)) > 1e-12)
    report["divergence_free"] = {"pass": witness is None, "witness": witness}

    witness = first(np.max(np.abs(val - np.conj(neg)), axis=1) > 1e-12)
    report["real_output"] = {"pass": witness is None, "witness": witness}

    witness = first(np.max(np.abs(val + neg), axis=1) > 1e-10)
    report["not_odd"] = {"pass": witness is not None, "witness": witness}

    bound = float(np.max(np.linalg.norm(val, axis=1)))
    report["bounded"] = {"pass": bound <= 10.0, "witness": None, "max": bound}

    for name in CLAIM_NAMES:
        report[name]["claimed"] = bool(m.claims[name])
        report[name]["consistent"] = report[name]["pass"] == bool(m.claims[name])
    return report


# -- user-defined symbols --------------------------------------------------
#
# Declarative format (JSON): each component of m is a ratio of polynomials in
# the frequency coordinates.  A polynomial is a list of monomials
# [e_1, ..., e_d, coeff_re, coeff_im], the e_i non-negative integers, meaning
# coeff * xi_1^{e_1} ... xi_d^{e_d}.  Every claim the file omits is true.
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
    """Sum of the monomials at every point of the (..., d) array ``xi``."""
    x = xi.astype(float)
    total = np.zeros(xi.shape[:-1], dtype=complex)
    d = xi.shape[-1]
    for mono in monomials:
        term = complex(mono[d], mono[d + 1])
        for i, e in enumerate(mono[:d]):
            term = term * x[..., i] ** e
        total = total + term
    return total


def _is_poly(monomials, d) -> bool:
    """Whether ``monomials`` is a list of monomials of d + 2 numbers each,
    the first d of them non-negative integer exponents."""
    return isinstance(monomials, list) and all(
        isinstance(mono, list)
        and len(mono) == d + 2
        and all(type(e) is int and e >= 0 for e in mono[:d])  # bool is an int subclass
        and all(isinstance(v, (int, float)) for v in mono[d:])
        for mono in monomials
    )


def load_multiplier(path) -> Multiplier:
    """Load a user-defined rational symbol from its declarative JSON file.
    ValueError for a malformed one: ``dim`` must be an integer >= 1,
    ``name`` a string and ``claims`` map claim names to booleans."""
    with open(path) as fh:
        data = json.load(fh)
    dim, name, claims = data["dim"], data.get("name", "user"), data.get("claims", {})
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim = {dim!r} must be an integer >= 1")
    if not isinstance(name, str):
        raise ValueError(f"name = {name!r} must be a string")
    if not isinstance(claims, dict) or any(k not in CLAIM_NAMES or type(v) is not bool for k, v in claims.items()):
        raise ValueError(f"claims = {claims!r} must map some of {', '.join(CLAIM_NAMES)} to booleans")
    comps = data["components"]
    if len(comps) != dim:
        raise ValueError("component count must equal the dimension")
    for i, c in enumerate(comps):
        if not (isinstance(c, dict) and _is_poly(c.get("num"), dim) and _is_poly(c.get("den", []), dim)):
            raise ValueError(
                f"component {i} must be an object whose num and optional den are lists of "
                f"monomials of {dim} non-negative integer exponents and 2 numbers"
            )

    def sym(xi, comps=comps):
        one = [[0] * dim + [1.0, 0.0]]
        return np.stack(
            [_poly_eval(c["num"], xi) / _poly_eval(c.get("den", one), xi) for c in comps],
            axis=-1,
        )

    return Multiplier(dim, sym, name, claims=claims)
