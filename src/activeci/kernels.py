"""Smooth radial cutoff profiles used by the dyadic shell projectors and the
band-limiting low-pass.

Both profiles are built from the standard ``exp(-1/t)`` glue function.  The
shell profile equals 1 on ``1 <= |xi| <= 12/7``, is supported in
``6/7 <= |xi| <= 2``, and its dyadic dilates form an exact partition of unity
on ``|xi| >= 1``.  The low-pass profile has plateau radius ``r/2`` and support
radius ``r``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["glue", "smoothstep", "ShellKernel"]


def glue(t):
    """exp(-1/t) for t > 0, zero otherwise; smooth at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    # for subnormal t, -1/t overflows to -inf; exp(-inf) = 0 is the value
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(u):
    """Smooth monotone 0 -> 1 transition on [0, 1]."""
    u = np.asarray(u, dtype=float)
    g1 = glue(u)
    g2 = glue(1.0 - u)
    return g1 / (g1 + g2)


class ShellKernel:
    """Radial profiles for Littlewood-Paley shells and the low-pass bump.

    ``chi`` is the auxiliary cutoff: 1 on ``t <= 6/7``, 0 on ``t >= 1``.  The
    shell profile is the telescoping difference ``chi(t/2) - chi(t)``, which
    makes the dyadic partition of unity exact by construction.
    """

    SHELL_PLATEAU = (1.0, 12.0 / 7.0)
    SHELL_SUPPORT = (6.0 / 7.0, 2.0)

    def __init__(self, r: float = 1.0 / 16.0):
        if r <= 0:
            raise ValueError("low-pass support radius must be positive")
        self.r = float(r)

    @staticmethod
    def chi(t):
        """Auxiliary cutoff: 1 for t <= 6/7, 0 for t >= 1."""
        t = np.asarray(t, dtype=float)
        lo, hi = 6.0 / 7.0, 1.0
        return smoothstep((hi - t) / (hi - lo))

    @classmethod
    def shell(cls, t):
        """Shell profile phi(t) = chi(t/2) - chi(t); radial argument t = |xi|."""
        t = np.asarray(t, dtype=float)
        return cls.chi(t / 2.0) - cls.chi(t)

    def lowpass(self, t):
        """Low-pass bump: 1 for t <= r/2, 0 for t >= r, smooth in between."""
        t = np.asarray(t, dtype=float)
        return smoothstep((self.r - t) / (self.r - self.r / 2.0))

    def shell_weight(self, xi, j: int):
        """Shell profile evaluated at 2^{-j} |xi| for lattice points xi."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        mag = np.linalg.norm(xi, axis=-1)
        return self.shell(mag / 2.0**j)

    def lowpass_weight(self, xi, lam: float):
        """Low-pass bump evaluated at |xi| / lam."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        mag = np.linalg.norm(xi, axis=-1)
        return self.lowpass(mag / lam)
