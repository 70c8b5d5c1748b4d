"""Sparse spectral fields on the torus T^d = [0,1]^d with exact frequency
bookkeeping.

A field is a finite map from integer lattice frequencies to complex
amplitudes.  All construction fields (slabs, increments, products of few
modes) are supported on a handful of balls or lines in frequency space, so a
field stores its coefficients in a hash map; dense grids are materialized
only for large products and L^p quadrature.

Products are exact convolutions of the coefficient maps, computed on arrays:
the dict is storage only.  The engine packs frequencies into int64 keys,
decomposes each operand's support into frequency clusters and, per cluster
pair, either enumerates coefficient pairs directly or runs an FFT convolution
on the cluster bounding boxes.  Both paths agree to roundoff.  One
accumulation per vector component then sums the cluster pairs' results in
cluster-pair order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np
from scipy import fft as sp_fft

from .kernels import ShellKernel

__all__ = [
    "SpectralField",
    "GridBuffer",
    "SupportError",
    "synthesize",
    "analyze",
    "multiply",
    "divergence_defect",
    "lp_norm",
    "lp_norms",
    "lp_norm_detailed",
    "sobolev_norm",
    "besov_norm",
    "shell_project",
    "low_pass",
    "fractional_laplacian",
    "mean_part",
    "nonzero_part",
    "gradient",
    "divergence",
    "save_snapshot",
    "load_snapshot",
    "field_to_snapshot",
    "field_from_snapshot",
]

PRUNE_REL = 1e-15
DEFAULT_GRID_BUDGET = 8192
# direct pair enumeration is used for cluster pairs below this many pairs
_DIRECT_PAIR_CAP = 1 << 21


class SupportError(ValueError):
    """Raised when a grid cannot hold a field or product without aliasing."""


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n) - 1).bit_length()


def _above(mags, rel=PRUNE_REL):
    """Mask of magnitudes above ``rel`` times their maximum along axis 0."""
    return mags > rel * mags.max(axis=0)


@dataclass
class GridBuffer:
    """Samples of a field at x = j/N, j in {0..N-1}^d."""

    dim: int
    N: int
    values: np.ndarray  # shape (N,)*dim, complex or real; vector: (d,) + (N,)*dim


class SpectralField:
    """Finite map from lattice frequencies to complex amplitudes.

    ``rank`` 0 is a scalar field (amplitudes are complex numbers), rank 1 a
    vector field (amplitudes are complex d-vectors).  Fields are treated as
    immutable after construction; every operation returns a new field.  That
    is what lets ``_norms`` memoize grid quadrature results, keyed by
    ``(p, N)`` with p = inf for the sup norm.
    """

    __slots__ = ("dim", "rank", "coeffs", "reality", "_max_freq", "_norms")

    def __init__(self, dim, rank, coeffs, reality=False):
        self.dim = int(dim)
        self.rank = int(rank)
        self.coeffs = coeffs
        self.reality = bool(reality)
        self._max_freq = None
        self._norms = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def scalar(cls, dim, entries, reality=None):
        coeffs = {tuple(int(c) for c in xi): complex(a) for xi, a in entries.items()}
        f = cls(dim, 0, coeffs)
        f = f.pruned()
        f.reality = f.is_hermitian() if reality is None else bool(reality)
        return f

    @classmethod
    def vector(cls, dim, entries, reality=None):
        coeffs = {
            tuple(int(c) for c in xi): np.asarray(a, dtype=complex)
            for xi, a in entries.items()
        }
        f = cls(dim, 1, coeffs)
        f = f.pruned()
        f.reality = f.is_hermitian() if reality is None else bool(reality)
        return f

    @classmethod
    def zero(cls, dim, rank=0):
        return cls(dim, rank, {}, reality=True)

    @classmethod
    def from_components(cls, comps):
        dim = comps[0].dim
        keys = set()
        for c in comps:
            keys.update(c.coeffs)
        coeffs = {
            xi: np.array([c.coeffs.get(xi, 0.0) for c in comps], dtype=complex)
            for xi in keys
        }
        f = cls(dim, 1, coeffs, reality=all(c.reality for c in comps))
        return f.pruned()

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def component(self, i):
        coeffs = {xi: a[i] for xi, a in self.coeffs.items()}
        return SpectralField(self.dim, 0, coeffs, reality=self.reality).pruned()

    def freq_array(self):
        """Frequencies as an (K, d) int array, sorted lexicographically."""
        if not self.coeffs:
            return np.zeros((0, self.dim), dtype=np.int64)
        keys = sorted(self.coeffs)
        return np.array(keys, dtype=np.int64)

    def arrays(self):
        """Frequencies as in :meth:`freq_array` and the amplitudes in the same
        order, shape (K,) for scalars and (K, d) for vectors."""
        keys = sorted(self.coeffs)
        freqs = np.array(keys, dtype=np.int64).reshape(len(keys), self.dim)
        return freqs, np.array([self.coeffs[k] for k in keys], dtype=complex)

    @property
    def max_freq(self):
        """Largest Euclidean frequency magnitude in the support."""
        if self._max_freq is None:
            if not self.coeffs:
                self._max_freq = 0.0
            else:
                fa = self.freq_array().astype(float)
                self._max_freq = float(np.max(np.linalg.norm(fa, axis=1)))
        return self._max_freq

    def max_axis_freq(self):
        """Per-axis maximum |xi_i|; zero vector for the empty field."""
        if not self.coeffs:
            return np.zeros(self.dim, dtype=np.int64)
        return np.max(np.abs(self.freq_array()), axis=0)

    def _magnitudes(self):
        """|a| per stored coefficient in dict order; max over components for
        vectors.

        Scalars use np.hypot: np.abs of a complex array may take a SIMD path
        that differs from the scalar abs in the last bit.
        """
        amps = np.array(list(self.coeffs.values()), dtype=complex)
        if self.rank == 0:
            return np.hypot(amps.real, amps.imag)
        return np.abs(amps).max(axis=1)

    def max_amp(self):
        if not self.coeffs:
            return 0.0
        return float(self._magnitudes().max())

    def is_hermitian(self, rtol=1e-13):
        """Check f(-xi) == conj(f(xi)) for every stored frequency."""
        scale = self.max_amp()
        if scale == 0.0:
            return True
        for xi, a in self.coeffs.items():
            neg = tuple(-c for c in xi)
            b = self.coeffs.get(neg)
            if b is None:
                return False
            if self.rank == 0:
                if abs(a - np.conj(b)) > rtol * scale:
                    return False
            else:
                if np.max(np.abs(a - np.conj(b))) > rtol * scale:
                    return False
        return True

    # -- arithmetic -------------------------------------------------------

    def pruned(self, rel=PRUNE_REL):
        coeffs = {}
        if self.coeffs:
            coeffs = dict(compress(self.coeffs.items(), _above(self._magnitudes(), rel)))
        return SpectralField(self.dim, self.rank, coeffs, reality=self.reality)

    def scaled(self, c):
        coeffs = {xi: c * a for xi, a in self.coeffs.items()}
        reality = self.reality and (np.imag(c) == 0)
        return SpectralField(self.dim, self.rank, coeffs, reality=reality)

    def __add__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.dim != self.dim or other.rank != self.rank:
            raise ValueError("incompatible fields")
        coeffs = dict(self.coeffs)
        for xi, a in other.coeffs.items():
            if xi in coeffs:
                coeffs[xi] = coeffs[xi] + a
            else:
                coeffs[xi] = a
        f = SpectralField(self.dim, self.rank, coeffs, reality=self.reality and other.reality)
        return f.pruned()

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def shifted(self, shift):
        """Modulation: multiply by e^{2 pi i shift . x}, i.e. translate spectrum."""
        shift = tuple(int(s) for s in shift)
        coeffs = {
            tuple(x + s for x, s in zip(xi, shift)): a for xi, a in self.coeffs.items()
        }
        return SpectralField(self.dim, self.rank, coeffs, reality=False)

    def coefficient(self, xi):
        xi = tuple(int(c) for c in xi)
        if self.rank == 0:
            return self.coeffs.get(xi, 0.0 + 0.0j)
        return self.coeffs.get(xi, np.zeros(self.dim, dtype=complex))


# -- sampling and analysis ------------------------------------------------


def _scatter(field: SpectralField, N: int, half: bool = False) -> np.ndarray:
    """Place coefficients into an FFT-layout array, wrapping frequencies mod N.

    ``half`` keeps only the last-axis indices 0..N/2 that ``irfftn`` reads;
    for a Hermitian field the dropped entries are the conjugates of kept ones.
    """
    if field.rank != 0:
        raise ValueError("scalar fields only")
    shape = (N,) * field.dim
    if half:
        shape = shape[:-1] + (N // 2 + 1,)
    arr = np.zeros(shape, dtype=complex)
    if field.coeffs:
        freqs, amps = field.arrays()
        freqs = freqs % N
        if half:
            keep = freqs[:, -1] <= N // 2
            freqs, amps = freqs[keep], amps[keep]
        np.add.at(arr, tuple(freqs.T), amps)
    return arr


def sample(field: SpectralField, N: int) -> np.ndarray:
    """Exact samples of the field at the N^d grid points.

    Hermitian (``reality``) fields give real samples through a real inverse
    FFT over the half spectrum; other fields give complex samples.  Wrapping
    frequencies mod N leaves grid-point values exact because
    e^{2 pi i xi j / N} only depends on xi mod N; only coefficient recovery
    requires an unaliased grid.
    """
    if field.rank == 1:
        return np.stack([sample(field.component(i), N) for i in range(field.dim)])
    scale = N**field.dim
    if field.reality:
        half = _scatter(field, N, half=True)
        return np.fft.irfftn(half, s=(N,) * field.dim, axes=tuple(range(field.dim))) * scale
    return np.fft.ifftn(_scatter(field, N)) * scale


def synthesize(field: SpectralField, N: int) -> GridBuffer:
    """Inverse-transform the field onto an N^d grid.

    Requires N to exceed twice the field's max frequency magnitude so that
    ``analyze`` recovers the coefficients exactly.
    """
    if N <= 2 * field.max_freq:
        raise SupportError(
            f"grid N={N} cannot resolve max frequency {field.max_freq:.1f}"
        )
    return GridBuffer(field.dim, N, sample(field, N))


def analyze(grid: GridBuffer, rel=PRUNE_REL) -> SpectralField:
    """Recover the sparse coefficient map from grid samples."""
    values = np.asarray(grid.values)
    if values.ndim == grid.dim + 1:  # vector field, leading component axis
        comps = [
            analyze(GridBuffer(grid.dim, grid.N, values[i]), rel)
            for i in range(values.shape[0])
        ]
        return SpectralField.from_components(comps)
    N = grid.N
    arr = np.fft.fftn(values) / N**grid.dim
    mags = np.abs(arr)
    scale = mags.max()
    if scale == 0.0:
        return SpectralField.zero(grid.dim, 0)
    idx = np.argwhere(mags > rel * scale)
    centered = ((idx + N // 2) % N) - N // 2
    coeffs = {
        tuple(int(c) for c in xi): complex(arr[tuple(i)])
        for xi, i in zip(centered, idx)
    }
    f = SpectralField(grid.dim, 0, coeffs)
    f.reality = bool(np.isrealobj(values)) or f.is_hermitian()
    return f


# -- products -------------------------------------------------------------


def _clusters(freqs: np.ndarray, cell: int = 64):
    """Partition frequencies into connected clusters of occupied coarse cells."""
    cells, cell_of = np.unique(freqs // cell, axis=0, return_inverse=True)
    uniq = [tuple(c) for c in cells.tolist()]  # sorted, so cluster order is stable
    comp = {}
    nxt = 0
    d = freqs.shape[1]
    # union of cells adjacent in Chebyshev distance <= 1 via BFS
    uniq_set = set(uniq)
    offsets = np.array(
        np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")
    ).reshape(d, -1).T.tolist()
    for c in uniq:
        if c in comp:
            continue
        stack = [c]
        comp[c] = nxt
        while stack:
            cur = stack.pop()
            for off in offsets:
                nb = tuple(x + o for x, o in zip(cur, off))
                if nb in uniq_set and nb not in comp:
                    comp[nb] = nxt
                    stack.append(nb)
        nxt += 1
    labels = np.array([comp[c] for c in uniq], dtype=np.int64)[cell_of.reshape(-1)]
    return [np.nonzero(labels == i)[0] for i in range(nxt)]


def _pair_convolve(ka, aa, kb, bb, keep):
    """Direct convolution of two coefficient lists by pair enumeration.

    ``ka``/``kb`` are packed product keys, ``bb`` holds one amplitude column
    per component and ``keep`` marks the rows each column uses.  The pair
    sums are enumerated and sorted once; each column then sums its own pairs
    per key.  Returns one ``(keys, amps)`` per column, None where no row is
    kept.
    """
    sums = (ka[:, None] + kb[None, :]).reshape(-1)
    order = np.argsort(sums, kind="stable")
    sums = sums[order]

    def column(col, rows):
        if not rows.any():
            return None
        # leaving a dropped row's pairs out of the stable key order makes
        # each key sum the same terms in the same order as if the row had
        # never been there
        used = slice(None) if rows.all() else rows[order % len(kb)]
        p = (aa[:, None] * col[None, :]).reshape(-1)[order[used]]
        s = sums[used]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(s)) + 1))
        return s[starts], np.add.reduceat(p, starts)

    # one column at a time, so one column's products are alive at once
    return [column(col, rows) for col, rows in zip(bb.T, keep.T)]


def _box_convolve(fa, aa, fb, ab, lo, strides):
    """FFT convolution on the dense bounding boxes of two clusters.

    Returns the packed keys (over ``lo``/``strides``) and amplitudes of the
    product entries above ``PRUNE_REL`` of the box maximum, or None when the
    product vanishes.
    """
    if len(fb) == 0:
        return None
    lo_a, hi_a = fa.min(axis=0), fa.max(axis=0)
    lo_b, hi_b = fb.min(axis=0), fb.max(axis=0)
    shape_a = tuple(int(h - l + 1) for l, h in zip(lo_a, hi_a))
    shape_b = tuple(int(h - l + 1) for l, h in zip(lo_b, hi_b))
    A = np.zeros(shape_a, dtype=complex)
    B = np.zeros(shape_b, dtype=complex)
    A[tuple((fa - lo_a).T)] = aa
    B[tuple((fb - lo_b).T)] = ab
    # full linear convolution: zero-pad both boxes to a fast length >= a+b-1
    shape = tuple(a + b - 1 for a, b in zip(shape_a, shape_b))
    fshape = [sp_fft.next_fast_len(n) for n in shape]
    C = sp_fft.ifftn(sp_fft.fftn(A, fshape) * sp_fft.fftn(B, fshape))
    C = C[tuple(slice(0, n) for n in shape)]
    mags = np.abs(C)
    scale = mags.max()
    if scale == 0.0:
        return None
    idx = np.argwhere(mags > PRUNE_REL * scale)
    return (idx + (lo_a + lo_b - lo)) @ strides, C[tuple(idx.T)]


def _sum_by_key(parts):
    """Sum ``(keys, amps)`` parts per key, in the order the parts come, and
    prune the sums at ``PRUNE_REL`` of the largest.

    Each key's terms are added left to right starting from -0.0, the exact
    additive identity, so every sum (signed zeros included) is bitwise the
    sequential sum of its terms.  Returns sorted unique keys and their sums.
    """
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
    keys = np.concatenate([k for k, _ in parts])
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.full(len(uniq), complex(-0.0, -0.0))
    np.add.at(sums, inv.reshape(-1), np.concatenate([a for _, a in parts]))
    keep = _above(np.hypot(sums.real, sums.imag))
    return uniq[keep], sums[keep]


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Exact product of two fields (convolution of coefficient maps).

    Supported ranks: scalar x scalar and scalar x vector (componentwise).
    Each vector component of g is pruned at ``PRUNE_REL`` of its own
    maximum before the product and each product component after it; a
    vector product is then pruned as a whole.

    Frequencies are packed into int64 keys over the product's bounding box.
    Every cluster pair (see :func:`_clusters`, taken on the whole support of
    each operand) yields ``(keys, amps)`` arrays for all components at once,
    and one accumulation per component sums them in cluster-pair order.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if f.rank == 1 and g.rank == 0:
        f, g = g, f
    if f.rank != 0:
        raise ValueError("vector x vector products are not defined here")
    if f.is_zero() or g.is_zero():
        return SpectralField.zero(f.dim, g.rank)
    ff, af = f.arrays()
    fg, ag = g.arrays()
    ag = ag.reshape(len(fg), -1)  # one amplitude column per component
    if g.rank == 0:
        keep = np.ones(ag.shape, dtype=bool)
    else:
        keep = _above(np.hypot(ag.real, ag.imag))
    # mixed-radix keys: lexicographic order of frequencies is numeric order
    # of keys, and the key of a + b is key_f(a) + key_g(b)
    lo_f, lo_g = ff.min(axis=0), fg.min(axis=0)
    span = (ff.max(axis=0) - lo_f) + (fg.max(axis=0) - lo_g) + 1
    if math.prod(span.tolist()) >= 2**63:
        raise SupportError("product support too wide for int64 frequency keys")
    strides = np.concatenate((np.cumprod(span[:0:-1])[::-1], [1]))
    lo = lo_f + lo_g
    kf, kg = (ff - lo_f) @ strides, (fg - lo_g) @ strides

    parts = [[] for _ in range(ag.shape[1])]  # per component, in pair order
    cl_g = _clusters(fg)
    for ia in _clusters(ff):
        for ib in cl_g:
            if len(ia) * len(ib) <= _DIRECT_PAIR_CAP:
                res = _pair_convolve(kf[ia], af[ia], kg[ib], ag[ib], keep[ib])
            else:
                res = [
                    _box_convolve(ff[ia], af[ia], fg[ib][rows], col[rows], lo, strides)
                    for col, rows in zip(ag[ib].T, keep[ib].T)
                ]
            for out, r in zip(parts, res):
                if r is not None:
                    out.append(r)

    comps = [_sum_by_key(out) for out in parts]
    keys = np.unique(np.concatenate([k for k, _ in comps]))
    amps = np.zeros((len(keys), len(comps)), dtype=complex)
    for i, (k, a) in enumerate(comps):
        amps[np.searchsorted(keys, k), i] = a
    if g.rank == 0:
        amps = amps[:, 0]
    elif len(keys):  # the prune of SpectralField.pruned
        mask = _above(np.abs(amps).max(axis=1))
        keys, amps = keys[mask], amps[mask]
    freqs = lo + (keys[:, None] // strides) % span
    coeffs = dict(zip(map(tuple, freqs.tolist()), amps))
    return SpectralField(f.dim, g.rank, coeffs, reality=f.reality and g.reality)


# -- calculus -------------------------------------------------------------


def mean_part(f: SpectralField):
    """Coefficient at the zero frequency."""
    return f.coefficient((0,) * f.dim)


def nonzero_part(f: SpectralField) -> SpectralField:
    coeffs = {xi: a for xi, a in f.coeffs.items() if any(c != 0 for c in xi)}
    return SpectralField(f.dim, f.rank, coeffs, reality=f.reality)


def gradient(f: SpectralField) -> SpectralField:
    """Componentwise multiplication by 2 pi i xi."""
    if f.rank != 0:
        raise ValueError("gradient of scalar fields only")
    coeffs = {
        xi: 2j * np.pi * np.asarray(xi, dtype=float) * a for xi, a in f.coeffs.items()
    }
    return SpectralField(f.dim, 1, coeffs, reality=f.reality).pruned()


def divergence(u: SpectralField) -> SpectralField:
    """Contraction of 2 pi i xi with the components of a vector field."""
    if u.rank != 1:
        raise ValueError("divergence of vector fields only")
    coeffs = {
        xi: 2j * np.pi * complex(np.dot(np.asarray(xi, dtype=float), a))
        for xi, a in u.coeffs.items()
    }
    return SpectralField(u.dim, 0, coeffs, reality=u.reality).pruned()


def divergence_defect(u: SpectralField) -> float:
    """How far a vector field is from divergence-free, relative to its
    gradient scale max 2 pi |xi| |u(xi)| (the size the divergence would have
    with no cancellation at all)."""
    if u.rank != 1:
        raise ValueError("divergence defect of vector fields only")
    if u.is_zero():
        return 0.0
    freqs, amps = u.arrays()
    freqs = freqs.astype(float)
    amps = np.max(np.abs(amps), axis=1)
    scale = 2.0 * np.pi * float(np.max(np.linalg.norm(freqs, axis=1) * amps))
    if scale == 0.0:
        return 0.0
    return divergence(u).max_amp() / scale


def fractional_laplacian(f: SpectralField, s: float) -> SpectralField:
    """Coefficientwise multiplication by |2 pi xi|^s.

    The zero mode is untouched for s >= 0 and removed for s < 0.
    """
    zero = (0,) * f.dim
    coeffs = {}
    for xi, a in f.coeffs.items():
        if xi == zero:
            # |2 pi 0|^s: kept for s = 0, annihilated for s > 0, dropped for s < 0
            if s == 0:
                coeffs[xi] = a
            continue
        mag = 2.0 * np.pi * math.sqrt(sum(c * c for c in xi))
        coeffs[xi] = mag**s * a
    return SpectralField(f.dim, f.rank, coeffs, reality=f.reality).pruned()


def low_pass(f: SpectralField, lam: float, kernel: ShellKernel) -> SpectralField:
    """Multiply coefficients by the low-pass bump evaluated at xi / lam."""
    if lam <= 0:
        raise ValueError("low-pass scale must be positive")
    if not f.coeffs:
        return f
    freqs = f.freq_array()
    w = kernel.lowpass_weight(freqs.astype(float), lam)
    keys = sorted(f.coeffs)
    coeffs = {}
    for key, wi in zip(keys, w):
        if wi > 0.0:
            coeffs[key] = wi * f.coeffs[key]
    return SpectralField(f.dim, f.rank, coeffs, reality=f.reality).pruned()


def shell_project(f: SpectralField, j: int, kernel: ShellKernel) -> SpectralField:
    """Restrict to the j-th dyadic shell via the smooth shell profile."""
    if not f.coeffs:
        return f
    freqs = f.freq_array()
    w = kernel.shell_weight(freqs.astype(float), j)
    if np.all(w == 1.0):
        return f  # the whole support sits on the shell plateau
    keys = sorted(f.coeffs)
    coeffs = {}
    for key, wi in zip(keys, w):
        if wi > 0.0:
            coeffs[key] = wi * f.coeffs[key]
    return SpectralField(f.dim, f.rank, coeffs, reality=f.reality).pruned()


# -- norms ----------------------------------------------------------------


def _quadrature_N(band: int, p: float, grid_budget: int) -> int:
    """Grid that dealiases |f|^p (|f| for the sup norm), capped by the budget."""
    factor = 4 if p == math.inf else 2 * int(math.ceil(p))
    return max(8, min(_next_pow2(factor * band + 1), grid_budget))


def lp_norms(f: SpectralField, ps, grid_budget: int = DEFAULT_GRID_BUDGET) -> dict:
    """L^p norms by grid quadrature, with estimated quadrature errors.

    Returns ``{p: (norm, err)}``.  Each p gets the grid that obeys the dealias
    rule for |f|^ceil(p) (|f| for p = inf) when that fits in the budget;
    otherwise the largest budget grid is used (the sampled values are still
    exact) and the error, the change from the half-resolution subgrid,
    reflects the unresolved quadrature.  The field is sampled once per
    distinct grid, and results are memoized on the field.
    """
    if not f.reality:
        raise ValueError("L^p norms are defined for real fields here")
    if f.is_zero():
        return {p: (0.0, 0.0) for p in ps}
    if f.rank == 1:
        raise ValueError("scalar fields only")
    if any(p < 1 for p in ps):
        raise ValueError("p must be >= 1")
    band = int(np.max(f.max_axis_freq()))
    grids = {p: _quadrature_N(band, p, grid_budget) for p in ps}
    todo = {}  # N -> exponents not yet memoized at N
    for p, N in grids.items():
        if (p, N) not in f._norms:
            todo.setdefault(N, []).append(p)
    sub = (slice(None, None, 2),) * f.dim  # the half-resolution subgrid
    for N, grid_ps in todo.items():
        vals = np.abs(sample(f, N))
        for p in grid_ps:
            if p == math.inf:
                fine = float(np.max(vals))
                coarse = float(np.max(vals[sub]))
            else:
                pw = vals**p
                fine = float(np.mean(pw)) ** (1.0 / p)
                coarse = float(np.mean(pw[sub])) ** (1.0 / p)
            f._norms[(p, N)] = (fine, abs(fine - coarse))
    return {p: f._norms[(p, N)] for p, N in grids.items()}


def lp_norm_detailed(f: SpectralField, p: float, grid_budget: int = DEFAULT_GRID_BUDGET):
    """L^p norm and its estimated quadrature error; see :func:`lp_norms`."""
    return lp_norms(f, (p,), grid_budget)[p]


def lp_norm(f: SpectralField, p: float, grid_budget: int = DEFAULT_GRID_BUDGET) -> float:
    return lp_norm_detailed(f, p, grid_budget)[0]


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm (sum over xi != 0 of |xi|^{2s} |f(xi)|^2)^{1/2}.

    Uses the bare Euclidean |xi| without 2 pi factors, matching the space's
    definition (the fractional Laplacian, by contrast, uses |2 pi xi|).
    """
    if not f.coeffs:
        return 0.0
    freqs, amps = f.arrays()
    freqs = freqs.astype(float)
    mag2 = np.sum(freqs * freqs, axis=1)
    keep = mag2 > 0
    if f.rank == 0:
        amp2 = np.abs(amps) ** 2
    else:
        amp2 = np.sum(np.abs(amps) ** 2, axis=1)
    total = float(np.sum(mag2[keep] ** s * amp2[keep]))
    return math.sqrt(total)


def besov_norm(
    f: SpectralField,
    alpha: float,
    kernel: ShellKernel,
    grid_budget: int = DEFAULT_GRID_BUDGET,
) -> float:
    """Homogeneous Besov (infinity, infinity) norm: sup_j 2^{j alpha} ||P_j f||_inf.

    Only shells intersecting the support are evaluated.
    """
    if f.is_zero():
        return 0.0
    freqs = f.freq_array().astype(float)
    mags = np.linalg.norm(freqs, axis=1)
    mags = mags[mags > 0]
    if len(mags) == 0:
        return 0.0
    j_lo = max(0, int(math.floor(math.log2(mags.min() / 2.0))))
    j_hi = int(math.ceil(math.log2(mags.max() / (6.0 / 7.0)))) + 1
    best = 0.0
    for j in range(j_lo, j_hi + 1):
        pj = shell_project(f, j, kernel)
        if pj.is_zero():
            continue
        val = 2.0 ** (j * alpha) * lp_norm(pj, math.inf, grid_budget)
        best = max(best, val)
    return best


# -- snapshots ------------------------------------------------------------

SNAPSHOT_VERSION = 1


def field_to_snapshot(f: SpectralField) -> dict:
    entries = []
    for xi in sorted(f.coeffs):
        a = f.coeffs[xi]
        if f.rank == 0:
            entries.append(list(xi) + [float(np.real(a)), float(np.imag(a))])
        else:
            row = list(xi)
            for c in np.asarray(a):
                row += [float(np.real(c)), float(np.imag(c))]
            entries.append(row)
    return {
        "version": SNAPSHOT_VERSION,
        "d": f.dim,
        "rank": f.rank,
        "reality": f.reality,
        "entries": entries,
    }


def field_from_snapshot(data: dict) -> SpectralField:
    if data.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {data.get('version')!r}")
    d = int(data["d"])
    rank = int(data["rank"])
    coeffs = {}
    for row in data["entries"]:
        xi = tuple(int(c) for c in row[:d])
        rest = row[d:]
        if rank == 0:
            coeffs[xi] = complex(rest[0], rest[1])
        else:
            coeffs[xi] = np.array(
                [complex(rest[2 * i], rest[2 * i + 1]) for i in range(d)],
                dtype=complex,
            )
    return SpectralField(d, rank, coeffs, reality=bool(data["reality"]))


def save_snapshot(f: SpectralField, path) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_snapshot(f), fh, sort_keys=True)


def load_snapshot(path) -> SpectralField:
    with open(path) as fh:
        return field_from_snapshot(json.load(fh))
