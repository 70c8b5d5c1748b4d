"""Sparse spectral fields on the torus T^d = [0,1]^d with exact frequency
bookkeeping.

A field is a real function, so its spectrum is Hermitian, f(-xi) = conj
f(xi), and a field stores only its half spectrum: the origin, real, and the
frequencies lexicographically above 0, as an (K, d) int64 array in
lexicographic order and the nonzero amplitudes in the same order, both
read-only.  Every operation works on these arrays and returns a new field;
sums over the spectrum count each coefficient off the origin twice.  Scalar
filters (radius cuts, the low-pass and shell profiles, fractional
Laplacians, dropping the mean) go through one coefficientwise weighting,
:meth:`SpectralField.weighted`; maps that change the rank (``gradient``,
``divergence``, the drift ``apply_T`` and the Gamma-row contraction in
``amplitudes``) form their amplitude arrays directly.  Dense arrays appear
only in large products (cluster boxes) and in ``_analyze_rows``' box.

Grids are streamed in row blocks instead.  ``_sample_plan`` runs a field's
inverse DFT along axis 0 only on the lines that hold a coefficient, and
``_sample_block`` finishes it a few rows at a time, into buffers its caller
passes, so the components of a vector field share one set; ``lp_norms``
reduces each row block as it comes, to one sum per grid row, and one
``math.fsum`` combines the rows, so no value depends on the block size.
The adjoint ``_analyze_rows`` takes row blocks of samples through the
forward DFT, pruned to a box |xi_i| <= K: it holds only the box's half
spectrum, N (2K+1)^(d-2) (K+1) coefficients, the largest array of the
amplitudes' grid round trip, and counts the mass outside the box by
Parseval, per grid row too.  ``sample`` and ``analyze`` wrap the two for a
whole real grid.  Their real-FFT half lies along the last axis, not the
lexicographic one.

Products are exact convolutions.  The engine packs frequencies into int64
keys, splits the whole spectrum of each operand into frequency clusters that
come in mirror pairs and, for one cluster pair per mirror orbit {(A, B),
(-A, -B)}, either enumerates coefficient pairs directly or runs an FFT
convolution on the cluster bounding boxes; both paths agree to roundoff.
One accumulation per vector component sums the pairs' results and their
mirrors' at the origin and the upper half of the keys, in cluster-pair
order.  A snapshot is the stored arrays.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .kernels import ShellKernel

__all__ = [
    "SpectralField",
    "SupportError",
    "sample",
    "analyze",
    "multiply",
    "divergence_defect",
    "pairing",
    "Quadrature",
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
]

PRUNE_REL = 1e-15
DEFAULT_GRID_BUDGET = 8192
# direct pair enumeration is used for cluster pairs below this many pairs
_DIRECT_PAIR_CAP = 1 << 21
# grid points per row block of the streamed grid sweeps (_sample_buffers).
# A block's complex scratch, accumulator and power buffer, 0.13 MB each at
# 2^14 points, sit on top of a small run's resident data: against 2^15 and
# 2^16 points, 2^14 lowered the peak RSS of the two 2-D benchmark configs
# by 0.3-0.5 and 0.7-1.3 MB.  _sample_buffers floors a block at N / 1024
# rows: 2-row blocks at N = 8192 slowed the default run by about 8%.
_BLOCK_POINTS = 1 << 14


class SupportError(ValueError):
    """Raised when a grid cannot hold a field or product without aliasing."""


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n) - 1).bit_length()


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n: a length the FFT factors fast."""
    while True:
        r = n
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _above(mags, rel=PRUNE_REL):
    """Mask of magnitudes above ``rel`` times their maximum along axis 0."""
    return mags > rel * mags.max(axis=0)


def _strides(span):
    """Mixed-radix strides over a box of the given per-axis ``span``: the
    key (xi - lo) @ strides orders frequencies lexicographically."""
    if math.prod(span.tolist()) >= 2**63:
        raise SupportError("frequency box too wide for int64 keys")
    return np.concatenate((np.cumprod(span[:0:-1])[::-1], [1]))


def _unique_keys(keys):
    """Distinct entries of ``keys`` in ascending order and the index of each
    input entry among them: the values of a 1-D array, or the rows of a 2-D
    one in lexicographic order.  This is ``np.unique(keys, axis=0,
    return_inverse=True)`` without the ``numpy.ma`` import that costs; the
    inverse does not depend on how the sort orders ties."""
    order = np.argsort(keys) if keys.ndim == 1 else np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    ne = keys[1:] != keys[:-1]
    new[1:] = ne if ne.ndim == 1 else ne.any(axis=1)
    inv = np.empty(len(keys), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return keys[new], inv


def _upper(freqs):
    """Mask of the rows of a half spectrum: the origin and the frequencies
    lexicographically above 0, whose first nonzero entry is positive."""
    return freqs[np.arange(len(freqs)), (freqs != 0).argmax(axis=1)] >= 0


class SpectralField:
    """Real field: a finite map from lattice frequencies to complex
    amplitudes with a Hermitian spectrum, f(-xi) = conj f(xi).

    ``freqs`` holds the stored frequencies, the origin first if nonzero and
    then those lexicographically above 0, an (K, d) int64 array in
    lexicographic order without repeats; ``amps`` the amplitudes in the same
    order, shape (K,) for a scalar field (``rank`` 0) and (K, d) for a
    vector field (``rank`` 1), with a real origin.  The lower half is never
    stored: :meth:`coefficient` and :attr:`coeffs` read it as the conjugate
    mirror, and :meth:`_full` builds the whole spectrum.  Both arrays are
    read-only, so a field never changes after construction and every
    operation returns a new one.  That is what lets ``_norms`` memoize grid
    quadrature results, keyed by ``(p, N)`` with p = inf for the sup norm.

    :meth:`from_entries`, the builders over it, ``multiply`` and ``analyze``
    keep the origin and upper half of the entries they take or compute
    (:meth:`_half`); every other operation maps the half to the half.  The
    raw constructor trusts its caller.
    """

    __slots__ = ("dim", "rank", "freqs", "amps", "_max_freq", "_norms")

    def __init__(self, dim, rank, freqs, amps):
        """Wrap sorted, repeat-free arrays as given; :meth:`from_entries`
        takes raw entries."""
        self.dim = int(dim)
        self.rank = int(rank)
        self.freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, self.dim)
        self.amps = np.asarray(amps, dtype=complex).reshape((-1,) + (self.dim,) * self.rank)
        self.freqs.flags.writeable = False
        self.amps.flags.writeable = False
        self._max_freq = None
        self._norms = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def _summed(cls, dim, rank, freqs, amps):
        """Field of raw entries in any order, repeated frequencies summed in
        entry order, pruned."""
        freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, dim)
        amps = np.asarray(amps, dtype=complex).reshape((len(freqs),) + (dim,) * rank)
        uniq, inv = _unique_keys(freqs)
        # -0.0 is the exact additive identity: a lone entry is kept bitwise
        sums = np.full((len(uniq),) + amps.shape[1:], complex(-0.0, -0.0))
        np.add.at(sums, inv, amps)
        return cls(dim, rank, uniq, sums).pruned()

    @classmethod
    def from_entries(cls, dim, rank, freqs, amps):
        """Field of raw entries as in :meth:`_summed`; ValueError unless they
        form a Hermitian spectrum (:meth:`is_hermitian`).  Their origin and
        upper half are then kept (:meth:`_half`)."""
        f = cls._summed(dim, rank, freqs, amps)
        if not f.is_hermitian():
            raise ValueError("entries do not form a Hermitian spectrum")
        return f._half()

    def _half(self):
        """The field of the arrays' origin, made real, and upper half."""
        keep = _upper(self.freqs)
        freqs, amps = self.freqs[keep], self.amps[keep]
        at0 = ~freqs.any(axis=1)
        amps[at0] = np.where(amps[at0].imag == 0, amps[at0], amps[at0].real)
        return SpectralField(self.dim, self.rank, freqs, amps)

    def _full(self):
        """``(freqs, amps)`` of the whole spectrum in lexicographic order: the
        upper half's conjugate mirror, then the stored rows."""
        start = int(len(self) > 0 and not self.freqs[0].any())  # past the origin
        up_f, up_a = self.freqs[start:], self.amps[start:]
        return np.concatenate((-up_f[::-1], self.freqs)), np.concatenate((up_a[::-1].conj(), self.amps))

    @classmethod
    def scalar(cls, dim, entries):
        return cls.from_entries(dim, 0, list(entries), list(entries.values()))

    @classmethod
    def vector(cls, dim, entries):
        return cls.from_entries(dim, 1, list(entries), list(entries.values()))

    @classmethod
    def zero(cls, dim, rank=0):
        return cls(dim, rank, (), ())

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        """The number of stored coefficients."""
        return len(self.freqs)

    def is_zero(self):
        return not len(self.freqs)

    @property
    def coeffs(self):
        """Read-only ``{frequency tuple: amplitude}`` view of the whole
        spectrum, built on each access."""
        freqs, amps = self._full()
        return MappingProxyType(dict(zip(map(tuple, freqs.tolist()), amps)))

    def component(self, i):
        return SpectralField(self.dim, 0, self.freqs, self.amps[:, i]).pruned()

    def radii(self):
        """Euclidean |xi| of each stored frequency."""
        return np.sqrt((self.freqs * self.freqs).sum(axis=1))

    @property
    def max_freq(self):
        """Largest Euclidean frequency magnitude in the support."""
        if self._max_freq is None:
            self._max_freq = float(self.radii().max(initial=0.0))
        return self._max_freq

    def max_axis_freq(self):
        """Per-axis maximum |xi_i|; zero vector for the empty field."""
        return np.abs(self.freqs).max(axis=0, initial=0)

    def _magnitudes(self):
        """|a| per stored coefficient; max over components for vectors.

        Scalars use np.hypot: np.abs of a complex array may take a SIMD path
        that differs from the scalar abs in the last bit.
        """
        if self.rank == 0:
            return np.hypot(self.amps.real, self.amps.imag)
        return np.abs(self.amps).max(axis=1)

    def max_amp(self):
        return float(self._magnitudes().max(initial=0.0))

    def masses(self):
        """|f(xi)|^2 (summed over components) per stored coefficient, twice
        off the origin for its mirror: they sum to the squared L^2 norm."""
        amp2 = np.abs(self.amps) ** 2
        if self.rank:
            amp2 = amp2.sum(axis=1)
        return np.where(self.freqs.any(axis=1), 2.0, 1.0) * amp2

    def is_half(self):
        """Whether the arrays hold only a real origin and upper-half rows."""
        at0 = ~self.freqs.any(axis=1)
        return bool(_upper(self.freqs).all() and np.all(self.amps[at0].imag == 0))

    def is_hermitian(self, rtol=1e-13):
        """Check raw entries: f(-xi) == conj(f(xi)) to ``rtol`` times the
        largest amplitude; an absent partner counts as amplitude 0."""
        partner = np.zeros_like(self.amps)
        at = self.find(-self.freqs)
        partner[at >= 0] = self.amps[at[at >= 0]]
        gap = np.abs(self.amps - partner.conj())
        if self.rank:
            gap = gap.max(axis=1)
        return bool(np.all(gap <= rtol * self.max_amp()))

    # -- arithmetic -------------------------------------------------------

    def pruned(self, rel=PRUNE_REL):
        if self.is_zero():
            return self
        keep = _above(self._magnitudes(), rel)
        return SpectralField(self.dim, self.rank, self.freqs[keep], self.amps[keep])

    def weighted(self, w):
        """Coefficientwise product with real weights ``w``, one per stored
        coefficient in storage order: weight-0 coefficients are dropped and
        the rest pruned.  A boolean ``w`` restricts instead: it keeps the
        coefficients where it is True, exactly as stored."""
        keep = w != 0
        freqs, amps = self.freqs[keep], self.amps[keep]
        if w.dtype == bool:
            return SpectralField(self.dim, self.rank, freqs, amps)
        w = w[keep].reshape((-1,) + (1,) * self.rank)
        return SpectralField(self.dim, self.rank, freqs, w * amps).pruned()

    def scaled(self, c: float):
        return SpectralField(self.dim, self.rank, self.freqs, float(c) * self.amps)

    def __add__(self, other):
        if not isinstance(other, SpectralField):
            return NotImplemented
        if other.dim != self.dim or other.rank != self.rank:
            raise ValueError("incompatible fields")
        freqs, amps = np.concatenate((self.freqs, other.freqs)), np.concatenate((self.amps, other.amps))
        return SpectralField._summed(self.dim, self.rank, freqs, amps)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def modulated(self, shift):
        """Product with 2 cos(2 pi shift . x): the whole spectrum translated
        by +shift plus by -shift, summed in that order.  The sums at xi and
        -xi are conjugates of equal size, so the prune keeps mirror pairs."""
        freqs, amps = self._full()
        freqs, amps = np.concatenate((freqs + shift, freqs - shift)), np.concatenate((amps, amps))
        return SpectralField._summed(self.dim, self.rank, freqs, amps)._half()

    def find(self, queries):
        """Index of each frequency row of ``queries`` in the storage, -1
        where the field holds no coefficient."""
        queries = np.asarray(queries, dtype=np.int64).reshape(-1, self.dim)
        if self.is_zero() or not len(queries):
            return np.full(len(queries), -1)
        lo = np.minimum(self.freqs.min(axis=0), queries.min(axis=0))
        hi = np.maximum(self.freqs.max(axis=0), queries.max(axis=0))
        strides = _strides(hi - lo + 1)
        keys, want = (self.freqs - lo) @ strides, (queries - lo) @ strides
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[at] == want, at, -1)

    def coefficient(self, xi):
        """f(xi) at any frequency: the conjugate of the stored f(-xi) below 0."""
        xi = np.asarray(xi, dtype=np.int64).reshape(1, self.dim)
        below = not _upper(xi)[0]
        at = self.find(-xi if below else xi)[0]
        if at < 0:
            return 0.0 + 0.0j if self.rank == 0 else np.zeros(self.dim, dtype=complex)
        return self.amps[at].conj() if below else self.amps[at]


# -- sampling and analysis ------------------------------------------------


def _sample_plan(field: SpectralField, N: int):
    """The per-field part of the streamed inverse DFT of a scalar field on
    the N^d grid: ``(occupied, lines)``, the later-axis indices that hold a
    coefficient and the axis-0 inverse DFT along each of them, an (N,
    #occupied) array.  :func:`_sample_block` finishes it a row block at a
    time.

    The transform runs in numpy's ``irfftn`` order: axis 0 first, then the
    later axes, the last one by ``irfft`` over the half spectrum.  Axis 0 is
    transformed only along the lines that hold a coefficient, in place, so
    that a plan holds one (N, #occupied) array, not two: at stage 2 of the
    default run each is 27.5 MB.  Every line goes through the same 1-D
    transform as in ``irfftn``, so the samples are
    bitwise ``irfftn(half) * N^d`` for power-of-two N.  Grids serve d >= 2:
    no run has d = 1, where the only divergence-free symbol, 0, is odd.  The
    half spectrum is cut from :meth:`SpectralField._full`, since the
    self-conjugate planes take both.
    """
    if field.rank != 0:
        raise ValueError("scalar fields only")
    d = field.dim
    if d < 2:
        raise ValueError(f"grids serve d >= 2, not d = {d}")
    last = N // 2 + 1
    freqs, amps = field._full()
    freqs = freqs % N
    keep = freqs[:, -1] < last  # the dropped half holds the conjugates of the kept one
    freqs, amps = freqs[keep], amps[keep]
    tail = (N,) * (d - 2) + (last,)  # the later axes, as the transform reads them
    occupied, col = _unique_keys(np.ravel_multi_index(tuple(freqs[:, 1:].T), tail))
    lines = np.zeros((N, len(occupied)), dtype=complex)
    np.add.at(lines, (freqs[:, 0], col), amps)
    return occupied, np.fft.ifft(lines, axis=0, norm="forward", out=lines)


def _sample_buffers(d: int, N: int, blocks: int):
    """``(spec, outs)``: the zeroed complex scratch of :func:`_sample_block`
    and ``blocks`` real output blocks, for row blocks of about
    ``_BLOCK_POINTS`` points, of at least two and at least N / 1024 rows, so
    that a pass takes at most about 1024 blocks, and of an even row count,
    so that every block starts at an even row."""
    rows = min(N, max(2, N // 1024, _BLOCK_POINTS // N ** (d - 1)) // 2 * 2)
    spec = np.zeros((rows, N ** (d - 2) * (N // 2 + 1)), dtype=complex)
    return spec, [np.empty((rows,) + (N,) * (d - 1)) for _ in range(blocks)]


def _shared_columns(plans):
    """The plans over the union of their occupied columns, zero where a plan
    has none, so that they may take turns on one ``spec``."""
    union = _unique_keys(np.concatenate([occupied for occupied, _ in plans]))[0]
    wide = []
    for occupied, lines in plans:
        spread = np.zeros((len(lines), len(union)), dtype=complex)
        spread[:, np.searchsorted(union, occupied)] = lines
        wide.append((union, spread))
    return wide


def _sample_block(plan, i: int, spec, out):
    """Write the samples of grid rows i, i+1, ... into ``out``, one block of
    :func:`_sample_buffers`, cut to the rows left, and return it.  The rows
    of the ``plan``'s lines are scattered into ``spec``, whose later axes
    are then transformed in place, the last one into ``out``.  ``spec`` must
    be zero outside the plan's occupied columns: plans that take turns on
    one ``spec`` share their columns (:func:`_shared_columns`)."""
    occupied, lines = plan
    n, N = len(out), out.shape[-1]
    if out.ndim > 2:  # the last block's middle-axis transforms filled every column
        spec[:n] = 0
    spec[:n, occupied] = lines[i : i + n]
    block = spec[:n].reshape((n,) + out.shape[1:-1] + (N // 2 + 1,))
    for ax in range(1, out.ndim - 1):
        np.fft.ifft(block, axis=ax, norm="forward", out=block)
    np.fft.irfft(block, N, axis=-1, norm="forward", out=out)
    return out


def _sample_rows(field: SpectralField, N: int):
    """Yield ``(i, block)``: the samples of grid rows i, i+1, ... (axis 0) of
    one scalar field, a row block at a time (:func:`_sample_plan`).  Every
    block is a view of one buffer, overwritten by the next block."""
    plan = _sample_plan(field, N)
    spec, (out,) = _sample_buffers(field.dim, N, 1)
    for i in range(0, N, len(out)):
        yield i, _sample_block(plan, i, spec, out[: N - i])


def sample(field: SpectralField, N: int) -> np.ndarray:
    """Exact samples of a scalar field at the N^d grid points, shape (N,)*d,
    for callers that need the whole grid; no step of a run does: the norms
    and ``amplitudes`` stream row blocks instead (:func:`_sample_block`).

    Wrapping frequencies mod N leaves grid-point values exact because
    e^{2 pi i xi j / N} only depends on xi mod N; only coefficient recovery
    requires an unaliased grid.
    """
    out = np.empty((N,) * field.dim)
    for i, block in _sample_rows(field, N):
        out[i : i + len(block)] = block
    return out


def _row_masses(x, weight):
    """Per axis-0 index i, the sum of weight[c] |x[i, ..., c]|^2, for ``x``
    whose last axis is contiguous: a function of row i alone.  One einsum
    over the (re, im) pairs needs no temporary array and no BLAS call:
    ``np.vdot`` raised a run's peak RSS by about 0.1 MB."""
    pairs = x.view(np.float64)
    axes = "bcdefgh"[: x.ndim - 2]  # einsum sums no ellipsis axes away
    return np.einsum(f"a{axes}z,a{axes}z,z->a", pairs, pairs, np.repeat(weight, 2))


def _analyze_rows(dim: int, N: int, K: int, blocks, rel=PRUNE_REL) -> tuple:
    """The adjoint of :func:`_sample_rows`, pruned to the box |xi_i| <= K:
    recover the coefficients there of a real scalar field from its samples
    at x = j/N, j in {0..N-1}^d, given as ``(i, block)`` row blocks that
    cover axis 0 once, in order.  0 <= K <= N // 2, and K = N // 2 keeps the
    whole spectrum.

    Returns ``(field, outside)``: the field of the box's coefficients and the
    squared L^2 mass of the spectrum outside the box, sum |f(xi)|^2 there,
    by Parseval.  Only the box's half, last index 0..K, is held: N rows of
    (2K+1)^(d-2) (K+1) coefficients.  A block goes through ``rfft`` along
    the last axis a few rows at a time (about ``_BLOCK_POINTS / 8`` outputs,
    so no whole-width spectrum of a block exists) and keeps columns 0..K,
    then through each middle axis, keeping its |xi_i| <= K rows; axis 0 is
    transformed in place once every row is in, and its |xi_0| <= K rows are
    read.  These are ``rfftn``'s passes, and every kept line goes through
    the same 1-D transform, so the kept coefficients are bitwise
    ``rfftn``'s.  Each pass records the |.|^2 of the columns or rows it
    drops, twice off the self-conjugate planes (last index 0 and N/2), which
    stand for their mirrors too, as one mass per axis-0 index, and one
    ``math.fsum`` of them all is ``outside``: it does not depend on how the
    rows come in blocks.  The prune scale is the largest kept magnitude:
    the whole spectrum's for a positive field, whose largest coefficient is
    its mean, at the origin.  It and the kept indices are taken a slab of
    rows at a time, so no magnitude array of the box exists.

    Each kept coefficient with 0 < last index < N/2 also stands at -xi as
    its exact conjugate.  With K = N // 2 and even N, the spectrum is
    Hermitian once each coefficient on a Nyquist line (-N/2 on some axis)
    is split evenly over -N/2 and +N/2 on that axis; the N-grid samples stay
    the same.  The self-conjugate planes hold both halves only up to
    roundoff, and the origin and the upper half of the result are kept
    (:meth:`SpectralField._half`).
    """
    at = np.arange(N)
    keep = at[np.minimum(at, N - at) <= K]  # the indices of |xi_i| <= K on an axis
    cut = slice(K + 1, N - K)  # the others, none for K = N // 2
    weight = np.where((at == 0) | (2 * at == N), 1.0, 2.0)[: N // 2 + 1]
    box = np.empty((N,) + (len(keep),) * (dim - 2) + (K + 1,), dtype=complex)
    rows = max(1, _BLOCK_POINTS // 8 // (N ** (dim - 2) * (N // 2 + 1)))  # per rfft call
    dropped = np.zeros((dim, N))  # per pass, the mass each row drops outside the box
    for i, block in blocks:
        for r in range(0, len(block), rows):
            chunk = block[r : r + rows]
            at = slice(i + r, i + r + len(chunk))  # its grid rows
            part = np.fft.rfft(chunk, axis=-1)
            dropped[-1, at] = _row_masses(part[..., K + 1 :], weight[K + 1 :]) / N ** (dim + 1)
            part = part[..., : K + 1]
            for ax in reversed(range(1, dim - 1)):
                part = np.fft.fft(part, axis=ax)
                dropped[ax, at] = _row_masses(part[(slice(None),) * ax + (cut,)], weight[: K + 1]) / N ** (2 * dim - ax)
                part = part.take(keep, axis=ax)
            box[at] = part
    np.fft.fft(box, axis=0, out=box)
    dropped[0, cut] = _row_masses(box[cut], weight[: K + 1]) / N ** (2 * dim)
    outside = math.fsum(dropped.ravel())
    step = max(1, _BLOCK_POINTS // (box.size // N))
    spans = ((0, K + 1), (max(K + 1, N - K), N))  # the kept rows of axis 0
    slabs = [(j, box[j : min(j + step, hi)]) for lo, hi in spans for j in range(lo, hi, step)]
    for _, slab in slabs:
        slab /= N**dim
    scale = max(float(np.abs(slab).max()) for _, slab in slabs)
    if scale == 0.0:
        return SpectralField.zero(dim, 0), outside
    idx, amps = [], []
    for j, slab in slabs:
        hits = np.argwhere(np.abs(slab) > rel * scale)
        amps.append(slab[tuple(hits.T)])
        hits[:, 0] += j
        idx.append(hits)
    idx, amps = np.concatenate(idx), np.concatenate(amps)
    idx[:, 1:-1] = keep[idx[:, 1:-1]]  # box positions of the middle axes to grid indices
    mirrored = (idx[:, -1] > 0) & (2 * idx[:, -1] < N)
    idx = np.concatenate((idx, -idx[mirrored] % N))
    amps = np.concatenate((amps, amps[mirrored].conj()))
    centered = ((idx + N // 2) % N) - N // 2
    for ax in range(dim if N % 2 == 0 else 0):
        on = centered[:, ax] == -N // 2
        if on.any():
            split = amps[on] / 2
            amps = np.concatenate((np.where(on, amps / 2, amps), split))
            mirror = centered[on]
            mirror[:, ax] = N // 2
            centered = np.concatenate((centered, mirror))
    half = _upper(centered)
    return SpectralField._summed(dim, 0, centered[half], amps[half])._half(), outside


def analyze(values: np.ndarray, rel=PRUNE_REL) -> SpectralField:
    """Recover the sparse coefficient map of a real scalar field from its
    samples at x = j/N, j in {0..N-1}^d: a real (N,)*d array, fed to
    :func:`_analyze_rows` in row blocks of about ``_BLOCK_POINTS`` points,
    with the box of the whole spectrum.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError("only real grids are analyzed")
    dim = values.ndim
    if dim < 2:
        raise ValueError(f"grids serve d >= 2, not d = {dim}")
    N = values.shape[0]
    if values.shape != (N,) * dim:
        raise ValueError(f"samples of shape {values.shape} are not one scalar N^d grid")
    values = values.astype(float, copy=False)
    rows = max(1, _BLOCK_POINTS // values[0].size)
    return _analyze_rows(dim, N, N // 2, ((i, values[i : i + rows]) for i in range(0, N, rows)), rel)[0]


# -- products -------------------------------------------------------------


def _clusters(freqs: np.ndarray, cell: int = 64):
    """Partition frequencies into connected clusters of occupied coarse
    cells, cells being adjacent when their Chebyshev distance is at most 1.

    A frequency's cell is each coordinate rounded to the nearest multiple of
    ``cell``, halves away from 0, so the cell of -xi is minus the cell of xi
    and the mirror of a cluster of a symmetric support is a cluster too.
    Clusters come in the lexicographic order of their first cell, each an
    ascending array of indices into ``freqs``.  The cells are labelled with
    array operations: neighbours are found by searching the packed cell keys
    at the 3^d offsets, and min-label propagation with pointer jumping
    leaves every cell labelled by the first cell of its cluster.
    """
    d = freqs.shape[1]
    cells = np.sign(freqs) * ((np.abs(freqs) + cell // 2) // cell)
    cells, cell_of = _unique_keys(cells)  # lexicographic: ascending keys
    lo = cells.min(axis=0) - 1
    strides = _strides(cells.max(axis=0) - lo + 2)  # a step of +-1 stays in the box
    keys = (cells - lo) @ strides
    offsets = np.array(np.meshgrid(*([[-1, 0, 1]] * d), indexing="ij")).reshape(d, -1).T
    want = keys[:, None] + offsets @ strides
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    src, hit = np.nonzero(keys[at] == want)
    nbr = at[src, hit]
    # labels only fall and always name a cell of the same cluster, so they
    # settle on its first cell
    label = np.arange(len(keys))
    while True:
        low = label.copy()
        np.minimum.at(low, src, label[nbr])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    first = label == np.arange(len(keys))
    comp = (np.cumsum(first) - 1)[label][cell_of]
    members = np.argsort(comp, kind="stable")
    return np.split(members, np.cumsum(np.bincount(comp))[:-1])


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


def _box_convolve(fa, aa, fb, bb, keep, lo, strides):
    """FFT convolution on the dense bounding boxes of two clusters.

    ``bb`` holds one amplitude column per component and ``keep`` marks the
    rows each column uses; every column is placed on the box of all of
    ``fb`` (dropped rows zero), so one transform of the ``fa`` box serves
    them all.  Returns, per column, the packed keys (over ``lo``/``strides``)
    and amplitudes of the product entries above ``PRUNE_REL`` of that
    column's box maximum, or None when the column's product vanishes.
    """
    lo_a, hi_a = fa.min(axis=0), fa.max(axis=0)
    lo_b, hi_b = fb.min(axis=0), fb.max(axis=0)
    shape_a = tuple(int(h - l + 1) for l, h in zip(lo_a, hi_a))
    shape_b = tuple(int(h - l + 1) for l, h in zip(lo_b, hi_b))
    A = np.zeros(shape_a, dtype=complex)
    A[tuple((fa - lo_a).T)] = aa
    pos_b = tuple((fb - lo_b).T)
    # full linear convolution: zero-pad both boxes to a fast length >= a+b-1
    shape = tuple(a + b - 1 for a, b in zip(shape_a, shape_b))
    # numpy transforms the last listed axis first; listing the axes in
    # reverse runs the strided passes before the padding has grown the box
    axes = tuple(range(len(shape)))[::-1]
    fshape = [_fast_len(shape[ax]) for ax in axes]
    FA = np.fft.fftn(A, fshape, axes=axes)

    def column(col, rows):
        if not rows.any():
            return None
        B = np.zeros(shape_b, dtype=complex)
        B[pos_b] = np.where(rows, col, 0.0)
        C = np.fft.ifftn(FA * np.fft.fftn(B, fshape, axes=axes), axes=axes)
        C = C[tuple(slice(0, n) for n in shape)]
        mags = np.abs(C)
        scale = mags.max()
        if scale == 0.0:
            return None
        idx = np.argwhere(mags > PRUNE_REL * scale)
        return (idx + (lo_a + lo_b - lo)) @ strides, C[tuple(idx.T)]

    # one column at a time, so one column's grids are alive at once
    return [column(col, rows) for col, rows in zip(bb.T, keep.T)]


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
    uniq, inv = _unique_keys(keys)
    sums = np.full(len(uniq), complex(-0.0, -0.0))
    np.add.at(sums, inv, np.concatenate([a for _, a in parts]))
    keep = _above(np.hypot(sums.real, sums.imag))
    return uniq[keep], sums[keep]


def _mirrors(clusters, n):
    """Index of each cluster's mirror cluster, for the clusters of n sorted
    frequencies whose support is symmetric about 0, on which entry i is the
    mirror of entry n-1-i."""
    label = np.empty(n, dtype=np.intp)
    for c, members in enumerate(clusters):
        label[members] = c
    return label[[n - 1 - members[0] for members in clusters]].tolist()


def _upper_part(keys, amps, top, self_mirror):
    """The entries a cluster pair and its mirror pair give at the keys >=
    top/2, the origin and the upper half of a symmetric product box, where
    key(-xi) = top - key(xi): the pair's own there, then, unless the pair is
    its own mirror, its mirror pair's, the conjugates of the pair's entries
    at the keys <= top/2."""
    up = keys >= top // 2
    if self_mirror:
        return keys[up], amps[up]
    down = keys <= top // 2
    return np.concatenate((keys[up], top - keys[down])), np.concatenate((amps[up], amps[down].conj()))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Exact product of two fields (convolution of coefficient maps).

    Supported ranks: scalar x scalar and scalar x vector (componentwise).
    Each vector component of g is pruned at ``PRUNE_REL`` of its own
    maximum before the product and each product component after it; a
    vector product is then pruned as a whole.

    Frequencies are packed into int64 keys over the product's bounding box.
    The operands' whole spectra (:meth:`SpectralField._full`) are symmetric
    about 0, so the box is too, and their clusters (see :func:`_clusters`)
    come in mirror pairs.  Cluster pair (-A, -B) gives the conjugates of pair
    (A, B) at the negated keys, so one pair per mirror orbit is computed,
    and its ``(keys, amps)`` arrays and its mirror's at the origin and the
    upper half of the keys are summed, in cluster-pair order, by one
    accumulation per component: the stored half of the product.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    if f.rank == 1 and g.rank == 0:
        f, g = g, f
    if f.rank != 0:
        raise ValueError("vector x vector products are not defined here")
    if f.is_zero() or g.is_zero():
        return SpectralField.zero(f.dim, g.rank)
    (ff, af), (fg, ag) = f._full(), g._full()
    ag = ag.reshape(len(fg), -1)  # one amplitude column per component
    if g.rank == 0:
        keep = np.ones(ag.shape, dtype=bool)
    else:
        keep = _above(np.hypot(ag.real, ag.imag))
    # mixed-radix keys: lexicographic order of frequencies is numeric order
    # of keys, and the key of a + b is key_f(a) + key_g(b)
    lo_f, lo_g = ff.min(axis=0), fg.min(axis=0)
    span = (ff.max(axis=0) - lo_f) + (fg.max(axis=0) - lo_g) + 1
    strides = _strides(span)
    lo = lo_f + lo_g
    top = int((span - 1) @ strides)  # the key of -lo, twice the origin's
    kf, kg = (ff - lo_f) @ strides, (fg - lo_g) @ strides

    parts = [[] for _ in range(ag.shape[1])]  # per component, in pair order
    cl_f, cl_g = _clusters(ff), _clusters(fg)
    mir_f, mir_g = _mirrors(cl_f, len(ff)), _mirrors(cl_g, len(fg))
    for a, ia in enumerate(cl_f):
        for b, ib in enumerate(cl_g):
            mirror = (mir_f[a], mir_g[b])
            if mirror < (a, b):
                continue  # the pair's entries came with its mirror's
            if len(ia) * len(ib) <= _DIRECT_PAIR_CAP:
                res = _pair_convolve(kf[ia], af[ia], kg[ib], ag[ib], keep[ib])
            else:
                res = _box_convolve(ff[ia], af[ia], fg[ib], ag[ib], keep[ib], lo, strides)
            for out, r in zip(parts, res):
                if r is not None:
                    out.append(_upper_part(*r, top, mirror == (a, b)))

    comps = [_sum_by_key(out) for out in parts]
    keys = _unique_keys(np.concatenate([k for k, _ in comps]))[0]
    amps = np.zeros((len(keys), len(comps)), dtype=complex)
    for i, (k, a) in enumerate(comps):
        amps[np.searchsorted(keys, k), i] = a
    freqs = lo + (keys[:, None] // strides) % span
    prod = SpectralField(f.dim, g.rank, freqs, amps)
    return (prod.pruned() if g.rank else prod)._half()  # a scalar product's sums are pruned: no copy


# -- calculus -------------------------------------------------------------


def mean_part(f: SpectralField):
    """Coefficient at the zero frequency."""
    return f.coefficient((0,) * f.dim)


def nonzero_part(f: SpectralField) -> SpectralField:
    return f.weighted(f.freqs.any(axis=1))


def gradient(f: SpectralField) -> SpectralField:
    """Componentwise multiplication by 2 pi i xi."""
    if f.rank != 0:
        raise ValueError("gradient of scalar fields only")
    amps = 2j * np.pi * f.freqs * f.amps[:, None]
    return SpectralField(f.dim, 1, f.freqs, amps).pruned()


def divergence(u: SpectralField) -> SpectralField:
    """Contraction of 2 pi i xi with the components of a vector field."""
    if u.rank != 1:
        raise ValueError("divergence of vector fields only")
    amps = 2j * np.pi * (u.freqs * u.amps).sum(axis=1)
    return SpectralField(u.dim, 0, u.freqs, amps).pruned()


def divergence_defect(u: SpectralField) -> float:
    """How far a vector field is from divergence-free, relative to its
    gradient scale max 2 pi |xi| |u(xi)| (the size the divergence would have
    with no cancellation at all)."""
    if u.rank != 1:
        raise ValueError("divergence defect of vector fields only")
    if u.is_zero():
        return 0.0
    freqs = u.freqs.astype(float)
    amps = np.max(np.abs(u.amps), axis=1)
    scale = 2.0 * np.pi * float(np.max(np.linalg.norm(freqs, axis=1) * amps))
    if scale == 0.0:
        return 0.0
    return divergence(u).max_amp() / scale


def fractional_laplacian(f: SpectralField, s: float) -> SpectralField:
    """Coefficientwise multiplication by |2 pi xi|^s.

    The zero mode is untouched for s >= 0 and removed for s < 0.
    """
    mag = 2.0 * np.pi * f.radii()
    w = np.full(len(mag), 1.0 if s == 0 else 0.0)  # |2 pi 0|^s
    # Python's pow: numpy's power differs from it in the last bit
    w[mag > 0] = [m**s for m in mag[mag > 0].tolist()]
    return f.weighted(w)


def low_pass(f: SpectralField, lam: float, kernel: ShellKernel) -> SpectralField:
    """Multiply coefficients by the low-pass bump evaluated at xi / lam."""
    if lam <= 0:
        raise ValueError("low-pass scale must be positive")
    return f.weighted(kernel.lowpass_weight(f.freqs, lam))


def shell_project(f: SpectralField, j: int, kernel: ShellKernel) -> SpectralField:
    """Restrict to the j-th dyadic shell via the smooth shell profile."""
    w = kernel.shell_weight(f.freqs, j)
    return f if np.all(w == 1.0) else f.weighted(w)  # f: all on the plateau


# -- norms ----------------------------------------------------------------


def _quadrature_N(band: int, p: float, grid_budget: int):
    """``(N, resolved)``: the grid that dealiases |f|^p (|f| for the sup
    norm), capped by the budget, and whether it fit in the budget."""
    factor = 4 if p == math.inf else 2 * int(math.ceil(p))
    want = max(8, _next_pow2(factor * band + 1))
    return min(want, grid_budget), want <= grid_budget


class Quadrature(NamedTuple):
    """One L^p norm by grid quadrature: the value, its estimated error, the
    grid N it was taken on, and whether N is the dealias grid (it fit in the
    budget)."""

    norm: float
    quad_err: float
    grid_N: int
    resolved: bool


def _grid_sums(f: SpectralField, N: int, ps) -> dict:
    """``{p: (fine, coarse)}``: sum |f|^p (max |f| for p = inf) over the N^d
    grid and over its even subgrid, streamed a row block at a time
    (:func:`_sample_block`).

    Each block is made |f| in place, which p = 1 and inf reduce as it is and
    p = 2 as |f| |f| in one reused buffer.  A vector field's components,
    planned over one set of columns, share one ``spec`` and two output
    blocks: the first component's block is squared in place, each later one
    is sampled into the scratch block, squared and added in component order,
    and the root is taken.  The block is then made log |f| in place, and
    every other p is formed as exp(p log |f|) in that buffer.  Blocks start
    at even rows, so a block's even rows are even rows of the grid.  Every
    sum is reduced to one value per grid row (axis-0 index), a function of
    that row's samples alone, and the rows are combined by one ``math.fsum``,
    which does not depend on their order: no value depends on how the rows
    are cut into blocks.
    """
    even = (slice(None, None, 2),) * f.dim
    within = tuple(range(1, f.dim))  # the axes of one grid row
    # per-row values of the grid and of its even subgrid, one array each:
    # lists of per-block arrays (of 2-row blocks at N = 8192) raised the
    # default run's peak RSS by 2.5 MB
    per_row = {p: (np.empty(N), np.empty((N + 1) // 2)) for p in ps}
    direct = [p for p in ps if p in (1, 2, math.inf)]
    logged = [p for p in ps if p not in direct]

    def add(p, i, values):
        reduce = np.maximum.reduce if p == math.inf else np.add.reduce
        fine, coarse = per_row[p]
        reduce(values, axis=within, out=fine[i : i + len(values)])
        sub = values[even]
        reduce(sub, axis=within, out=coarse[i // 2 : i // 2 + len(sub)])

    power = None
    comps = [f] if f.rank == 0 else [f.component(c) for c in range(f.dim)]
    plans = [_sample_plan(c, N) for c in comps]
    if len(plans) > 1:
        plans = _shared_columns(plans)
    spec, (acc, *scratch) = _sample_buffers(f.dim, N, min(2, len(plans)))
    for i in range(0, N, len(acc)):
        vals = _sample_block(plans[0], i, spec, acc[: N - i])
        if f.rank == 0:
            np.abs(vals, out=vals)
        else:
            np.square(vals, out=vals)
            for plan in plans[1:]:
                block = _sample_block(plan, i, spec, scratch[0][: N - i])
                vals += np.square(block, out=block)
            np.sqrt(vals, out=vals)
        if power is None and (logged or 2 in direct):  # p = 1 and inf need no buffer
            power = np.empty_like(vals)
        pw = None if power is None else power[: len(vals)]
        for p in direct:
            add(p, i, np.multiply(vals, vals, out=pw) if p == 2 else vals)
        if logged:
            with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(-inf) = 0
                np.log(vals, out=vals)
        for p in logged:
            add(p, i, np.exp(np.multiply(vals, p, out=pw), out=pw))
    return {p: tuple(s.max() if p == math.inf else math.fsum(s) for s in sums) for p, sums in per_row.items()}


def lp_norms(f: SpectralField, ps, grid_budget: int = DEFAULT_GRID_BUDGET) -> dict:
    """L^p norms by grid quadrature, with estimated quadrature errors.

    Returns ``{p: Quadrature}``.  Each p gets the grid that obeys the dealias
    rule for |f|^ceil(p) (|f| for p = inf) when that fits in the budget;
    otherwise the largest budget grid is used (the sampled values are still
    exact), the record says ``resolved=False``, and the error, the change
    from the half-resolution subgrid, reflects the unresolved quadrature.
    The quadrature streams row blocks of the samples and never holds the
    N^d grid: one pass per distinct grid serves all its exponents, and the
    values are memoized on the field.
    """
    if f.rank == 1:
        raise ValueError("scalar fields only")
    if any(p < 1 for p in ps):
        raise ValueError("p must be >= 1")
    band = int(np.max(f.max_axis_freq()))  # 0 for the zero field
    grids = {p: _quadrature_N(band, p, grid_budget) for p in ps}
    if f.is_zero():
        return {p: Quadrature(0.0, 0.0, N, resolved) for p, (N, resolved) in grids.items()}
    todo = {}  # N -> exponents not yet memoized at N
    for p, (N, _) in grids.items():
        if (p, N) not in f._norms:
            todo.setdefault(N, []).append(p)
    for N, grid_ps in todo.items():
        counts = (N**f.dim, ((N + 1) // 2) ** f.dim)  # points of the grid, subgrid
        for p, sums in _grid_sums(f, N, grid_ps).items():
            if p == math.inf:
                fine, coarse = (float(s) for s in sums)
            else:
                fine, coarse = ((s / n) ** (1.0 / p) for s, n in zip(sums, counts))
            f._norms[(p, N)] = (fine, abs(fine - coarse))
    return {p: Quadrature(*f._norms[(p, N)], N, resolved) for p, (N, resolved) in grids.items()}


def lp_norm_detailed(f: SpectralField, p: float, grid_budget: int = DEFAULT_GRID_BUDGET):
    """The :class:`Quadrature` record of ``||f||_p``; see :func:`lp_norms`."""
    return lp_norms(f, (p,), grid_budget)[p]


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm (sum over xi != 0 of |xi|^{2s} |f(xi)|^2)^{1/2}.

    Uses the bare Euclidean |xi| without 2 pi factors, matching the space's
    definition (the fractional Laplacian, by contrast, uses |2 pi xi|).
    """
    freqs = f.freqs.astype(float)
    mag2 = np.sum(freqs * freqs, axis=1)
    keep = mag2 > 0
    return math.sqrt(float(np.sum(mag2[keep] ** s * f.masses()[keep])))


def pairing(f: SpectralField, g: SpectralField) -> tuple:
    """``(signed, gross)``: the exact integral of f.g over the torus,
    sum_xi fhat(xi) ghat(-xi) contracted over components for vector fields,
    and sum_xi |fhat(xi)| |ghat(-xi)|, the magnitude scale of the pairing
    (the roundoff noise floor when the signed sum cancels).  The terms at
    +-xi are conjugates: a stored xi != 0 counts twice, its real part."""
    if f.dim != g.dim or f.rank != g.rank:
        raise ValueError("pairing needs fields of equal dimension and rank")
    at = g.find(f.freqs)
    hit = at >= 0
    a, b = f.amps[hit], g.amps[at[hit]].conj()
    twice = np.where(f.freqs[hit].any(axis=1), 2.0, 1.0)
    if f.rank == 0:
        terms, gross = (a * b).real, np.abs(a) * np.abs(b)
    else:
        terms = (a * b).real.sum(axis=1)
        gross = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    return float(np.sum(twice * terms)), float(np.sum(twice * gross))


def besov_norm(
    f: SpectralField,
    alpha: float,
    kernel: ShellKernel,
    grid_budget: int = DEFAULT_GRID_BUDGET,
) -> float:
    """Homogeneous Besov (infinity, infinity) norm: sup_j 2^{j alpha} ||P_j f||_inf.

    Only shells intersecting the support are evaluated.
    """
    mags = f.radii()
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
        val = 2.0 ** (j * alpha) * lp_norm_detailed(pj, math.inf, grid_budget).norm
        best = max(best, val)
    return best


# -- snapshots ------------------------------------------------------------

SNAPSHOT_VERSION = 3


def save_snapshot(f: SpectralField, path) -> None:
    """Write ``f`` as an uncompressed ``.npz`` archive at exactly ``path``:
    ``version`` and the stored arrays, the (K, d) int64 ``freqs`` and the
    complex ``amps``, (K,) for a scalar and (K, d) for a vector field.
    ValueError for a raw field that fails :meth:`SpectralField.is_half`."""
    if not f.is_half():
        raise ValueError("only a half spectrum is saved: origin and upper rows, a real origin")
    with open(path, "wb") as fh:  # a file object: numpy appends no suffix
        np.savez(fh, version=np.int64(SNAPSHOT_VERSION), freqs=f.freqs, amps=f.amps)


def load_snapshot(path) -> SpectralField:
    """The field :func:`save_snapshot` wrote, bit for bit.  ValueError for
    another format or version, and for rows below 0, repeated rows or a
    non-real origin."""
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
            version, freqs, amps = data["version"], data["freqs"], data["amps"]
        except (OSError, EOFError, KeyError, IndexError, ValueError) as exc:
            raise ValueError(f"{path} is not a snapshot archive: {exc}") from exc
    if version.shape or version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version.tolist()!r}")
    typed = (freqs.dtype, amps.dtype) == (np.int64, complex) and freqs.ndim == 2
    if not typed or amps.shape not in (freqs.shape[:1], freqs.shape):
        raise ValueError(
            f"snapshot arrays {freqs.dtype}{freqs.shape}, {amps.dtype}{amps.shape} are not "
            "(K, d) int64 freqs with (K,) or (K, d) complex amps"
        )
    uniq, inv = _unique_keys(freqs)
    if len(uniq) < len(freqs):
        raise ValueError("snapshot rows repeat a frequency")
    ordered = np.empty_like(amps)
    ordered[inv] = amps  # inv is a permutation once no row repeats
    f = SpectralField(freqs.shape[1], amps.ndim - 1, uniq, ordered)
    if not f.is_half():
        raise ValueError("snapshot rows below 0 or a non-real origin: it stores the half spectrum only")
    return f
