"""The streamed grid layer, built on :mod:`fields`: exact samples of sparse
fields on the N^d grid, their L^p and Besov quadrature, the analysis of
samples back into a sparse field, and the rules that size those grids.

Grids are streamed in row blocks.  ``_sample_plan`` runs a field's inverse
DFT along axis 0 only on the lines that hold a coefficient, and
``_sample_block`` finishes it a few rows at a time, into buffers its caller
passes.  ``_sample_rows`` is the one sweep loop: it yields a scalar field's
samples, or a vector field's magnitude, its components sharing one set of
buffers.  ``lp_norms`` reduces each block as it comes, to one sum per grid
row, and one ``math.fsum`` combines the rows, so no value depends on the
block size.  The adjoint ``_analyze_rows`` takes row blocks of samples
through the forward DFT, pruned to a box |xi_i| <= K: it holds only the
box's half spectrum, N (2K+1)^(d-2) (K+1) coefficients, the largest array
of the amplitudes' grid round trip, and counts the mass outside the box by
Parseval, per grid row too.  ``sample`` and ``analyze`` are the two streams'
whole-grid forms, which no step of a run calls.  Their real-FFT half lies
along the last axis, not the lexicographic one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import PRUNE_REL, SpectralField, _unique_keys, _upper, shell_project
from .kernels import ShellKernel

__all__ = ["sample", "analyze", "Quadrature", "lp_norms", "lp_norm_detailed", "besov_norm"]

DEFAULT_GRID_BUDGET = 8192
# grid points per row block of the streamed grid sweeps (_sample_buffers).
# A block's complex scratch, accumulator and power buffer, 0.13 MB each at
# 2^14 points, sit on top of a small run's resident data: against 2^15 and
# 2^16 points, 2^14 lowered the peak RSS of the two 2-D benchmark configs
# by 0.3-0.5 and 0.7-1.3 MB.  _sample_buffers floors a block at N / 1024
# rows: 2-row blocks at N = 8192 slowed the default run by about 8%.
_BLOCK_POINTS = 1 << 14


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n) - 1).bit_length()


def _quadrature_N(band: int, p: float, grid_budget: int):
    """``(N, resolved)``: the grid that dealiases |f|^p (|f| for the sup
    norm), capped by the budget, and whether it fit in the budget."""
    factor = 4 if p == math.inf else 2 * int(math.ceil(p))
    want = max(8, _next_pow2(factor * band + 1))
    return min(want, grid_budget), want <= grid_budget


def _amplitude_N(R: SpectralField, grid_budget: int):
    """``(trunc, N)`` for the amplitudes of the stress ``R``: the radius
    they are cut to, 8 times R's largest |xi| rounded up and at most an
    eighth of the budget, and the grid of their round trip, the smallest
    power of two above 2 max(band, trunc) + 1 (band: R's largest |xi_i|),
    at least 8 and at most the budget."""
    band = int(np.max(R.max_axis_freq()))
    trunc = min(8 * max(1, int(math.ceil(R.max_freq))), grid_budget // 8)
    return trunc, min(max(8, _next_pow2(2 * max(band, trunc) + 2)), grid_budget)


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
    """Yield ``(i, block)``: grid rows i, i+1, ... (axis 0) of a scalar
    field's samples, or of a vector field's magnitude |v|, a row block at a
    time (:func:`_sample_plan`).  Every block is a view of one buffer,
    overwritten by the next block.

    A vector field's components, planned over one set of columns, share one
    ``spec`` and two output blocks: the first component's block is squared
    in place, each later one is sampled into the scratch block, squared and
    added in component order, and the root is taken, so the d N^d grid of
    the components is never formed."""
    comps = [field] if field.rank == 0 else [field.component(c) for c in range(field.dim)]
    plans = [_sample_plan(c, N) for c in comps]
    if len(plans) > 1:
        plans = _shared_columns(plans)
    spec, (out, *scratch) = _sample_buffers(field.dim, N, min(2, len(plans)))
    for i in range(0, N, len(out)):
        vals = _sample_block(plans[0], i, spec, out[: N - i])
        if field.rank:
            np.square(vals, out=vals)
            for plan in plans[1:]:
                block = _sample_block(plan, i, spec, scratch[0][: N - i])
                vals += np.square(block, out=block)
            np.sqrt(vals, out=vals)
        yield i, vals


def sample(field: SpectralField, N: int) -> np.ndarray:
    """Exact samples of a scalar field at the N^d grid points, shape (N,)*d,
    for callers that need the whole grid; no step of a run does: the norms
    and ``amplitudes`` stream row blocks instead (:func:`_sample_block`).

    Wrapping frequencies mod N leaves grid-point values exact because
    e^{2 pi i xi j / N} only depends on xi mod N; only coefficient recovery
    requires an unaliased grid.
    """
    if field.rank != 0:
        raise ValueError("scalar fields only")
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


# -- norms ----------------------------------------------------------------


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
    grid and over its even subgrid, reduced from the row blocks of
    :func:`_sample_rows`, a vector field's magnitude as it comes.

    A scalar field's block is made |f| in place, which p = 1 and inf reduce
    as it is and p = 2 as |f| |f| in one reused buffer.  The block is then
    made log |f| in place, and every other p is formed as exp(p log |f|) in
    that buffer.  Blocks start at even rows, so a block's even rows are even
    rows of the grid.  Every sum is reduced to one value per grid row
    (axis-0 index), a function of that row's samples alone, and the rows are
    combined by one ``math.fsum``, which does not depend on their order: no
    value depends on how the rows are cut into blocks.
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
    for i, vals in _sample_rows(f, N):
        if f.rank == 0:
            np.abs(vals, out=vals)
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
