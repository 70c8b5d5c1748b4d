"""Sparse spectral fields: algebra, transforms, calculus, norms, snapshots."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeci import fields
from activeci.fields import (
    SpectralField,
    analyze,
    besov_norm,
    divergence,
    divergence_defect,
    fractional_laplacian,
    gradient,
    load_snapshot,
    low_pass,
    lp_norm_detailed,
    lp_norms,
    mean_part,
    multiply,
    nonzero_part,
    pairing,
    sample,
    save_snapshot,
    shell_project,
    sobolev_norm,
)
from activeci.kernels import ShellKernel


def cos_field(freq, amp=1.0):
    """Real field amp*cos(2 pi freq . x) as a hermitian coefficient pair."""
    neg = tuple(-c for c in freq)
    return SpectralField.scalar(len(freq), {freq: amp / 2.0, neg: amp / 2.0})


def vector_of(comps):
    """Vector field whose i-th component is the scalar field comps[i]."""
    d = comps[0].dim
    full = [c._full() for c in comps]
    freqs = np.concatenate([f for f, _ in full])
    amps = np.concatenate([np.outer(a, np.eye(d)[i]) for i, (_, a) in enumerate(full)])
    return SpectralField.from_entries(d, 1, freqs, amps)


def whole(f):
    """A raw field holding the whole spectrum of f, both halves."""
    return SpectralField(f.dim, f.rank, *f._full())


def assert_half(f):
    """f stores its half spectrum: rows in strict lexicographic order, each
    the origin or above 0, and a real origin."""
    rows = [tuple(xi) for xi in f.freqs.tolist()]
    assert rows == sorted(set(rows))
    assert all(next((c > 0 for c in xi if c), True) for xi in rows)
    origin = [a for xi, a in zip(rows, f.amps) if not any(xi)]
    assert np.all(np.imag(origin) == 0)
    assert f.is_half()


# -- hypothesis strategies -------------------------------------------------

freqs2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
amps = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def hermitian_scalars(draw):
    entries = draw(st.dictionaries(freqs2, amps, min_size=1, max_size=6))
    coeffs = {}
    for xi, a in entries.items():
        neg = tuple(-c for c in xi)
        coeffs[xi] = coeffs.get(xi, 0.0) + a / 2.0
        coeffs[neg] = coeffs.get(neg, 0.0) + np.conj(a) / 2.0
    return SpectralField.scalar(2, coeffs)


# -- construction and algebra ---------------------------------------------


def test_scalar_vector_ranks():
    f = SpectralField.scalar(2, {(1, 0): 1.0, (-1, 0): 1.0})
    v = SpectralField.vector(2, {(1, 0): np.array([1.0, 2.0]), (-1, 0): np.array([1.0, 2.0])})
    assert f.rank == 0 and v.rank == 1
    assert np.allclose(v.component(0).coefficient((1, 0)), 1.0)
    assert np.allclose(v.component(1).coefficient((1, 0)), 2.0)


def test_add_sub_scaled_modulated():
    f = cos_field((1, 0))
    g = cos_field((1, 0), amp=-1.0)
    assert (f + g).pruned().is_zero()
    assert (f - f).pruned().is_zero()
    h = f.scaled(3.0)
    assert abs(h.coefficient((1, 0)) - 1.5) < 1e-15
    with pytest.raises(TypeError):
        f.scaled(1j)  # a complex factor would break the invariant
    sh = f.modulated((2, 1))
    assert set(sh.coeffs) == {(3, 1), (1, 1), (-1, -1), (-3, -1)}


def test_max_freq_and_amp():
    f = SpectralField.scalar(2, {(3, 4): 2.0, (-3, -4): 2.0, (1, 0): 5.0, (-1, 0): 5.0})
    assert f.max_freq == 5.0
    assert list(f.max_axis_freq()) == [3, 4]
    assert f.max_amp() == 5.0


@given(hermitian_scalars())
@settings(max_examples=40)
def test_hermitian_detection(f):
    assert whole(f).is_hermitian()
    assert_half(f)


def test_hermitian_missing_partner_counts_as_zero():
    # an unpaired coefficient below rtol times the largest is roundoff
    # and passes; only the upper half is then kept, so an unpaired upper
    # coefficient gains its mirror and an unpaired lower one is dropped
    tiny = SpectralField.scalar(2, {(1, 0): 1, (-1, 0): 1, (2, 0): 1e-14})
    assert tiny.coeffs == {(-2, 0): 1e-14, (-1, 0): 1, (1, 0): 1, (2, 0): 1e-14}
    assert tiny.freqs.tolist() == [[1, 0], [2, 0]]
    low = SpectralField.scalar(2, {(1, 0): 1, (-1, 0): 1, (-2, 0): 1e-14})
    assert low.coeffs == {(-1, 0): 1, (1, 0): 1}
    # the raw constructor trusts its caller, so it can hold what is not real
    big = SpectralField(2, 0, [[-1, 0], [1, 0], [2, 0]], [1, 1, 1e-12])
    assert not big.is_hermitian()
    v = SpectralField.vector(2, {(1, 0): [1, 2j], (-1, 0): [1, -2j], (0, 3): [1e-14, 0]})
    assert whole(v).is_hermitian() and v.freqs.tolist() == [[0, 3], [1, 0]]
    assert not SpectralField(2, 1, [[-1, 0], [1, 0]], [[1, 2j], [1, 2j]]).is_hermitian()


def test_builders_reject_non_hermitian_spectra():
    builds = [
        lambda: SpectralField.scalar(2, {(1, 0): 1.0}),
        lambda: SpectralField.scalar(2, {(1, 0): 1, (-1, 0): 1, (2, 0): 1e-12}),
        lambda: SpectralField.scalar(2, {(1, 0): 1j, (-1, 0): 1j}),
        lambda: SpectralField.vector(2, {(1, 0): [1, 1j], (-1, 0): [1, 1j]}),
        lambda: SpectralField.from_entries(1, 0, [[2], [-2]], [1.0, 2.0]),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="Hermitian"):
            build()


def test_storage_is_sorted_read_only_arrays():
    f = SpectralField.scalar(2, {(1, 0): 2.0, (-1, 3): 1j, (-1, -2): 0.5, (-1, 0): 2.0, (1, 2): 0.5, (1, -3): -1j})
    # the upper half only: the lower half is the conjugate mirror
    freqs, amps = f.freqs, f.amps
    assert freqs.tolist() == [[1, -3], [1, 0], [1, 2]]
    assert amps.tolist() == [-1j, 2.0, 0.5]
    v = SpectralField.vector(3, {(0, 0, 1): [1, 2, 3], (0, 0, -1): [1, 2, 3]})
    for arr, value in ((f.freqs, 7), (f.amps, 7.0), (v.freqs, 7), (v.amps, 7.0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = value
    with pytest.raises(TypeError):
        f.coeffs[(1, 0)] = 3.0
    assert f.coeffs == {(-1, -2): 0.5, (-1, 0): 2.0, (-1, 3): 1j, (1, -3): -1j, (1, 0): 2.0, (1, 2): 0.5}


def test_from_entries_sums_repeats_in_entry_order():
    xi = [[2], [-2], [-1], [1], [2], [-2], [2], [-2]]
    f = SpectralField.from_entries(1, 0, xi, [1e16, 1e16, 3.0, 3.0, 1.0, 1.0, -1e16, -1e16])
    # (1e16 + 1) rounds back to 1e16, so entry order decides the sum at +-2
    assert f.coefficient((2,)) == 0.0 and f.coefficient((-1,)) == 3.0
    g = SpectralField.from_entries(1, 0, [[2], [-2]] * 3, [1e16, 1e16, -1e16, -1e16, 1.0, 1.0])
    assert g.coefficient((2,)) == 1.0
    # a lone entry keeps its signed zeros
    h = SpectralField.from_entries(
        1, 0, [[1], [-1], [3], [-3]], [complex(-0.0, 1.0), complex(-0.0, -1.0), 2.0, 2.0]
    )
    assert math.copysign(1.0, h.coefficient((1,)).real) == -1.0


def test_modulated_is_real_cosine_product():
    g = cos_field((1, 2), amp=0.8) + SpectralField.scalar(2, {(0, 0): 0.3})
    m = g.modulated((5, -1))
    assert_half(m)
    # the whole spectrum translated by +shift, then by -shift, summed in
    # that order
    freqs, amps = g._full()
    both = np.concatenate((freqs + (5, -1), freqs - (5, -1)))
    both = SpectralField.from_entries(2, 0, both, np.concatenate((amps, amps)))
    assert m.freqs.tolist() == both.freqs.tolist() and m.amps.tobytes() == both.amps.tobytes()
    x = np.arange(8) / 8
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    cosine = 2 * np.cos(2 * np.pi * (5 * X1 - X2))
    assert np.allclose(sample(m, 8), sample(g, 8) * cosine, atol=1e-13)


def test_weighted_restricts_or_weights():
    f = cos_field((1, 0)) + cos_field((3, 4), amp=2.0)
    inner = f.weighted(f.radii() < 2)
    assert inner.freqs.tolist() == [[1, 0]]
    assert_half(inner)
    w = np.where(f.radii() < 2, 0.0, 0.5)
    outer = f.weighted(w)
    assert outer.freqs.tolist() == [[3, 4]]
    assert outer.coefficient((3, 4)) == 0.5


@given(hermitian_scalars(), hermitian_scalars())
@settings(max_examples=25, deadline=None)
def test_multiply_commutes(f, g):
    fg = multiply(f, g)
    gf = multiply(g, f)
    diff = (fg - gf).pruned(rel=1e-12)
    assert diff.is_zero() or diff.max_amp() < 1e-12 * max(1.0, fg.max_amp())


def test_multiply_frozen_oracle():
    # cos(2 pi x1) * cos(2 pi x2) = (1/4) sum of the four (+-1, +-1) modes
    f = cos_field((1, 0))
    g = cos_field((0, 1))
    fg = multiply(f, g)
    for xi in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert abs(fg.coefficient(xi) - 0.25) < 1e-15


@given(hermitian_scalars(), hermitian_scalars())
@settings(max_examples=20, deadline=None)
def test_multiply_matches_grid_path(f, g):
    # sparse convolution vs dealiased grid product
    fg = multiply(f, g)
    band = int(math.ceil(f.max_freq + g.max_freq))
    N = max(8, fields._next_pow2(2 * band + 2))
    via_grid = analyze(sample(f, N) * sample(g, N))
    diff = (fg - via_grid).pruned(rel=1e-12)
    scale = max(fg.max_amp(), 1e-30)
    assert diff.is_zero() or diff.max_amp() < 1e-12 * scale


def random_hermitian(rng, dim, n, radius, centre=None):
    """Real field with n random modes |xi_i| <= radius around +-centre."""
    centre = np.zeros(dim, dtype=int) if centre is None else np.asarray(centre)
    coeffs = {}
    for _ in range(n):
        xi = tuple(int(c) for c in centre + rng.integers(-radius, radius + 1, size=dim))
        amp = complex(rng.normal(), rng.normal())
        neg = tuple(-c for c in xi)
        coeffs[xi] = coeffs.get(xi, 0.0) + amp / 2.0
        coeffs[neg] = coeffs.get(neg, 0.0) + np.conj(amp) / 2.0
    return SpectralField.scalar(dim, coeffs)


def product_cases(rng):
    """scalar x scalar and scalar x vector products in 2-D and 3-D."""
    return [
        (random_hermitian(rng, 2, 12, 6), random_hermitian(rng, 2, 9, 5)),
        # modes near +-(200, 70) form two clusters, so two cluster pairs
        (random_hermitian(rng, 2, 10, 4, (200, 70)), random_hermitian(rng, 2, 6, 3)),
        (random_hermitian(rng, 3, 8, 3), random_hermitian(rng, 3, 8, 2)),
        (
            random_hermitian(rng, 2, 10, 4, (200, 70)),
            vector_of([random_hermitian(rng, 2, 7, 4), random_hermitian(rng, 2, 5, 6)]),
        ),
        (
            random_hermitian(rng, 3, 6, 3),
            vector_of([random_hermitian(rng, 3, 5, 2) for _ in range(3)]),
        ),
    ]


def brute_product(f, g):
    """sum over all coefficient pairs f(a) g(b) at a + b, term by term."""
    out = {}
    for xa, a in f.coeffs.items():
        for xb, b in g.coeffs.items():
            key = tuple(x + y for x, y in zip(xa, xb))
            out[key] = out.get(key, 0.0) + a * np.asarray(b)
    return out


def test_multiply_matches_brute_force():
    for f, g in product_cases(np.random.default_rng(11)):
        fg = multiply(f, g)
        assert fg.rank == g.rank
        assert_half(fg)
        oracle = brute_product(f, g)
        scale = max(float(np.max(np.abs(v))) for v in oracle.values())
        assert set(fg.coeffs) <= set(oracle)
        for key, want in oracle.items():
            got = fg.coeffs.get(key, np.zeros_like(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_multiply_prunes_each_vector_component():
    # component 1 of g at (3, 3) sits below PRUNE_REL of that component's max,
    # while component 0 there is of full size
    f = cos_field((1, 0))
    g = SpectralField.vector(
        2,
        {
            (0, 5): np.array([1.0, 1.0], dtype=complex),
            (0, -5): np.array([1.0, 1.0], dtype=complex),
            (3, 3): np.array([1.0, 1e-17], dtype=complex),
            (-3, -3): np.array([1.0, 1e-17], dtype=complex),
        },
    )
    fg = multiply(f, g)
    assert fg.coefficient((4, 3))[0] == 0.5  # kept in component 0
    assert fg.coefficient((4, 3))[1] == 0.0  # dropped from component 1 only
    assert fg.coefficient((1, 5))[1] == 0.5


def test_multiply_box_path_matches_pair_path(monkeypatch):
    cases = product_cases(np.random.default_rng(3))
    pair = [multiply(f, g) for f, g in cases]
    monkeypatch.setattr(fields, "_DIRECT_PAIR_CAP", 0)
    for (f, g), fg in zip(cases, pair):
        box = multiply(f, g)
        assert_half(box)
        assert box.rank == g.rank and set(box.coeffs) == set(fg.coeffs)
        diff = (box - fg).pruned(rel=0.0)
        assert diff.is_zero() or diff.max_amp() < 1e-13 * fg.max_amp()


# -- the half-spectrum representation -----------------------------------------


def roundoff_hermitian(rng, dim, n, radius, rank=0):
    """Entries of a real field whose lower half is the conjugate of the
    upper half times (1 + 1e-16 noise): Hermitian to roundoff, not exactly."""
    up = rng.integers(-radius, radius + 1, size=(n, dim))
    up = up[fields._upper(up) & up.any(axis=1)]
    shape = (len(up),) + (dim,) * rank
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    noise = 1 + 1e-16 * rng.normal(size=shape)
    origin = np.zeros((1, dim), dtype=np.int64)
    amps = np.concatenate((a, (a * noise).conj(), np.full((1,) + shape[1:], 0.3 + 1e-17j)))
    return np.concatenate((up, -up, origin)), amps


@pytest.mark.parametrize("dim,N", [(2, 16), (2, 9), (3, 16), (3, 15)])
def test_analyze_is_exactly_hermitian(dim, N):
    values = np.random.default_rng(dim + N).normal(size=(N,) * dim)
    assert_half(analyze(values))


@pytest.mark.parametrize("box", [False, True], ids=["pair", "box"])
def test_multiply_is_exactly_hermitian(monkeypatch, box):
    if box:
        monkeypatch.setattr(fields, "_DIRECT_PAIR_CAP", 0)
    for f, g in product_cases(np.random.default_rng(5)):
        assert_half(f)
        assert_half(g)
        assert_half(multiply(f, g))


def test_builders_and_operations_are_exactly_hermitian():
    from activeci.multipliers import apply_T, ipm2d, ipm3d, sqg

    rng = np.random.default_rng(9)
    f = SpectralField.from_entries(2, 0, *roundoff_hermitian(rng, 2, 40, 6))
    v = SpectralField.from_entries(3, 1, *roundoff_hermitian(rng, 3, 30, 3, rank=1))
    g = SpectralField.from_entries(2, 0, *roundoff_hermitian(rng, 2, 40, 8))
    f3 = SpectralField.from_entries(3, 0, *roundoff_hermitian(rng, 3, 30, 3))
    for h in (f, v, g, f3):
        assert_half(h)
    assert_half(f.modulated((5, -2)))
    assert_half(low_pass(g, 64.0, ShellKernel()))
    assert_half(f + g)
    assert_half(v - v.scaled(0.5))
    for m, h in ((ipm2d(), f), (sqg(), f), (ipm3d(), f3)):
        assert_half(apply_T(m, h))


def representation_cases(rng):
    """Scalar and vector fields in 2-D and 3-D, with and without an origin."""
    f2 = random_hermitian(rng, 2, 12, 6) + SpectralField.scalar(2, {(0, 0): 0.7})
    f3 = random_hermitian(rng, 3, 10, 3)
    v2 = vector_of([random_hermitian(rng, 2, 8, 5), random_hermitian(rng, 2, 6, 4)])
    v3 = vector_of([random_hermitian(rng, 3, 5, 2) + SpectralField.scalar(3, {(0, 0, 0): -1.5}) for _ in range(3)])
    return [f2, f3, v2, v3]


def test_coefficient_and_coeffs_read_the_whole_spectrum():
    for f in representation_cases(np.random.default_rng(21)):
        assert_half(f)
        coeffs = f.coeffs
        stored = {tuple(xi) for xi in f.freqs.tolist()}
        assert set(coeffs) == stored | {tuple(-c for c in xi) for xi in stored}
        assert len(coeffs) == 2 * len(f) - int(not f.freqs[0].any())  # the origin once
        for xi, a in coeffs.items():
            neg = tuple(-c for c in xi)
            assert np.array_equal(f.coefficient(xi), a)
            assert np.array_equal(f.coefficient(neg), np.conj(a))
        assert np.array_equal(f.coefficient((99,) * f.dim), np.zeros_like(a))


def test_operations_match_whole_spectrum_references():
    # modulated, pairing, sobolev_norm and the masses against sums over the
    # whole spectrum, term by term (multiply: test_multiply_matches_brute_force)
    rng = np.random.default_rng(22)
    cases = representation_cases(rng)
    partners = representation_cases(rng)
    for f, g in zip(cases, partners):
        coeffs, other = f.coeffs, g.coeffs
        shift = (3,) + (-1,) * (f.dim - 1)
        want = {}
        for xi, a in coeffs.items():
            for sign in (1, -1):
                key = tuple(x + sign * c for x, c in zip(xi, shift))
                want[key] = want.get(key, 0.0) + a
        got = f.modulated(shift).coeffs
        scale = max(float(np.max(np.abs(a))) for a in want.values())
        assert set(got) <= set(want)
        assert all(np.max(np.abs(got.get(xi, 0.0) - a)) <= 1e-14 * scale for xi, a in want.items())

        terms = [(a, other.get(tuple(-c for c in xi))) for xi, a in coeffs.items()]
        terms = [(np.asarray(a), np.asarray(b)) for a, b in terms if b is not None]
        signed, gross = pairing(f, g)
        assert abs(signed - sum(np.sum(a * b) for a, b in terms).real) <= 1e-13 * gross
        assert abs(gross - sum(np.linalg.norm(a) * np.linalg.norm(b) for a, b in terms)) <= 1e-13 * gross

        for s in (-2.0, 0.5):
            sob = sum(sum(c * c for c in xi) ** s * np.sum(np.abs(a) ** 2) for xi, a in coeffs.items() if any(xi))
            assert abs(sobolev_norm(f, s) - math.sqrt(sob)) <= 1e-13 * math.sqrt(sob)
        l2 = sum(np.sum(np.abs(a) ** 2) for a in coeffs.values())
        assert abs(f.masses().sum() - l2) <= 1e-13 * l2


def test_multiply_computes_one_cluster_pair_per_mirror_orbit(monkeypatch):
    calls = Counter()
    for name in ("_pair_convolve", "_box_convolve"):
        routine = getattr(fields, name)

        def counted(*args, name=name, routine=routine):
            calls[name] += 1
            return routine(*args)

        monkeypatch.setattr(fields, name, counted)

    def clusters(field):
        """(clusters, how many are their own mirror) of the field's whole
        support."""
        freqs = field._full()[0]
        sets = [{tuple(x) for x in freqs[c]} for c in fields._clusters(freqs)]
        return len(sets), sum(s == {tuple(-c for c in x) for x in s} for s in sets)

    seen = set()
    for cap, path in ((fields._DIRECT_PAIR_CAP, "_pair_convolve"), (0, "_box_convolve")):
        monkeypatch.setattr(fields, "_DIRECT_PAIR_CAP", cap)
        for f, g in product_cases(np.random.default_rng(3)):
            calls.clear()
            multiply(f, g)
            (n_f, own_f), (n_g, own_g) = clusters(f), clusters(g)
            # (A, B) is its own mirror when A and B are; the rest pair off
            orbits = (n_f * n_g + own_f * own_g) // 2
            assert calls == {path: orbits}
            seen.add(orbits < n_f * n_g)
    assert True in seen  # mirror pairs were skipped


def bfs_clusters(freqs, cell):
    """Reference: breadth-first search over the occupied cells in sorted
    order, neighbours at Chebyshev distance 1, one index list per cluster."""
    # nearest multiple of cell, halves away from 0: the cell of -xi is minus
    # the cell of xi
    cells = np.sign(freqs) * np.floor(np.abs(freqs) / cell + 0.5).astype(int)
    cells = [tuple(c) for c in cells.tolist()]
    occupied = set(cells)
    offsets = list(np.ndindex(*(3,) * freqs.shape[1]))
    label = {}
    n = -1
    for start in sorted(occupied):
        if start in label:
            continue
        n += 1
        label[start] = n
        stack = [start]
        while stack:
            cur = stack.pop()
            for off in offsets:
                nb = tuple(c + o - 1 for c, o in zip(cur, off))
                if nb in occupied and nb not in label:
                    label[nb] = n
                    stack.append(nb)
    per_freq = np.array([label[c] for c in cells])
    return [np.flatnonzero(per_freq == i) for i in range(n + 1)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("cell", [4, 64])
def test_clusters_match_breadth_first_search(dim, cell):
    rng = np.random.default_rng(10 * dim + cell)
    centres = rng.integers(-40 * cell, 40 * cell, size=(6, dim))
    centres[0] = -centres[1]  # a mirror pair, as in a real field
    freqs = np.concatenate([c + rng.integers(-2 * cell, 2 * cell, size=(30, dim)) for c in centres])
    freqs = freqs[rng.permutation(len(freqs))]
    got = fields._clusters(freqs, cell)
    want = bfs_clusters(freqs, cell)
    assert len(want) >= 5  # several clusters
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    # on a support symmetric about 0, the mirror of every cluster is a cluster
    sym = np.unique(np.concatenate((freqs, -freqs)), axis=0)
    sets = [{tuple(x) for x in sym[c].tolist()} for c in fields._clusters(sym, cell)]
    assert all({tuple(-v for v in x) for x in s} in sets for s in sets)


def test_fast_len_matches_scipy():
    # the box path pads to the lengths scipy.fft would pick for complex input
    from scipy.fft import next_fast_len

    assert [fields._fast_len(n) for n in range(1, 4097)] == [
        next_fast_len(n) for n in range(1, 4097)
    ]


def test_multiply_scalar_vector():
    f = cos_field((1, 0))
    v = SpectralField.vector(
        2,
        {(0, 1): np.array([1.0, 2.0]) / 2.0, (0, -1): np.array([1.0, 2.0]) / 2.0},
    )
    fv = multiply(f, v)
    assert fv.rank == 1
    assert np.allclose(fv.coefficient((1, 1)), [0.25, 0.5])


# -- transforms ------------------------------------------------------------


@pytest.mark.parametrize(
    "f",
    [
        cos_field((3, 2), amp=1.7) + cos_field((1, 0), amp=-0.4),
        cos_field((3, 2, -1), amp=1.7) + cos_field((1, 0, 2), amp=-0.4),
    ],
    ids=["2d", "3d"],
)
def test_sample_analyze_roundtrip(f):
    g = analyze(sample(f, 16))
    assert_half(g)
    assert g.dim == f.dim
    diff = (f - g).pruned(rel=1e-13)
    assert diff.is_zero() or diff.max_amp() < 1e-13


def test_grid_layer_takes_real_fields_only():
    with pytest.raises(ValueError, match="real"):
        analyze(np.ones((8, 8), dtype=complex))
    with pytest.raises(ValueError, match="scalar"):
        analyze(np.ones((2, 8, 8)))  # the shape of two components' grids


def test_grid_layer_serves_two_or_more_dimensions():
    # a divergence-free symbol on Z is 0, hence odd: no run has a 1-D grid
    f = cos_field((3,)) + cos_field((1,), amp=-0.4)
    grids = (np.ones(16), np.float64(1.0))
    calls = [lambda: sample(f, 16), lambda: lp_norms(f, (1.0, 2.0))] + [lambda v=v: analyze(v) for v in grids]
    for call in calls:
        with pytest.raises(ValueError, match="d >= 2"):
            call()


@pytest.mark.parametrize(
    "values",
    [
        (-1.0) ** np.arange(4)[:, None] * np.ones(4),
        np.cos(np.pi * np.arange(4))[:, None] * np.ones(4) + np.sin(np.pi / 2 * np.arange(4)),
    ],
)
def test_analyze_real_grid_with_nyquist_content(values):
    # for even N a Nyquist-line coefficient is split evenly over -N/2 and
    # +N/2, so the spectrum is Hermitian
    g = analyze(values)
    assert_half(g)
    nyq = (2,) + (0,) * (values.ndim - 1)
    assert abs(g.coefficient(nyq) - 0.5) < 1e-15
    assert abs(g.coefficient(tuple(-c for c in nyq)) - 0.5) < 1e-15
    assert np.allclose(sample(g, 4), values, atol=1e-15)


@pytest.mark.parametrize("transpose", [False, True])
def test_analyze_nyquist_line_samples_on_a_finer_grid(transpose):
    # (-1)^j on a 4x4 grid: the split coefficient must neither vanish (last
    # axis, half-spectrum transform) nor double (axis 0) on an 8x8 grid
    values = np.ones((4, 1)) * (-1.0) ** np.arange(4)
    g = analyze(values.T if transpose else values)
    x = np.stack(np.meshgrid(np.arange(8) / 8, np.arange(8) / 8, indexing="ij"), axis=-1)
    freqs, amps = g._full()
    direct = np.exp(2j * np.pi * x @ freqs.T) @ amps
    assert np.allclose(sample(g, 8), direct, atol=1e-14)
    assert np.allclose(direct.imag, 0.0, atol=1e-14)
    assert np.allclose(sample(g, 4), values.T if transpose else values, atol=1e-14)


@pytest.mark.parametrize("dim,N", [(2, 8), (2, 32), (3, 8), (3, 16), (2, 9)])
def test_analyze_is_bitwise_rfftn(dim, N):
    # on the origin and the upper half, the stored rows, a coefficient in
    # the computed half (last index 0..N/2 mod N) is numpy's rfftn bit for
    # bit, one outside it the exact conjugate of its mirror's; a coefficient
    # with |xi_i| = N/2 on m axes is that value over 2^m
    values = np.random.default_rng(dim * N).normal(size=(N,) * dim)
    ref = np.fft.rfftn(values) / N**dim
    g = analyze(values, rel=0.0)
    freqs = g._full()[0]
    assert len(freqs) == (N + 1 - N % 2) ** dim  # each Nyquist line split in two
    half = len(freqs) // 2
    assert g.freqs.tobytes() == freqs[half:].tobytes()  # the origin and the upper half
    halvings = (np.abs(g.freqs) * 2 == N).sum(axis=1)
    computed = 2 * (g.freqs[:, -1] % N) <= N
    at = np.where(computed[:, None], g.freqs, -g.freqs) % N
    expect = ref[tuple(at.T)]
    expect = np.where(computed, expect, expect.conj()) / 2.0**halvings
    assert not computed.all()  # the mirrored entries are checked too
    assert g.amps.tobytes() == expect.tobytes()


def test_analyze_holds_one_complex_grid():
    import tracemalloc

    values = sample(random_hermitian(np.random.default_rng(2), 3, 6, 3), 64)
    grid_bytes = values.nbytes
    tracemalloc.start()
    try:
        analyze(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the half spectrum (one grid) and one slab's magnitudes; the full
    # magnitudes held 1.6 grids, the full complex copy three
    assert peak < 1.5 * grid_bytes


@pytest.mark.parametrize("dim,N", [(2, 64), (2, 45), (3, 16), (3, 15)])
def test_analyze_rows_over_uneven_blocks_is_analyze(dim, N):
    # row blocks of 1, 3, N/2 - 4 and N/2 rows, against analyze's one block
    values = sample(random_hermitian(np.random.default_rng(N + dim), dim, 12, N // 3), N)
    cuts = [0, 1, 4, N // 2, N]
    got, outside = fields._analyze_rows(dim, N, N // 2, ((i, values[i:j]) for i, j in zip(cuts, cuts[1:])))
    ref = analyze(values)
    assert got.freqs.tobytes() == ref.freqs.tobytes()
    assert got.amps.tobytes() == ref.amps.tobytes()
    assert outside == 0.0  # the box of the whole spectrum drops nothing


def dense_tail(values, K):
    """sqrt of the mass of |xi| > K over the whole mass, from numpy's fftn."""
    N, dim = len(values), values.ndim
    mass = np.abs(np.fft.fftn(values) / N**dim) ** 2
    axes = np.meshgrid(*[np.fft.fftfreq(N, 1.0 / N)] * dim, indexing="ij")
    beyond = sum(ax**2 for ax in axes) > K**2
    return math.sqrt(mass[beyond].sum() / mass.sum())


def box_cases():
    """(dim, N, K, values): K well inside N/2 and K = N/2 - 1, N even and
    odd, on white noise (mass at every frequency) and on positive fields
    of random modes reaching past K."""
    for dim, N, Ks in ((2, 64, (12, 31)), (2, 45, (9, 21)), (3, 16, (3, 7)), (3, 15, (4, 6))):
        rng = np.random.default_rng(10 * N + dim)
        smooth = sample(random_hermitian(rng, dim, 12, N // 3), N)
        for K in Ks:
            yield dim, N, K, rng.normal(size=(N,) * dim)
            yield dim, N, K, smooth - smooth.min() + 0.5


@pytest.mark.parametrize("dim,N,K,values", list(box_cases()))
def test_box_analysis_is_analyze_cut_to_the_radius(dim, N, K, values):
    # the box's coefficients within the radius are analyze's, bit for bit,
    # and the Parseval tail beyond the radius is the dense one
    cuts = [0, 1, 4, N // 2, N]
    box, outside = fields._analyze_rows(dim, N, K, ((i, values[i:j]) for i, j in zip(cuts, cuts[1:])))
    assert np.abs(box.freqs).max() <= K
    ref = analyze(values)
    ref = ref.weighted(ref.radii() <= K)
    got = box.weighted(box.radii() <= K)
    assert got.freqs.tobytes() == ref.freqs.tobytes()
    assert got.amps.tobytes() == ref.amps.tobytes()
    mass = box.masses()
    tail = math.sqrt((outside + mass[box.radii() > K].sum()) / (outside + mass.sum()))
    expect = dense_tail(values, K)
    if expect > 1e-13:
        assert tail == pytest.approx(expect, rel=1e-6)
    else:  # every mode within the radius: both are roundoff
        assert tail < 1e-13


def test_sample_matches_direct_evaluation():
    f = cos_field((2, 1), amp=0.9)
    N = 12
    vals = sample(f, N)
    x = np.arange(N) / N
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    direct = 0.9 * np.cos(2 * np.pi * (2 * X1 + 1 * X2))
    assert np.allclose(vals, direct, atol=1e-13)


def test_sample_wraps_aliased_frequencies():
    # a frequency beyond N/2 still evaluates exactly at the grid points
    f = cos_field((9, 0))
    N = 8
    vals = sample(f, N)
    x = np.arange(N) / N
    direct = np.cos(2 * np.pi * 9 * x)
    assert np.allclose(vals[:, 0], direct, atol=1e-13)


def direct_samples(f, N):
    """sum_xi f(xi) e^{2 pi i xi.x} on the N^d grid, term by term."""
    axes = np.meshgrid(*([np.arange(N) / N] * f.dim), indexing="ij")
    out = np.zeros((N,) * f.dim, dtype=complex)
    for xi, a in f.coeffs.items():
        out += a * np.exp(2j * np.pi * sum(c * x for c, x in zip(xi, axes)))
    return out


def test_sample_real_fft_wraps_last_axis():
    # last-axis frequency 5 > N/2 = 4 wraps to 3; its partner -5 wraps to 3
    f = cos_field((1, 5), amp=1.3) + cos_field((2, -7), amp=0.4)
    vals = sample(f, 8)
    assert vals.dtype == np.float64 and vals.shape == (8, 8)
    assert np.allclose(vals, direct_samples(f, 8).real, atol=1e-13)


def test_sample_real_fft_nyquist_column():
    # last-axis index N/2 is its own conjugate partner: both modes land there
    f = SpectralField.scalar(2, {(1, 4): 0.3 - 0.8j, (-1, -4): 0.3 + 0.8j})
    f = f + cos_field((3, 4), amp=0.5) + cos_field((0, 4))
    vals = sample(f, 8)
    assert vals.dtype == np.float64
    assert np.allclose(vals, direct_samples(f, 8).real, atol=1e-13)


def test_sample_real_fft_3d():
    f = random_hermitian(np.random.default_rng(5), 3, 10, 5)
    vals = sample(f, 8)  # frequencies up to 5 wrap on every axis
    assert vals.dtype == np.float64 and vals.shape == (8, 8, 8)
    assert np.allclose(vals, direct_samples(f, 8).real, atol=1e-12)


def dense_samples(f, N):
    """The whole-grid transform: the spectrum scattered mod N, then numpy's
    n-D ``irfftn`` over the half spectrum."""
    freqs, amps = f._full()
    freqs = freqs % N
    keep = freqs[:, -1] <= N // 2
    spec = np.zeros((N,) * (f.dim - 1) + (N // 2 + 1,), dtype=complex)
    np.add.at(spec, tuple(freqs[keep].T), amps[keep])
    return np.fft.irfftn(spec, s=(N,) * f.dim, axes=tuple(range(f.dim))) * N**f.dim


@pytest.mark.parametrize(
    "dim,N,radius",
    [
        (2, 8, 7),  # every axis wraps
        (2, 16, 8),  # last-axis frequencies +-8 meet in the Nyquist column
        (2, 512, 300),  # several row blocks
        (3, 8, 5),
        (3, 16, 8),
        (3, 64, 40),  # several row blocks
    ],
)
def test_sample_real_bitwise_dense_irfftn(dim, N, radius):
    f = random_hermitian(np.random.default_rng(N + dim), dim, 30, radius)
    assert np.array_equal(sample(f, N), dense_samples(f, N))


def test_sample_plan_holds_one_copy_of_its_lines():
    import tracemalloc

    f = random_hermitian(np.random.default_rng(4), 2, 400, 500)  # a few hundred occupied columns
    tracemalloc.start()
    try:
        _, lines = fields._sample_plan(f, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the axis-0 transform runs in place; into a new array it held two copies
    assert lines.shape[1] > 200 and peak < 1.5 * lines.nbytes


def test_sample_vector_field():
    # a vector field is sampled one component at a time
    f = random_hermitian(np.random.default_rng(2), 2, 10, 6)
    g = random_hermitian(np.random.default_rng(3), 2, 10, 6)
    v = vector_of([f, g])
    with pytest.raises(ValueError, match="scalar fields only"):
        sample(v, 16)
    for comp, want in zip((v.component(0), v.component(1)), (f, g)):
        vals = sample(comp, 16)
        assert vals.shape == (16, 16) and vals.dtype == np.float64
        assert np.allclose(vals, direct_samples(want, 16).real, atol=1e-12)


STREAM_PS = (1.0, 4.0 / 3.0, 1.5, 2.0, math.inf)


def dense_norms(f, N):
    """``{p: (norm, err)}`` of :func:`lp_norms` from the whole sampled grid."""
    vals = np.abs(sample(f, N))
    sub = vals[(slice(None, None, 2),) * f.dim]
    out = {}
    for p in STREAM_PS:
        if p == math.inf:
            fine, coarse = vals.max(), sub.max()
        else:
            fine, coarse = np.mean(vals**p) ** (1 / p), np.mean(sub**p) ** (1 / p)
        out[p] = (fine, abs(fine - coarse))
    return out


@pytest.mark.parametrize(
    "dim,N",
    [
        (2, 16),  # one block
        (2, 384),  # blocks of 42 rows: the last one is short
        (2, 999),  # odd N: the subgrid has 500 points per axis
        (3, 48),  # blocks of 6 rows
        (3, 33),
    ],
)
def test_lp_norms_stream_equals_dense(dim, N):
    f = random_hermitian(np.random.default_rng(N), dim, 25, N)  # every p capped at N
    got = lp_norms(f, STREAM_PS, N)
    assert {(rec.grid_N, rec.resolved) for rec in got.values()} == {(N, False)}
    for p, (norm, err) in dense_norms(f, N).items():
        assert abs(got[p].norm - norm) <= 1e-13 * norm
        assert abs(got[p].quad_err - err) <= 1e-13 * norm


@pytest.mark.parametrize("dim,N", [(2, 64), (2, 45), (3, 16), (3, 15)])
def test_grid_sums_do_not_depend_on_the_blocks(monkeypatch, dim, N):
    # every sum is one value per grid row, and one fsum combines the rows:
    # 2-row blocks, 6-row blocks with a shorter last one and one block of
    # the whole grid give the same bits, for every p, for a scalar and a
    # vector field, and for the mass the box analysis drops
    rng = np.random.default_rng(N + dim)
    f = random_hermitian(rng, dim, 12, N // 3)
    v = gradient(random_hermitian(rng, dim, 12, N // 3))
    values = sample(f, N)
    got = []
    for points in (1, 6 * N ** (dim - 1), 1 << 40):
        monkeypatch.setattr(fields, "_BLOCK_POINTS", points)
        rows = len(fields._sample_buffers(dim, N, 1)[1][0])
        assert rows == {1: 2, 6 * N ** (dim - 1): 6}.get(points, N)
        sums = [fields._grid_sums(g, N, STREAM_PS) for g in (f, v)]
        blocks = ((i, values[i : i + rows]) for i in range(0, N, rows))
        got.append((sums, fields._analyze_rows(dim, N, N // 4, blocks)[1]))
    assert all(s > 0 for sums, outside in got for by_p in sums for pair in by_p.values() for s in pair)
    assert got[0][1] > 0
    assert got[1] == got[0] and got[2] == got[0]


def test_lp_norms_zero_field():
    z = SpectralField.zero(2)
    # the record a band-0 field gets: the 8-point floor grid, within the budget
    assert lp_norms(z, STREAM_PS, 64) == {p: (0.0, 0.0, 8, True) for p in STREAM_PS}
    assert lp_norms(z, STREAM_PS, 4) == {p: (0.0, 0.0, 4, False) for p in STREAM_PS}
    assert np.array_equal(sample(z, 8), np.zeros((8, 8)))


def test_lp_norms_flag_budget_cap():
    f = cos_field((5, 0))
    # band 5: 4 * 5 + 1 points dealias the sup norm, 2 * 2 * 5 + 1 |f|^1.5
    assert lp_norm_detailed(f, math.inf, 32)[2:] == (32, True)
    assert lp_norm_detailed(f, 1.5, 16)[2:] == (16, False)
    assert lp_norm_detailed(SpectralField.zero(2), 2.0, 64)[2:] == (8, True)


def test_lp_norms_never_hold_the_grid():
    import tracemalloc

    f = random_hermitian(np.random.default_rng(7), 2, 10, 300)  # every p capped at 1024
    grid_bytes = 1024**2 * 8  # one N^2 float64 grid
    tracemalloc.start()
    try:
        lp_norms(f, STREAM_PS, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes / 4


def test_norms_sample_each_grid_once(monkeypatch):
    k = ShellKernel()
    # every mode on the plateau 4 <= |xi| <= 6.86 of shell j = 2
    f = cos_field((5, 0), 2.0) + cos_field((3, 4), 0.7) + cos_field((4, -4), -0.4)
    grids = Counter()
    original = fields._sample_plan

    def counting(field, N):  # one plan of a scalar field is one pass over the grid
        grids[N] += 1
        return original(field, N)

    monkeypatch.setattr(fields, "_sample_plan", counting)
    ps = (1.0, 4.0 / 3.0, 1.5, 2.0, math.inf)
    lp = lp_norms(f, ps, 256)
    besov = [besov_norm(f, alpha, k, 256) for alpha in (-0.1, -0.5, -0.9)]
    assert [lp_norm_detailed(f, p, 256) for p in ps] == [lp[p] for p in ps]
    # band 5: 16 points dealias |f|, 32 dealias |f|^2 and the sup
    assert grids == Counter({16: 1, 32: 1})
    assert besov == [2.0 ** (2 * alpha) * lp[math.inf].norm for alpha in (-0.1, -0.5, -0.9)]
    # one p at a time on a fresh field gives the same values
    fresh = SpectralField.scalar(2, dict(f.coeffs))
    assert {p: lp_norm_detailed(fresh, p, 256) for p in ps} == lp


def test_shell_project_plateau_returns_field():
    f = cos_field((5, 0)) + cos_field((3, 4))
    assert shell_project(f, 2, ShellKernel()) is f


def test_parseval():
    f = cos_field((3, 2), amp=2.0)
    l2 = lp_norm_detailed(f, 2.0, grid_budget=64).norm
    coeff_l2 = math.sqrt(sum(abs(a) ** 2 for a in f.coeffs.values()))
    assert abs(l2 - coeff_l2) < 1e-12


# -- calculus --------------------------------------------------------------


def test_gradient_divergence_oracle():
    f = cos_field((1, 0))  # cos(2 pi x1)
    g = gradient(f)
    # d/dx1 cos(2 pi x1) = -2 pi sin(2 pi x1): coefficient at (1,0) is i pi
    assert np.allclose(g.coefficient((1, 0)), [2j * np.pi * 0.5, 0.0])
    assert abs(divergence(g).coefficient((1, 0)) + (2 * np.pi) ** 2 * 0.5) < 1e-12


def test_divergence_defect_perp_field():
    # u = (d2, -d1) psi is exactly divergence free
    psi = cos_field((2, 3), amp=1.3)
    g = gradient(psi)
    u = vector_of([g.component(1), g.component(0).scaled(-1.0)])
    assert divergence_defect(u) < 1e-13


def test_fractional_laplacian_symbol():
    f = cos_field((3, 4))  # |xi| = 5
    g = fractional_laplacian(f, 1.0)
    assert abs(g.coefficient((3, 4)) - 0.5 * (2 * np.pi * 5)) < 1e-12
    # s = 0 keeps the mean; s > 0 annihilates it
    h = SpectralField.scalar(2, {(0, 0): 2.0})
    assert abs(fractional_laplacian(h, 0.0).coefficient((0, 0)) - 2.0) < 1e-15
    assert fractional_laplacian(h, 1.0).is_zero()


def test_neg_laplacian_composition():
    # div Lambda^{gamma-2} grad = -Lambda^gamma
    f = cos_field((3, 4), amp=1.0)
    lhs = divergence(fractional_laplacian(gradient(f), -1.0))
    rhs = fractional_laplacian(f, 1.0).scaled(-1.0)
    diff = (lhs - rhs).pruned(rel=1e-12)
    assert diff.is_zero() or diff.max_amp() < 1e-12


def test_fractional_laplacian_composition():
    # Lambda^a Lambda^b = Lambda^{a+b} on mean-free fields
    f = cos_field((3, 4), amp=1.0) + cos_field((1, 2), amp=0.3)
    ab = fractional_laplacian(fractional_laplacian(f, 0.7), -1.9)
    direct = fractional_laplacian(f, 0.7 - 1.9)
    diff = (ab - direct).pruned(rel=1e-12)
    assert diff.is_zero() or diff.max_amp() < 1e-12 * direct.max_amp()


def test_mean_and_nonzero_part():
    f = SpectralField.scalar(2, {(0, 0): 1.5, (1, 0): 1.0, (-1, 0): 1.0})
    assert abs(mean_part(f) - 1.5) < 1e-15
    assert (0, 0) not in nonzero_part(f).coeffs


# -- projectors ------------------------------------------------------------


def test_low_pass_plateau_and_cut():
    k = ShellKernel()
    f = cos_field((7, 0)) + cos_field((17, 0))
    g = low_pass(f, 256.0, k)  # plateau to 8, zero from 16
    assert abs(g.coefficient((7, 0)) - 0.5) < 1e-15
    assert g.coefficient((17, 0)) == 0.0


def test_shell_projectors_partition():
    k = ShellKernel()
    f = cos_field((3, 4), amp=1.0) + cos_field((40, 9), amp=0.3)
    total = SpectralField.zero(2)
    for j in range(0, 8):
        total = total + shell_project(f, j, k)
    diff = (total - f).pruned(rel=1e-12)
    assert diff.is_zero() or diff.max_amp() < 1e-12


# -- norms -----------------------------------------------------------------


def test_lp_norms_check_input_of_zero_fields():
    with pytest.raises(ValueError, match="scalar fields only"):
        lp_norms(SpectralField.zero(2, 1), (1.0,))
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_norms(SpectralField.zero(2), (0.5,))
    zero = (0.0, 0.0, 8, True)
    assert lp_norms(SpectralField.zero(2), (1.0, math.inf)) == {1.0: zero, math.inf: zero}


def test_lp_norm_oracles():
    f = cos_field((5, 0), amp=2.0)
    # ||2 cos||_2 = sqrt(2), ||2 cos||_1 = 4/pi, ||2 cos||_inf = 2
    n2 = lp_norm_detailed(f, 2.0, grid_budget=256).norm
    n1, err1, _, _ = lp_norm_detailed(f, 1.0, grid_budget=256)
    ninf = lp_norm_detailed(f, np.inf, grid_budget=256).norm
    assert abs(n2 - math.sqrt(2.0)) < 1e-10
    # |cos| has kinks; grid quadrature converges slowly, err estimate reported
    assert abs(n1 - 4.0 / np.pi) < 5e-2
    assert abs(ninf - 2.0) < 1e-6
    assert err1 >= 0.0


def test_sobolev_norm_oracle():
    # single mode pair at |xi| = 5, amp 1/2 each: H^{-2} = sqrt(2*(1/2)^2)/25
    f = cos_field((3, 4))
    expect = math.sqrt(2 * 0.25) / 25.0
    assert abs(sobolev_norm(f, -2.0) - expect) < 1e-14
    # zero mode ignored
    g = f + SpectralField.scalar(2, {(0, 0): 7.0})
    assert abs(sobolev_norm(g, -2.0) - expect) < 1e-14


def test_besov_norm_single_shell():
    k = ShellKernel()
    f = cos_field((5, 0), amp=2.0)  # lives in shell j = 2 (plateau 4..6.86)
    val = besov_norm(f, -0.5, k, 256)
    expect = 2.0 ** (-0.5 * 2) * 2.0  # 2^{alpha j} * L^inf of the block
    assert abs(val - expect) < 1e-6


# -- snapshots -------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    f = cos_field((3, 2), amp=1.25) + cos_field((1, 1), amp=-0.5) + SpectralField.scalar(2, {(0, 0): 0.75})
    path = tmp_path / "f"
    save_snapshot(f, path)
    assert [p.name for p in tmp_path.iterdir()] == ["f"]  # at the exact path: no .npz added
    with np.load(path, allow_pickle=False) as data:
        assert data["version"] == 3
        assert data["freqs"].tolist() == [[0, 0], [1, 1], [3, 2]]  # the origin and the upper half
    g = load_snapshot(path)
    assert g.dim == f.dim and g.rank == f.rank
    assert g.freqs.tobytes() == f.freqs.tobytes() and g.amps.tobytes() == f.amps.tobytes()


@pytest.mark.parametrize(
    "f",
    [
        SpectralField.scalar(
            2, {(1, 0): complex(-0.0, 1.5), (-1, 0): complex(-0.0, -1.5), (-2, 3): 0.25 - 0.0j, (2, -3): 0.25}
        ),
        SpectralField.vector(
            3,
            {
                (1, -2, 3): [1 + 2j, complex(-0.0, -0.5), 3.0],
                (-1, 2, -3): [1 - 2j, complex(-0.0, 0.5), 3.0],
                (0, 0, 1): [0, 1j, -1],
                (0, 0, -1): [0, -1j, -1],
                (0, 0, 0): [complex(2.0, -0.0), 0, -1],
            },
        ),
        SpectralField.zero(2, 1),
    ],
)
def test_snapshot_bytes_per_entry_rows(tmp_path, f):
    # the archive holds the stored arrays, one frequency row and one
    # amplitude row per entry of the origin and the upper half, bit for bit
    # (-0.0 kept), and loads back bitwise
    save_snapshot(f, tmp_path / "f.npz")
    with np.load(tmp_path / "f.npz", allow_pickle=False) as data:
        assert sorted(data.files) == ["amps", "freqs", "version"]
        assert data["version"] == 3 and data["freqs"].dtype == np.int64
        assert data["freqs"].shape == (len(f), f.dim)
        assert data["amps"].shape == (len(f),) + (f.dim,) * f.rank
        assert data["freqs"].tobytes() == f.freqs.tobytes()
        assert data["amps"].tobytes() == f.amps.tobytes()
        assert fields._upper(data["freqs"]).all()
    parts = f.amps.view(np.float64)
    assert (np.signbit(parts) & (parts == 0)).any() or f.is_zero()
    g = load_snapshot(tmp_path / "f.npz")
    assert (g.dim, g.rank) == (f.dim, f.rank)
    assert g.freqs.tobytes() == f.freqs.tobytes() and g.amps.tobytes() == f.amps.tobytes()


def test_snapshot_dict_stable(tmp_path):
    # a loaded snapshot saves back to the same bytes
    f = cos_field((1, 0)) + SpectralField.scalar(2, {(2, -1): 0.5j, (-2, 1): -0.5j})
    save_snapshot(f, tmp_path / "a.npz")
    save_snapshot(load_snapshot(tmp_path / "a.npz"), tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_save_snapshot_refuses_an_inexact_field(tmp_path):
    # the raw constructor trusts its caller; a field that stores a row below
    # 0 or a non-real origin would not load back, so it is not saved
    near = SpectralField(2, 0, [[-1, 0], [1, 0]], [0.5, 0.5 + 1e-17j])
    assert near.is_hermitian() and not near.is_half()
    unpaired = SpectralField(2, 0, [[-1, 0], [1, 0], [2, 0]], [0.5, 0.5, 1e-20])
    origin = SpectralField(1, 0, [[0]], [1 + 1e-20j])
    for f in (near, unpaired, origin):
        with pytest.raises(ValueError, match="half spectrum"):
            save_snapshot(f, tmp_path / "f.npz")
    assert not (tmp_path / "f.npz").exists()


def _archive(path, **members):
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    return path


@pytest.mark.parametrize("rank", [0, 1])
def test_load_snapshot_orders_shuffled_rows(tmp_path, rank):
    # the rows of an archive may come in any order: each amplitude follows
    # its frequency, bit for bit
    f = random_hermitian(np.random.default_rng(6), 3, 200, 6)
    if rank:
        f = gradient(f)
    save_snapshot(f, tmp_path / "sorted.npz")
    shuffle = np.random.default_rng(7).permutation(len(f.freqs))
    shuffled = _archive(tmp_path / "shuffled.npz", version=3, freqs=f.freqs[shuffle], amps=f.amps[shuffle])
    for path in (tmp_path / "sorted.npz", shuffled):
        g = load_snapshot(path)
        assert g.freqs.tobytes() == f.freqs.tobytes() and g.amps.tobytes() == f.amps.tobytes()


def test_load_snapshot_rejects_bad_archives(tmp_path):
    freqs = np.array([[0, 0], [1, 0]])
    amps = np.array([2.0, 0.5], dtype=complex)
    v1 = tmp_path / "v1.json"  # the JSON rows of format version 1
    v1.write_text(json.dumps({"version": 1, "d": 2, "rank": 0, "reality": True, "entries": [[1, 0, 1.0, 0.0]]}))
    bad = [
        v1,
        # format version 2: both halves, with the lower one
        _archive(tmp_path / "v2.npz", version=2, freqs=np.array([[-1, 0], [1, 0]]), amps=amps[[1, 1]]),
        _archive(tmp_path / "v4.npz", version=4, freqs=freqs, amps=amps),
        _archive(tmp_path / "object.npz", version=3, freqs=freqs, amps=amps.astype(object)),
        _archive(tmp_path / "float.npz", version=3, freqs=freqs * 1.0, amps=amps),
        _archive(tmp_path / "short.npz", version=3, freqs=freqs, amps=amps[:1]),
        _archive(tmp_path / "missing.npz", version=3, freqs=freqs),
        _archive(tmp_path / "below.npz", version=3, freqs=np.array([[0, 0], [0, -1]]), amps=amps),
        _archive(tmp_path / "repeated.npz", version=3, freqs=np.array([[1, 0], [1, 0]]), amps=amps),
        _archive(tmp_path / "complex_origin.npz", version=3, freqs=freqs, amps=amps * [1 + 1e-20j, 1]),
    ]
    for path in bad:
        with pytest.raises(ValueError):
            load_snapshot(path)
    good = _archive(tmp_path / "good.npz", version=3, freqs=freqs[::-1], amps=amps[::-1])
    assert load_snapshot(good).coeffs == {(-1, 0): 0.5, (0, 0): 2.0, (1, 0): 0.5}


def test_dim_mismatch_raises():
    f = cos_field((1, 0))
    g = cos_field((1, 0, 0))
    with pytest.raises(ValueError):
        f + g
