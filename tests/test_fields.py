"""Sparse spectral fields: algebra, transforms, calculus, norms, snapshots."""

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
    field_from_snapshot,
    field_to_snapshot,
    fractional_laplacian,
    gradient,
    load_snapshot,
    low_pass,
    lp_norm,
    lp_norm_detailed,
    lp_norms,
    mean_part,
    multiply,
    nonzero_part,
    sample,
    save_snapshot,
    shell_project,
    sobolev_norm,
    synthesize,
)
from activeci.kernels import ShellKernel


def cos_field(freq, amp=1.0):
    """Real field amp*cos(2 pi freq . x) as a hermitian coefficient pair."""
    neg = tuple(-c for c in freq)
    return SpectralField.scalar(
        2, {freq: amp / 2.0, neg: amp / 2.0}, reality=True
    )


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
    return SpectralField.scalar(2, coeffs, reality=True)


# -- construction and algebra ---------------------------------------------


def test_scalar_vector_ranks():
    f = SpectralField.scalar(2, {(1, 0): 1.0})
    v = SpectralField.vector(2, {(1, 0): np.array([1.0, 2.0])})
    assert f.rank == 0 and v.rank == 1
    assert np.allclose(v.component(0).coefficient((1, 0)), 1.0)
    assert np.allclose(v.component(1).coefficient((1, 0)), 2.0)


def test_add_sub_scaled_shifted():
    f = cos_field((1, 0))
    g = cos_field((1, 0), amp=-1.0)
    assert (f + g).pruned().is_zero()
    assert (f - f).pruned().is_zero()
    h = f.scaled(3.0)
    assert abs(h.coefficient((1, 0)) - 1.5) < 1e-15
    sh = f.shifted((2, 1))
    assert set(sh.coeffs) == {(3, 1), (1, 1)}


def test_max_freq_and_amp():
    f = SpectralField.scalar(2, {(3, 4): 2.0, (1, 0): 5.0})
    assert f.max_freq == 5.0
    assert list(f.max_axis_freq()) == [3, 4]
    assert f.max_amp() == 5.0


@given(hermitian_scalars())
@settings(max_examples=40)
def test_hermitian_detection(f):
    assert f.is_hermitian()


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
    N = 1
    while N < 2 * band + 2:
        N *= 2
    N = max(N, 8)
    grid = synthesize(f, N).values * synthesize(g, N).values
    from activeci.fields import GridBuffer

    via_grid = analyze(GridBuffer(2, N, grid))
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
    return SpectralField.scalar(dim, coeffs, reality=True)


def product_cases(rng):
    """scalar x scalar and scalar x vector products in 2-D and 3-D."""
    return [
        (random_hermitian(rng, 2, 12, 6), random_hermitian(rng, 2, 9, 5)),
        # modes near +-(200, 70) form two clusters, so two cluster pairs
        (random_hermitian(rng, 2, 10, 4, (200, 70)), random_hermitian(rng, 2, 6, 3)),
        (random_hermitian(rng, 3, 8, 3), random_hermitian(rng, 3, 8, 2)),
        (
            random_hermitian(rng, 2, 10, 4, (200, 70)),
            SpectralField.from_components(
                [random_hermitian(rng, 2, 7, 4), random_hermitian(rng, 2, 5, 6)]
            ),
        ),
        (
            random_hermitian(rng, 3, 6, 3),
            SpectralField.from_components([random_hermitian(rng, 3, 5, 2) for _ in range(3)]),
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
        assert fg.rank == g.rank and fg.reality
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
    g = SpectralField(
        2,
        1,
        {
            (0, 5): np.array([1.0, 1.0], dtype=complex),
            (3, 3): np.array([1.0, 1e-17], dtype=complex),
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
        assert box.reality and box.rank == g.rank and set(box.coeffs) == set(fg.coeffs)
        diff = (box - fg).pruned(rel=0.0)
        assert diff.is_zero() or diff.max_amp() < 1e-13 * fg.max_amp()


def test_multiply_scalar_vector():
    f = cos_field((1, 0))
    v = SpectralField.vector(
        2,
        {(0, 1): np.array([1.0, 2.0]) / 2.0, (0, -1): np.array([1.0, 2.0]) / 2.0},
        reality=True,
    )
    fv = multiply(f, v)
    assert fv.rank == 1
    assert np.allclose(fv.coefficient((1, 1)), [0.25, 0.5])


# -- transforms ------------------------------------------------------------


def test_synthesize_analyze_roundtrip():
    f = cos_field((3, 2), amp=1.7) + cos_field((1, 0), amp=-0.4)
    g = analyze(synthesize(f, 16))
    diff = (f - g).pruned(rel=1e-13)
    assert diff.is_zero() or diff.max_amp() < 1e-13


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
    f = SpectralField.scalar(2, {(1, 4): 0.3 - 0.8j, (-1, -4): 0.3 + 0.8j}, reality=True)
    f = f + cos_field((3, 4), amp=0.5) + cos_field((0, 4))
    vals = sample(f, 8)
    assert vals.dtype == np.float64
    assert np.allclose(vals, direct_samples(f, 8).real, atol=1e-13)


def test_sample_real_fft_3d():
    f = random_hermitian(np.random.default_rng(5), 3, 10, 5)
    vals = sample(f, 8)  # frequencies up to 5 wrap on every axis
    assert vals.dtype == np.float64 and vals.shape == (8, 8, 8)
    assert np.allclose(vals, direct_samples(f, 8).real, atol=1e-12)


def test_sample_non_hermitian_is_complex():
    f = SpectralField.scalar(2, {(1, 0): 1.0, (2, 3): 0.5j})
    assert not f.reality
    vals = sample(f, 8)
    assert np.iscomplexobj(vals)
    assert np.allclose(vals, direct_samples(f, 8), atol=1e-13)


def test_norms_sample_each_grid_once(monkeypatch):
    k = ShellKernel()
    # every mode on the plateau 4 <= |xi| <= 6.86 of shell j = 2
    f = cos_field((5, 0), 2.0) + cos_field((3, 4), 0.7) + cos_field((4, -4), -0.4)
    grids = Counter()
    original = fields.sample

    def counting(field, N):
        grids[N] += 1
        return original(field, N)

    monkeypatch.setattr(fields, "sample", counting)
    ps = (1.0, 4.0 / 3.0, 1.5, 2.0, math.inf)
    lp = lp_norms(f, ps, 256)
    besov = [besov_norm(f, alpha, k, 256) for alpha in (-0.1, -0.5, -0.9)]
    assert [lp_norm_detailed(f, p, 256) for p in ps] == [lp[p] for p in ps]
    # band 5: 16 points dealias |f|, 32 dealias |f|^2 and the sup
    assert grids == Counter({16: 1, 32: 1})
    assert besov == [2.0 ** (2 * alpha) * lp[math.inf][0] for alpha in (-0.1, -0.5, -0.9)]
    # one p at a time on a fresh field gives the same values
    fresh = SpectralField.scalar(2, dict(f.coeffs), reality=True)
    assert {p: lp_norm_detailed(fresh, p, 256) for p in ps} == lp


def test_shell_project_plateau_returns_field():
    f = cos_field((5, 0)) + cos_field((3, 4))
    assert shell_project(f, 2, ShellKernel()) is f


def test_parseval():
    f = cos_field((3, 2), amp=2.0)
    l2 = lp_norm(f, 2.0, grid_budget=64)
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
    u = SpectralField.from_components([g.component(1), g.component(0).scaled(-1.0)])
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


def test_lp_norm_oracles():
    f = cos_field((5, 0), amp=2.0)
    # ||2 cos||_2 = sqrt(2), ||2 cos||_1 = 4/pi, ||2 cos||_inf = 2
    n2, _ = lp_norm_detailed(f, 2.0, grid_budget=256)
    n1, err1 = lp_norm_detailed(f, 1.0, grid_budget=256)
    ninf, _ = lp_norm_detailed(f, np.inf, grid_budget=256)
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
    f = cos_field((3, 2), amp=1.25) + cos_field((1, 1), amp=-0.5)
    path = tmp_path / "f.json"
    save_snapshot(f, path)
    g = load_snapshot(path)
    assert g.dim == f.dim and g.rank == f.rank and g.reality == f.reality
    diff = (f - g).pruned(rel=1e-15)
    assert diff.is_zero() or diff.max_amp() < 1e-15


def test_snapshot_dict_stable():
    f = cos_field((1, 0))
    assert field_to_snapshot(f) == field_to_snapshot(field_from_snapshot(field_to_snapshot(f)))


def test_dim_mismatch_raises():
    f = SpectralField.scalar(2, {(1, 0): 1.0})
    g = SpectralField.scalar(3, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        f + g
