"""Stage construction: parameter schedule, base case, increment, cancellation."""

import copy
import dataclasses
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest

from activeci import fields
from activeci.directions import build_basis
from activeci.fields import (
    SpectralField,
    divergence,
    fractional_laplacian,
    gradient,
    mean_part,
    multiply,
    sobolev_norm,
)
from activeci.iteration import (
    EmptyInterval,
    IterationState,
    ZeroStress,
    amplitudes,
    base_state,
    build_increment,
    make_params,
    oscillation_diagnostics,
    residual_defect,
    step,
)
from activeci.multipliers import apply_T, ipm2d, ipm3d
from activeci.slabs import SlabSpec

SUPPLIED = ((4, 3), (4, -3))


@pytest.fixture(scope="module")
def setup():
    m = ipm2d()
    basis = build_basis(m, supplied=SUPPLIED)
    return m, basis


@pytest.fixture(scope="module")
def params(setup):
    _, basis = setup
    return make_params(basis, lambda1=256, qmax=1, grid_budget=8192)


def test_parameter_schedule_frozen(setup):
    _, basis = setup
    p = make_params(basis, lambda1=256, qmax=2, grid_budget=8192)
    # |k| = 5: r = largest 2^-b <= 5/70 = 1/14 -> 1/16
    assert p.r == Fraction(1, 16)
    # c = smallest-denominator odd dyadic in [1/5 + 1/16, 12/35 - 1/16]
    assert p.c == Fraction(17, 64)
    assert p.lam_schedule == [256, 4096]
    # largest eps = j/e with 2^j * 5 < lam/16 and j/e <= 1 - 2^-(q+2)
    assert p.eps_schedule == [1.0 / 8.0, 5.0 / 12.0]
    assert p.sigma(1) == 68
    assert p.sigma(2) == 1088
    assert not p.stage_flags[0]["degenerate"]
    assert p.stage_flags[0]["adapted"]


def _fraction_schedule(knorm):
    """The reference (r, c) by exact rational arithmetic: r the largest 2^-b
    <= (5/14)/|k|, c the odd (2a+1)/2^b of least b <= 30 in [1/|k| + r,
    12/(7|k|) - r]; c is None where no such b exists."""
    b_r = 0
    while Fraction(1, 2**b_r) > Fraction(5, 14 * knorm):
        b_r += 1
    r = Fraction(1, 2**b_r)
    lo, hi = Fraction(1, knorm) + r, Fraction(12, 7 * knorm) - r
    for b in range(1, 31):
        a = math.ceil((lo * 2**b - 1) / 2)
        if a <= math.floor((hi * 2**b - 1) / 2):
            return r, Fraction(2 * a + 1, 2**b)
    return r, None


# 23405 needs b = 30; 46811's interval holds no odd c/2^30
@pytest.mark.parametrize("knorm", [*range(1, 65), 23405, 46811])
def test_schedule_matches_the_fraction_reference(knorm):
    basis = types.SimpleNamespace(dim=2, common_norm=knorm)
    r, c = _fraction_schedule(knorm)
    if c is None:
        with pytest.raises(EmptyInterval):
            make_params(basis, qmax=1, lambda1=2**30, grid_budget=2**30)
        return
    for e in range(1, 31):
        if (c * 2**e).denominator != 1:
            with pytest.raises(ValueError, match="not an integer"):
                make_params(basis, qmax=1, lambda1=2**e, grid_budget=2**30)
            continue
        p = make_params(basis, qmax=2, lambda1=2**e, lam_step=2, grid_budget=2**31)
        assert (type(p.r), type(p.c)) == (float, float)
        assert (p.r, p.c) == (r, c)
        assert [p.sigma(1), p.sigma(2)] == [c * 2**e, c * 2 ** (e + 1)]
        p.lam_schedule[0] = 1  # sigma = c, an odd multiple of 2^-b
        with pytest.raises(ValueError, match="not an integer"):
            p.sigma(1)


def test_degenerate_stage_flagged(setup):
    _, basis = setup
    p = make_params(basis, lambda1=64, qmax=1, grid_budget=8192)
    # r*lam = 4 < |k| = 5: no harmonic can survive the low-pass
    assert p.stage_flags[0]["degenerate"]


def test_s_constraint_enforced(setup):
    _, basis = setup
    with pytest.raises(ValueError):
        make_params(basis, s=1.0, gamma=1.0)  # s <= d/2


def test_dimension_comes_from_the_basis(setup):
    # a d that differs from the basis's is rejected at set-up, not in the
    # first apply_T
    _, basis = setup
    basis3 = build_basis(ipm3d(), supplied=((2, 2, 1), (2, 1, 2), (1, 2, 2)))
    assert make_params(basis3, lambda1=128, qmax=1, grid_budget=128).d == 3
    assert make_params(basis, d=2, qmax=1).d == 2
    with pytest.raises(ValueError, match="d = 2 differs from the basis dimension 3"):
        make_params(basis3, d=2, lambda1=128, qmax=1, grid_budget=128)
    with pytest.raises(ValueError, match="d = 3 differs from the basis dimension 2"):
        make_params(basis, d=3, qmax=1)


def test_budget_enforced(setup):
    _, basis = setup
    with pytest.raises(ValueError):
        make_params(basis, lambda1=256, qmax=2, grid_budget=2048)


def test_base_state_invariants(setup, params):
    _, basis = setup
    st = base_state(params)
    assert st.q == 0
    assert mean_part(st.theta) == 0.0
    assert sobolev_norm(st.R, -params.s) < 1.0
    assert residual_defect(st.theta, st.u, st.R, params.gamma)[0] < 1e-12
    # base-case stress closed form: theta0 u0 - Lambda^{gamma-2} grad theta0
    R = multiply(st.theta, st.u) - fractional_laplacian(
        gradient(st.theta), params.gamma - 2.0
    )
    assert (R - st.R).pruned(rel=1e-13).is_zero()
    # at gamma 1.5 the amplitude is halved once; A and delta go to the base
    # history entry and leave the schedule as it was
    p = make_params(basis, gamma=1.5, lambda1=256, qmax=1)

    def schedule():
        return {f.name: getattr(p, f.name) for f in dataclasses.fields(p) if f.name not in ("basis", "kernel")}

    before = copy.deepcopy(schedule())
    entry = base_state(p).norm_history[0]
    assert schedule() == before
    assert (entry["A"], entry["delta"]) == (0.5, 0.125)


def test_amplitudes_constant_stress(setup, params):
    _, basis = setup
    Rbar = np.array([0.2, -0.5])
    R = SpectralField.vector(2, {(0, 0): Rbar.astype(complex)})
    spec = SlabSpec(k=(4, 3), lam=256, eps=1.0 / 8.0)
    a, info = amplitudes(R, params, spec)[(4, 3)]
    # constant stress -> constant amplitude, value (S eps/|R|)^{-1/2} Gamma
    assert set(a.coeffs) == {(0, 0)}
    assert info["R_max"] == pytest.approx(float(np.linalg.norm(Rbar)))
    from activeci.directions import gamma_coefficients

    v = basis.k_star - basis.eps_omega * Rbar / np.linalg.norm(Rbar)
    gam = gamma_coefficients(basis, v)[(4, 3)]
    expect = info["prefactor"] * gam
    assert abs(a.coefficient((0, 0)) - expect) < 1e-13 * abs(expect)


def test_amplitudes_zero_stress_raises(params):
    spec = SlabSpec(k=(4, 3), lam=256, eps=1.0 / 8.0)
    with pytest.raises(ZeroStress):
        amplitudes(SpectralField.vector(2, {}), params, spec)


def test_amplitudes_3d_hold_few_grids():
    # sup |R| and each direction's samples are streamed in row blocks, and a
    # direction holds only the box |xi_i| <= trunc of its half spectrum
    import tracemalloc

    m = ipm3d()
    basis = build_basis(m, supplied=((2, 2, 1), (2, 1, 2), (1, 2, 2)))
    params = make_params(basis, d=3, lambda1=128, qmax=1, grid_budget=128)
    R = base_state(params).R
    spec = SlabSpec(k=basis.omega[0], lam=128, eps=params.stage_eps(1))
    tracemalloc.start()
    try:
        out = amplitudes(R, params, spec, stress_cutoff=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    N = out[basis.omega[0]][1]["grid_N"]
    assert N == 64
    # under one float64 N^3 grid (0.9 of one now); 1.6 with the whole half
    # spectrum held, 2.8 with a real grid and its magnitudes too
    assert peak < N**3 * 8


def test_vector_sup_shares_one_buffer_set():
    # the components of the 3-D stress run through one complex scratch and
    # two real blocks, an accumulator and a scratch block: 0.42 MB in blocks
    # of 2^14 points, 1.66 MB in blocks of 2^16; one set of buffers per
    # component held 3.3 MB at 2^16
    import tracemalloc

    R, _, _ = _stage_stress(3)
    N = 64
    tracemalloc.start()
    try:
        fields._grid_sums(R, N, (math.inf,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N**3 * 8


def _dense_amplitudes(R, basis, info):
    """The solve on the whole stress grid, for reference: sample R, take the
    Gamma^2 coefficients by a LAPACK solve at every point, then the square
    root, prefactor, analysis and truncation of each direction."""
    N, d = info["grid_N"], basis.dim
    grid = np.stack([fields.sample(R.component(c), N) for c in range(d)])
    flat = grid.reshape(d, -1)
    rmax = float(np.sqrt(np.max(np.sum(flat**2, axis=0))))
    coeffs = np.linalg.solve(
        basis.even_parts.T, basis.k_star[:, None] - (basis.eps_omega / rmax) * flat
    )
    amps = np.sqrt(coeffs).reshape(grid.shape) * (info["S"] * basis.eps_omega / rmax) ** -0.5
    out = {}
    for col, k in enumerate(basis.omega):
        a = fields.analyze(amps[col])
        out[k] = a.weighted(a.radii() <= info["trunc_radius"])
    return rmax, out


def _stage_stress(dim):
    """The base state's stress in 2D (basis (4,3),(4,-3), lambda1 256) or
    3D (the benchmark's basis, lambda1 128), with its schedule and the
    first stage's slab spec."""
    if dim == 2:
        m = ipm2d()
        basis = build_basis(m, supplied=SUPPLIED)
        params = make_params(basis, lambda1=256, qmax=1, grid_budget=8192)
    else:
        m = ipm3d()
        basis = build_basis(m, supplied=((2, 2, 1), (2, 1, 2), (1, 2, 2)))
        params = make_params(basis, d=3, lambda1=128, qmax=1, grid_budget=128)
    spec = SlabSpec(k=basis.omega[0], lam=params.stage_lam(1), eps=params.stage_eps(1))
    return base_state(params).R, params, spec


def _random_stress(dim, modes, radius, seed, split=False):
    """A random real vector field; ``split`` zeroes one component of each
    mode, so the components' supports differ."""
    rng = np.random.default_rng(seed)
    entries = {}
    for _ in range(modes):
        xi = tuple(int(v) for v in rng.integers(-radius, radius + 1, dim))
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if split:
            amp[rng.integers(dim)] = 0.0
        entries[xi] = amp
        entries[tuple(-v for v in xi)] = amp.conj()
    entries[(0,) * dim] = rng.normal(size=dim).astype(complex)
    return SpectralField.vector(dim, entries)


@pytest.mark.parametrize(
    "dim,N,split",
    [pytest.param(d, N, False, id=f"{d}-{N}") for d, N in ((2, 64), (2, 1024), (3, 64))]
    + [pytest.param(d, 64, True, id=f"{d}-64-split") for d in (2, 3)],
)
def test_grid_sup_is_bitwise_dense(dim, N, split):
    # 1, 64 and 16 row blocks: the streamed sup |R| of the one sweep routine
    # is the dense one, bit for bit, on the grid and on its even subgrid,
    # also where the components, which share the sampling buffers, occupy
    # different lines
    R = _random_stress(dim, 40 if dim == 2 else 20, 30 if N > 64 else 12, seed=N + dim, split=split)
    grids = [fields.sample(R.component(c), N) for c in range(dim)]
    squares = np.sum(np.stack(grids) ** 2, axis=0)
    dense = [math.sqrt(float(np.max(sq))) for sq in (squares, squares[(slice(None, None, 2),) * dim])]
    assert list(fields._grid_sums(R, N, (math.inf,))[math.inf]) == dense


def _stage_case(dim, stage, request):
    """The stress of stage `stage` with the cutoff build_increment applies
    for the next stage (2D stage 1: 277 coefficients, a 512^2 grid)."""
    R, params, spec = _stage_stress(dim)
    if stage:
        _, st1, _ = request.getfixturevalue("stage1")
        R, lam, eps = st1.R, 4096, 5.0 / 12.0  # the default run's second stage
    else:
        lam, eps = params.stage_lam(1), params.stage_eps(1)
    return R, params, spec, max(2.0, round(lam**eps) * params.basis.common_norm / 2.0)


def _coefficient_grids(R, basis, info):
    """Each direction's Gamma^2 coefficients sampled on the whole grid: the
    stress spectrum times a row of E^-1, plus (E^-1 k*)_k at xi = 0."""
    N, d = info["grid_N"], basis.dim
    rows = (-basis.eps_omega / info["R_max"]) * basis.even_inv
    means = (basis.even_inv * basis.k_star).sum(axis=1)
    origin = np.zeros((1, d), dtype=np.int64)
    return [
        fields.sample(SpectralField(d, 0, R.freqs, (R.amps * row).sum(axis=1)) + SpectralField(d, 0, origin, [mean]), N)
        for row, mean in zip(rows, means)
    ]


@pytest.mark.parametrize("dim,stage", [(2, 0), (3, 0), (2, 1)])
def test_amplitudes_are_bitwise_the_grid_round_trip(dim, stage, request):
    # the streamed amplitudes equal, bit for bit, each direction's whole
    # grid taken through the square root, prefactor, analyze and radius cut;
    # the tail is the relative mass beyond the radius, numpy's fftn's by
    # Parseval above the roundoff floor
    R, params, spec, cutoff = _stage_case(dim, stage, request)
    basis = params.basis
    out = amplitudes(R, params, spec, stress_cutoff=cutoff)
    info = out[basis.omega[0]][1]
    N, trunc = info["grid_N"], info["trunc_radius"]
    radius2 = sum(ax**2 for ax in np.meshgrid(*[np.fft.fftfreq(N, 1.0 / N)] * dim, indexing="ij"))
    for k, grid in zip(basis.omega, _coefficient_grids(R.weighted(R.radii() <= cutoff), basis, info)):
        values = np.sqrt(grid) * info["prefactor"]
        a_full = fields.analyze(values)
        a, got = a_full.weighted(a_full.radii() <= trunc), out[k][0]
        assert got.freqs.tobytes() == a.freqs.tobytes()
        assert got.amps.tobytes() == a.amps.tobytes()
        mass = np.abs(np.fft.fftn(values) / N**dim) ** 2
        tail = math.sqrt(mass[radius2 > trunc**2].sum() / mass.sum())
        if tail > 1e-13:
            assert out[k][1]["tail_fraction"] == pytest.approx(tail, rel=1e-6)
        else:
            assert out[k][1]["tail_fraction"] < 1e-13


@pytest.mark.parametrize("dim,stage", [(2, 0), (3, 0), (2, 1)])
def test_amplitudes_match_dense_solve(dim, stage, request):
    R, params, spec, cutoff = _stage_case(dim, stage, request)
    basis = params.basis
    out = amplitudes(R, params, spec, stress_cutoff=cutoff)
    info = out[basis.omega[0]][1]
    rmax, dense = _dense_amplitudes(R.weighted(R.radii() <= cutoff), basis, info)
    assert info["R_max"] == rmax
    for k in basis.omega:
        a, ref = out[k][0], dense[k]
        assert np.array_equal(a.freqs, ref.freqs)
        assert np.max(np.abs(a.amps - ref.amps)) <= 1e-13 * ref.max_amp()


@pytest.mark.parametrize("dim", [2, 3])
def test_amplitudes_margin_guard(dim):
    # at four times eps_Omega the Gamma^2 coefficients leave the margin: the
    # guard raises before the square root of a negative number is taken, and
    # names the min of the first such direction's whole grid
    R, params, spec = _stage_stress(dim)
    info = amplitudes(R, params, spec, stress_cutoff=2.0)[params.basis.omega[0]][1]
    wide = dataclasses.replace(params.basis, eps_omega=4 * params.basis.eps_omega)
    grids = _coefficient_grids(R.weighted(R.radii() <= 2.0), wide, info)
    cmin = next(float(g.min()) for g in grids if g.min() < wide.gamma_margin * (1 - 1e-9))
    with pytest.raises(ValueError, match=re.escape(f"amplitude coefficient {cmin:.3g} fell below the margin")):
        amplitudes(R, dataclasses.replace(params, basis=wide), spec, stress_cutoff=2.0)


@pytest.fixture(scope="module")
def stage1(params):
    st0 = base_state(params)
    st1, bundle = step(st0, params)
    return st0, st1, bundle


def test_increment_single_annulus(stage1, params):
    _, _, bundle = stage1
    lam = params.stage_lam(1)
    for xi in bundle.w.coeffs:
        mag = np.hypot(*xi)
        assert lam <= mag <= (12.0 / 7.0) * lam + 1e-9


def test_increment_mean_free_and_real(stage1):
    _, _, bundle = stage1
    assert (0, 0) not in bundle.w.coeffs
    assert bundle.w.is_half()


def test_stage_one_contracts(stage1, params):
    st0, st1, _ = stage1
    r0 = sobolev_norm(st0.R, -params.s)
    r1 = sobolev_norm(st1.R, -params.s)
    assert r1 < r0
    assert st1.norm_history[-1]["ratio"] == pytest.approx(r1 / r0)


def test_stage_invariants_after_step(stage1, setup, params):
    m, _ = setup
    _, st1, _ = stage1
    assert mean_part(st1.theta) == 0.0
    assert residual_defect(st1.theta, st1.u, st1.R, params.gamma)[0] <= 1e-10
    diff = (st1.u - apply_T(m, st1.theta)).max_amp()
    assert diff <= 1e-12 * st1.u.max_amp()


def test_step_keeps_its_bundle_and_diagnostics(stage1, params):
    st0, st1, bundle = stage1
    assert st0.increments == [] and st0.diagnostics is None
    assert st1.increments[-1] is bundle
    assert st1.diagnostics == oscillation_diagnostics(bundle, st0, params)


def first_stage_3d():
    basis = build_basis(ipm3d(), supplied=((2, 2, 1), (2, 1, 2), (1, 2, 2)))
    params = make_params(basis, d=3, lambda1=128, qmax=1, grid_budget=128)
    st0 = base_state(params)
    _, bundle = step(st0, params)
    return params, st0, bundle


def test_oscillation_diagnostics_cancellation(stage1, params):
    st0, _, bundle = stage1
    cases = [(params, st0, bundle), first_stage_3d()]
    for p, st0, bundle in cases:
        basis = p.basis
        d = oscillation_diagnostics(bundle, st0, p)
        assert d["ratio"] < 1.0
        # each w_k lies within r lam of +-sigma k, so w_a T w_b (a != b) sits
        # at least lam (c min |k_a +- k_b| - 2 r) from the origin
        ks = [np.array(k, dtype=float) for k in basis.omega]
        gap = min(
            np.linalg.norm(ka + sign * kb)
            for i, ka in enumerate(ks)
            for kb in ks[i + 1 :]
            for sign in (1.0, -1.0)
        )
        lam, c, r = p.stage_lam(1), float(p.c), float(p.r)
        assert d["offdiag_threshold"] == pytest.approx(lam * (c * gap - 2.0 * r))
        assert d["offdiag_separated"]
        assert d["mean_cancellation_rel"] < 0.1


def test_degenerate_stage_zero_increment(setup):
    _, basis = setup
    p = make_params(basis, lambda1=64, qmax=1, grid_budget=8192)
    st0 = base_state(p)
    st1, bundle = step(st0, p)
    assert bundle.degenerate
    assert bundle.w.is_zero()
    assert st1.norm_history[-1]["ratio"] == pytest.approx(1.0)


def test_carrier_separation(stage1, params):
    # the two w_k carrier bands sigma*k do not overlap: every coefficient of
    # w lies within the low-pass reach of exactly one carrier
    _, _, bundle = stage1
    sigma = params.sigma(1)
    reach = float(params.r) * params.stage_lam(1)
    carriers = [np.array(k, dtype=float) * sigma for k in bundle.per_k]
    for xi in bundle.w.coeffs:
        xiv = np.asarray(xi, dtype=float)
        close = sum(
            1
            for cvec in carriers
            for sign in (1.0, -1.0)
            if np.linalg.norm(xiv - sign * cvec) <= reach + 1e-9
        )
        assert close == 1


@pytest.mark.parametrize("dim", [2, 3])
def test_params_are_the_construction_context(dim):
    # the default 2-D basis, built from the symbol, and the 3-D workload basis
    if dim == 2:
        m = ipm2d()
        params = make_params(build_basis(m))
    else:
        m = ipm3d()
        basis = build_basis(m, supplied=((2, 2, 1), (2, 1, 2), (1, 2, 2)))
        params = make_params(basis, d=3, lambda1=128, qmax=1, grid_budget=128)
    assert params.basis.multiplier is m
    assert params.kernel.r == float(params.r)
    # a copy with another r gets its own kernel; the original keeps its own
    wide = dataclasses.replace(params, r=Fraction(1, 8))
    assert wide.kernel.r == 0.125
    assert params.kernel.r == float(params.r) != 0.125
