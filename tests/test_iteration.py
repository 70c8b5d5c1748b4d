"""Stage construction: parameter schedule, base case, increment, cancellation."""

from fractions import Fraction

import numpy as np
import pytest

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
from activeci.kernels import ShellKernel
from activeci.multipliers import apply_T, ipm2d
from activeci.slabs import SlabSpec, build_profile

SUPPLIED = ((4, 3), (4, -3))


@pytest.fixture(scope="module")
def setup():
    m = ipm2d()
    basis = build_basis(m, supplied=SUPPLIED)
    kernel = ShellKernel()
    profile = build_profile("odd-bump")
    return m, basis, kernel, profile


@pytest.fixture(scope="module")
def params(setup):
    _, basis, _, _ = setup
    return make_params(basis, lambda1=256, qmax=1, grid_budget=8192)


def test_parameter_schedule_frozen(setup):
    _, basis, _, _ = setup
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


def test_degenerate_stage_flagged(setup):
    _, basis, _, _ = setup
    p = make_params(basis, lambda1=64, qmax=1, grid_budget=8192)
    # r*lam = 4 < |k| = 5: no harmonic can survive the low-pass
    assert p.stage_flags[0]["degenerate"]


def test_s_constraint_enforced(setup):
    _, basis, _, _ = setup
    with pytest.raises(ValueError):
        make_params(basis, s=1.0, gamma=1.0)  # s <= d/2


def test_budget_enforced(setup):
    _, basis, _, _ = setup
    with pytest.raises(ValueError):
        make_params(basis, lambda1=256, qmax=2, grid_budget=2048)


def test_base_state_invariants(setup, params):
    m, basis, _, _ = setup
    st = base_state(params, m, basis)
    assert st.q == 0
    assert mean_part(st.theta) == 0.0
    assert sobolev_norm(st.R, -params.s) < 1.0
    assert residual_defect(st.theta, st.u, st.R, params.gamma) < 1e-12
    # base-case stress closed form: theta0 u0 - Lambda^{gamma-2} grad theta0
    R = multiply(st.theta, st.u) - fractional_laplacian(
        gradient(st.theta), params.gamma - 2.0
    )
    assert (R - st.R).pruned(rel=1e-13).is_zero()


def test_amplitudes_constant_stress(setup, params):
    m, basis, kernel, profile = setup
    Rbar = np.array([0.2, -0.5])
    R = SpectralField.vector(2, {(0, 0): Rbar.astype(complex)}, reality=True)
    spec = SlabSpec(k=(4, 3), lam=256, eps=1.0 / 8.0, profile=profile)
    a, info = amplitudes(R, basis, params, spec, kernel)[(4, 3)]
    # constant stress -> constant amplitude, value (S eps/|R|)^{-1/2} Gamma
    assert set(a.coeffs) == {(0, 0)}
    assert info["R_max"] == pytest.approx(float(np.linalg.norm(Rbar)))
    from activeci.directions import gamma_coefficients

    v = basis.k_star - basis.eps_omega * Rbar / np.linalg.norm(Rbar)
    gam = gamma_coefficients(basis, v)[(4, 3)]
    expect = info["prefactor"] * gam
    assert abs(a.coefficient((0, 0)) - expect) < 1e-13 * abs(expect)


def test_amplitudes_zero_stress_raises(setup, params):
    m, basis, kernel, profile = setup
    spec = SlabSpec(k=(4, 3), lam=256, eps=1.0 / 8.0, profile=profile)
    with pytest.raises(ZeroStress):
        amplitudes(SpectralField.vector(2, {}), basis, params, spec, kernel)


@pytest.fixture(scope="module")
def stage1(setup, params):
    m, basis, kernel, profile = setup
    st0 = base_state(params, m, basis)
    st1, bundle = step(st0, params, basis, m, kernel, profile)
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
    assert bundle.w.is_hermitian()


def test_stage_one_contracts(stage1, params):
    st0, st1, _ = stage1
    r0 = sobolev_norm(st0.R, -params.s)
    r1 = sobolev_norm(st1.R, -params.s)
    assert r1 < r0
    assert st1.norm_history[-1]["ratio"] == pytest.approx(r1 / r0)


def test_stage_invariants_after_step(stage1, setup, params):
    m, _, _, _ = setup
    _, st1, _ = stage1
    assert mean_part(st1.theta) == 0.0
    assert residual_defect(st1.theta, st1.u, st1.R, params.gamma) <= 1e-10
    diff = (st1.u - apply_T(m, st1.theta)).max_amp()
    assert diff <= 1e-12 * st1.u.max_amp()


def test_oscillation_diagnostics_cancellation(stage1, setup, params):
    m, basis, _, _ = setup
    st0, _, bundle = stage1
    d = oscillation_diagnostics(bundle, st0, params, basis, m)
    assert d["ratio"] < 1.0
    assert d["offdiag_separated"]
    assert d["mean_cancellation_rel"] < 0.1


def test_degenerate_stage_zero_increment(setup):
    m, basis, kernel, profile = setup
    p = make_params(basis, lambda1=64, qmax=1, grid_budget=8192)
    st0 = base_state(p, m, basis)
    st1, bundle = step(st0, p, basis, m, kernel, profile)
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
