"""Direction bases and squared-amplitude reconstruction coefficients."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_harness import IPM2D_FILE

from activeci import directions
from activeci.directions import (
    DegenerateBasis,
    OutsideBall,
    build_basis,
    estimate_eps_omega,
    gamma_coefficients,
)
from activeci.multipliers import Multiplier, even_part, ipm2d, ipm3d, load_multiplier, sqg

SUPPLIED = ((4, 3), (4, -3))


@pytest.fixture(scope="module")
def basis():
    return build_basis(ipm2d(), supplied=SUPPLIED)


def test_supplied_basis_frozen_values(basis):
    assert basis.omega == [(4, 3), (4, -3)]
    assert basis.common_norm == 5
    # oracle: k* = sum of even parts / 2... the anchor direction
    assert np.allclose(basis.k_star, [0.0, -2.56])
    assert abs(basis.eps_omega - 0.6912) < 1e-12
    assert np.allclose(
        basis.even_parts,
        [[24.0 / 25.0, -32.0 / 25.0], [-24.0 / 25.0, -32.0 / 25.0]],
    )


def test_auto_basis_2d():
    b = build_basis(ipm2d())
    assert len(b.omega) == 2
    norms = [kx * kx + ky * ky for kx, ky in b.omega]
    assert norms[0] == norms[1]
    # the auto basis must itself reconstruct: sample the ball
    rng = np.random.default_rng(7)
    pts = b.k_star + b.eps_omega * rng.uniform(-0.5, 0.5, size=(50, 2))
    gam = gamma_coefficients(b, pts)
    recon = (gam**2) @ b.even_parts
    assert np.max(np.abs(recon - pts)) < 1e-10


def test_arc_rejects_odd_symbol():
    # sqg's even part is 0 everywhere: no probe sets a level to search
    with pytest.raises(DegenerateBasis):
        build_basis(sqg())


def test_lattice_basis_is_deterministic():
    for maker in (ipm2d, ipm3d):
        assert build_basis(maker()).omega == build_basis(maker()).omega


def test_search_returns_the_shipped_2d_basis(tmp_path):
    path = tmp_path / "ipm2d.json"
    path.write_text(json.dumps(IPM2D_FILE))
    for m in (ipm2d(), load_multiplier(str(path))):
        assert build_basis(m).omega == [(3, -4), (4, 3)]


def test_search_3d_basis_beats_the_supplied_one():
    m = ipm3d()
    b = build_basis(m)
    assert b.omega == [(1, -2, -2), (2, -1, 2), (2, 2, -1)]
    assert b.eps_omega >= build_basis(m, supplied=((2, 2, 1), (2, 1, 2), (1, 2, 2))).eps_omega
    rng = np.random.default_rng(3)
    pts = b.k_star + (b.eps_omega / np.sqrt(3)) * rng.uniform(-1.0, 1.0, size=(50, 3))
    gam = gamma_coefficients(b, pts)
    recon = (gam**2) @ b.even_parts
    assert np.max(np.abs(recon - pts)) < 1e-10


def test_exhausted_norm_cap_raises(monkeypatch):
    # ipm2d's first pair has norm 5
    monkeypatch.setattr(directions, "NORM_CAP", 4)
    with pytest.raises(DegenerateBasis, match="norm <= 4"):
        build_basis(ipm2d())


def flat4d():
    """A 4-D divergence-free even symbol whose even parts all lie in the
    first three axes, so no four of them are independent."""

    def sym(xi):
        x1, x2, x3 = xi[..., 0], xi[..., 1], xi[..., 2]
        n2 = np.sum(xi * xi, axis=-1)
        return np.stack([x1 * x3 / n2, x2 * x3 / n2, -(x1 * x1 + x2 * x2) / n2, 0.0 * n2], axis=-1)

    return Multiplier(4, sym, "flat4d")


def test_search_stops_before_an_oversized_array():
    # norms 1-4 give at most 46,376 4-sets; norm 5 would give 1.15e6 and
    # norm 7 1.4e7, so the search stops at norm 5 before listing them
    with pytest.raises(DegenerateBasis, match="4-sets of norm 5 .* supply a basis"):
        build_basis(flat4d())


def test_search_checks_its_probes(monkeypatch):
    # ipm3d's probe cube |xi_i| <= 8 holds 17^3 vectors of 3 entries
    monkeypatch.setattr(directions, "SEARCH_ENTRIES", 17**3 * 3 - 1)
    with pytest.raises(DegenerateBasis, match="probes"):
        build_basis(ipm3d())


def test_reconstruction_residual_seeded(basis):
    # acceptance-style: 1000 seeded random points in the ball
    rng = np.random.default_rng(0)
    n = 1000
    r = basis.eps_omega * np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2 * np.pi, n)
    pts = basis.k_star + np.c_[r * np.cos(ang), r * np.sin(ang)]
    gam = gamma_coefficients(basis, pts)
    recon = (gam**2) @ basis.even_parts
    rel = np.max(np.abs(recon - pts)) / np.max(np.abs(pts))
    assert rel <= 1e-12


def test_single_vector_interface(basis):
    gam = gamma_coefficients(basis, basis.k_star)
    assert set(gam) == set(basis.omega)
    v = sum(
        gam[k] ** 2 * even_part(ipm2d(), k) for k in basis.omega
    )
    assert np.allclose(v, basis.k_star, atol=1e-13)


def test_outside_ball_raises(basis):
    far = basis.k_star + np.array([2 * basis.eps_omega, 0.0])
    with pytest.raises(OutsideBall):
        gamma_coefficients(basis, far)


@given(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi))
@settings(max_examples=100, deadline=None)
def test_ball_always_reconstructs(u, ang):
    b = build_basis(ipm2d(), supplied=SUPPLIED)
    v = b.k_star + b.eps_omega * np.sqrt(u) * np.array(
        [np.cos(ang), np.sin(ang)]
    )
    gam = gamma_coefficients(b, v)
    recon = sum(gam[k] ** 2 * even_part(ipm2d(), k) for k in b.omega)
    assert np.allclose(recon, v, atol=1e-11)
    assert all(g >= 0 for g in gam.values())


def test_degenerate_supplied_rejected():
    with pytest.raises((DegenerateBasis, ValueError)):
        build_basis(ipm2d(), supplied=((4, 3), (-4, -3)))


@pytest.mark.parametrize("supplied", [((4, 3, 0), (4, -3, 0)), ((5,), (5,)), ((4, 3), (4, -3), (5, 0))])
def test_supplied_vectors_must_be_d_of_length_d(supplied):
    with pytest.raises(DegenerateBasis, match="2 vectors of length 2"):
        build_basis(ipm2d(), supplied=supplied)


def test_unequal_norms_rejected():
    with pytest.raises(ValueError):
        build_basis(ipm2d(), supplied=((4, 3), (1, 0)))


def test_eps_omega_closed_form(basis):
    # eps = 0.5 * (1 - margin) / max row norm of inv(E), E columns even parts
    E = basis.even_parts.T
    inv = np.linalg.inv(E)
    expect = 0.5 * (1.0 - basis.gamma_margin) / np.max(
        np.linalg.norm(inv, axis=1)
    )
    assert np.array_equal(basis.even_inv, inv)  # the basis keeps the one inverse
    assert abs(estimate_eps_omega(basis.even_inv, basis.gamma_margin) - expect) < 1e-15
    assert abs(basis.eps_omega - expect) < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gauss_jordan_is_lapack(d):
    # random stacks against LAPACK's det and inv, which runs never call
    a = np.random.default_rng(d).standard_normal((50, d, d))
    det, inv = directions._gauss_jordan(a)
    assert np.allclose(det, np.linalg.det(a), rtol=1e-12, atol=0)
    want = np.linalg.inv(a)
    err = np.linalg.norm(inv - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert err.max() < 1e-12
    one_det, one_inv = directions._gauss_jordan(a[0])
    assert one_det == det[0] and np.array_equal(one_inv, inv[0])


def test_gauss_jordan_singular_blocks_have_zero_det():
    rng = np.random.default_rng(3)
    blocks = []
    for d in (2, 3, 4):
        a = rng.standard_normal((4, d, d))
        a[0, 1] = 0.0  # a zero row
        a[1, :, 0] = 0.0  # a zero column
        a[2, 1] = a[2, 0]  # a repeated row
        a[3, -1] = -2.0 * a[3, 0]  # a row times a power of two
        blocks.append(a)
    blocks.append(np.zeros((1, 3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = [directions._gauss_jordan(a)[0] for a in blocks]
    assert all(np.array_equal(np.abs(det), np.zeros(len(det))) for det in dets)
    assert not any(np.isnan(directions._gauss_jordan(a)[1]).any() for a in blocks)


def test_supplied_3d_basis():
    m = ipm3d()
    omega = ((4, 0, 3), (0, 4, 3), (4, 3, 0))
    b = build_basis(m, supplied=omega)
    assert b.dim == 3
    rng = np.random.default_rng(1)
    pts = b.k_star + (b.eps_omega / np.sqrt(3)) * rng.uniform(
        -1.0, 1.0, size=(20, 3)
    )
    gam = gamma_coefficients(b, pts)
    recon = (gam**2) @ b.even_parts
    assert np.max(np.abs(recon - pts)) < 1e-10
