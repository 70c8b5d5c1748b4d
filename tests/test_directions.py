"""Direction bases and squared-amplitude reconstruction coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeci.directions import (
    DegenerateBasis,
    OutsideBall,
    build_basis,
    estimate_eps_omega,
    find_arc,
    gamma_coefficients,
    lattice_basis_in_arc,
)
from activeci.multipliers import even_part, ipm2d, ipm3d, sqg

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
    from activeci.directions import NoArcFound

    with pytest.raises(NoArcFound):
        find_arc(sqg())


def test_lattice_basis_is_deterministic():
    arc = find_arc(ipm2d())
    assert lattice_basis_in_arc(arc) == lattice_basis_in_arc(arc)


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
