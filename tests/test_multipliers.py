"""Drift-operator symbols: frozen values, structural claims, JSON loading."""

import json
import math

import numpy as np
import pytest

from activeci.fields import SpectralField
from activeci.multipliers import (
    ClaimViolation,
    Multiplier,
    apply_T,
    check_claims,
    claim_sample,
    even_part,
    ipm2d,
    ipm3d,
    load_multiplier,
    mg,
    sqg,
)


def test_ipm2d_frozen_values():
    m = ipm2d()
    # oracle: xi = (1, 2), |xi|^2 = 5 -> (2/5, -1/5)
    assert np.allclose(m((1, 2)), [0.4, -0.2])
    # oracle: xi = (0, 1) -> (0, 0)
    assert np.allclose(m((0, 1)), [0.0, 0.0])
    assert np.allclose(m((1, 0)), [0.0, -1.0])


def test_ipm3d_frozen_values():
    m = ipm3d()
    # oracle: xi = (1, 2, 2), |xi|^2 = 9 -> (2/9, 4/9, -5/9)
    assert np.allclose(m((1, 2, 2)), [2.0 / 9.0, 4.0 / 9.0, -5.0 / 9.0])


def test_even_parts_frozen():
    m = ipm2d()
    # oracle: the two slab directions used throughout
    assert np.allclose(even_part(m, (4, 3)), [24.0 / 25.0, -32.0 / 25.0])
    assert np.allclose(even_part(m, (4, -3)), [-24.0 / 25.0, -32.0 / 25.0])


def test_symbol_rejects_origin():
    with pytest.raises(ValueError):
        ipm2d()((0, 0))


@pytest.mark.parametrize("maker", [ipm2d, ipm3d])
def test_ipm_claims_all_consistent(maker):
    report = check_claims(maker())
    for name, rec in report.items():
        assert rec["consistent"], f"{name}: {rec}"
        assert rec["pass"], f"{name}: {rec}"


def test_sqg_is_odd_and_says_so():
    report = check_claims(sqg())
    assert not report["not_odd"]["pass"]
    assert report["not_odd"]["consistent"]
    for name in ("homogeneous_deg0", "divergence_free", "real_output", "bounded"):
        assert report[name]["pass"], name


def test_mg_is_unbounded_and_says_so():
    report = check_claims(mg(), sample=[(l * l, l, 1) for l in range(1, 30)])
    assert not report["bounded"]["pass"]
    assert report["bounded"]["consistent"]
    assert report["bounded"]["max"] > 10.0


def test_apply_T_drops_mean_and_keeps_reality():
    m = ipm2d()
    theta = SpectralField.scalar(
        2,
        {(0, 0): 3.0, (1, 2): 1.0 + 0.5j, (-1, -2): 1.0 - 0.5j},
    )
    u = apply_T(m, theta)
    assert (0, 0) not in u.coeffs
    assert u.rank == 1
    assert np.allclose(u.coefficient((1, 2)), np.array([0.4, -0.2]) * (1.0 + 0.5j))
    assert u.is_half()


def test_apply_T_rejects_vectors_and_dim_mismatch():
    m = ipm2d()
    vec = SpectralField.vector(2, {(1, 0): np.array([1.0, 0.0]), (-1, 0): np.array([1.0, 0.0])})
    with pytest.raises(ValueError, match="scalar"):
        apply_T(m, vec)
    theta3 = SpectralField.scalar(3, {(1, 0, 0): 1.0, (-1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="dimension"):
        apply_T(m, theta3)


def test_apply_T_rejects_a_symbol_without_real_output():
    from activeci.multipliers import Multiplier

    m = Multiplier(2, ipm2d().symbol, "complex", claims={"real_output": False})
    theta = SpectralField.scalar(2, {(1, 2): 1.0, (-1, -2): 1.0})
    with pytest.raises(ValueError, match="real output"):
        apply_T(m, theta)


def test_apply_T_commutes_with_fractional_laplacian():
    from activeci.fields import fractional_laplacian

    m = ipm2d()
    theta = SpectralField.scalar(
        2,
        {(1, 2): 1.0 + 0.5j, (-1, -2): 1.0 - 0.5j, (3, 0): 0.2, (-3, 0): 0.2},
    )
    a = apply_T(m, fractional_laplacian(theta, 0.7))
    b = fractional_laplacian(apply_T(m, theta), 0.7)
    diff = (a - b).pruned(rel=1e-13)
    assert diff.is_zero() or diff.max_amp() < 1e-13 * b.max_amp()


def test_even_part_reflection_symmetry():
    m = ipm2d()
    for xi in [(1, 0), (4, 3), (-7, 2), (5, -5)]:
        neg = tuple(-c for c in xi)
        assert np.allclose(even_part(m, xi), even_part(m, neg))


def test_even_part_claim_violation_for_fake_symbol():
    from activeci.multipliers import Multiplier

    bad = Multiplier(2, lambda xi: np.array([1j, 0.0]), "bad")
    with pytest.raises(ClaimViolation):
        even_part(bad, (1, 0))


def test_load_multiplier_roundtrip(tmp_path):
    spec = {
        "name": "ipm2d-json",
        "dim": 2,
        "components": [
            {
                "num": [[1, 1, 1.0, 0.0]],
                "den": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]],
            },
            {
                "num": [[2, 0, -1.0, 0.0]],
                "den": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]],
            },
        ],
        "claims": {},
    }
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(spec))
    m = load_multiplier(path)
    ref = ipm2d()
    for xi in [(1, 0), (0, 3), (4, 3), (-7, 2)]:
        assert np.allclose(m(xi), ref(xi))
    report = check_claims(m)
    assert all(rec["pass"] for rec in report.values())


# -- the array contract ----------------------------------------------------
#
# Oracles evaluate each symbol one point at a time in Python scalars, the way
# the formulas read.


def ipm2d_point(x1, x2):
    n2 = x1 * x1 + x2 * x2
    return [x1 * x2 / n2, -x1 * x1 / n2]


def ipm3d_point(x1, x2, x3):
    n2 = x1 * x1 + x2 * x2 + x3 * x3
    return [x1 * x3 / n2, x2 * x3 / n2, -(x1 * x1 + x2 * x2) / n2]


def sqg_point(x1, x2):
    n = math.sqrt(x1 * x1 + x2 * x2)
    return [1j * x2 / n, -1j * x1 / n]


def mg_point(x1, x2, x3):
    if x3 == 0:
        return [0.0, 0.0, 0.0]
    n2 = x1 * x1 + x2 * x2 + x3 * x3
    den = x3 * x3 * n2 + x2**4
    return [
        (x2 * x3 * n2 + x1 * x2 * x2 * x3) / den,
        (-x1 * x3 * n2 + x2**3 * x3) / den,
        (-x2 * x2 * (x1 * x1 + x2 * x2)) / den,
    ]


def oracle(point_fn, pts):
    return np.array([point_fn(*p) for p in pts.tolist()], dtype=complex)


def probe_points(m):
    """The claim sample, and integer points at the 1e6 scale."""
    ang = np.linspace(0.0, np.pi, 720, endpoint=False)
    big = np.rint(1e6 * np.stack([np.cos(ang), np.sin(ang)], axis=1)).astype(np.int64)
    if m.dim == 3:
        big = np.random.default_rng(7).integers(-(10**6), 10**6, size=(720, 3))
        big[::7, 2] = 0  # rows on the xi3 = 0 plane
    return [np.array(claim_sample(m)), big[big.any(axis=1)]]


@pytest.mark.parametrize("maker, point_fn", [(ipm2d, ipm2d_point), (ipm3d, ipm3d_point)])
def test_ipm_symbols_are_bitwise_their_pointwise_formula(maker, point_fn):
    m = maker()
    for pts in probe_points(m):
        got = m(pts)
        assert got.shape == pts.shape
        assert got.tobytes() == oracle(point_fn, pts).tobytes()
        assert m(tuple(pts[3].tolist())).tobytes() == got[3].tobytes()


@pytest.mark.parametrize("maker, point_fn", [(sqg, sqg_point), (mg, mg_point)])
def test_diagnostic_symbols_agree_with_their_pointwise_formula(maker, point_fn):
    m = maker()
    for pts in probe_points(m):
        with np.errstate(all="raise"):
            got = m(pts)
        # mg's float numerators cancel at the 1e6 scale, where the oracle's
        # integers are exact
        assert np.allclose(got, oracle(point_fn, pts), rtol=1e-13, atol=1e-13)


def test_json_symbol_agrees_with_its_pointwise_formula(tmp_path):
    # a cubic numerator with a complex coefficient over a quartic denominator
    spec = {
        "dim": 2,
        "components": [
            {"num": [[3, 1, 1.0, 0.5]], "den": [[4, 0, 1.0, 0.0], [0, 4, 2.0, 0.0]]},
            {"num": [[1, 0, -1.0, 0.0]], "den": [[1, 0, 1.0, 0.0], [0, 1, 3.0, 0.0]]},
        ],
    }
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(spec))
    m = load_multiplier(path)

    def point(x1, x2):
        return [
            (1.0 + 0.5j) * x1**3 * x2 / (x1**4 + 2.0 * x2**4),
            -x1 / (x1 + 3.0 * x2),
        ]

    for pts in probe_points(m):
        pts = pts[pts[:, 0] + 3 * pts[:, 1] != 0]
        assert np.allclose(m(pts), oracle(point, pts), rtol=1e-14, atol=0.0)


def test_apply_T_calls_the_symbol_once():
    calls = []

    def sym(xi):
        calls.append(xi.shape)
        return ipm2d().symbol(xi)

    theta = SpectralField.scalar(
        2, {(0, 0): 1.0, (1, 2): 1.0, (-1, -2): 1.0, (3, 0): 0.5, (-3, 0): 0.5}
    )
    u = apply_T(Multiplier(2, sym, "counted"), theta)
    assert calls == [(2, 2)]  # once, on the upper half
    assert np.array_equal(u.amps, apply_T(ipm2d(), theta).amps)


def test_check_claims_witness_is_the_first_failing_sample_point():
    sample = [(1, 0), (0, 1), (2, 3), (-1, 4), (5, 5)]

    def sym(xi):
        # divergence free except on the points with x1 = -1 or 5
        val = ipm2d().symbol(xi)
        bad = (xi[..., 0] == -1) | (xi[..., 0] == 5)
        return val + np.where(bad, 1.0, 0.0)[..., None]

    report = check_claims(Multiplier(2, sym, "leaky"), sample=sample)
    assert report["divergence_free"] == {
        "pass": False,
        "witness": (-1, 4),
        "claimed": True,
        "consistent": False,
    }
    assert report["homogeneous_deg0"]["witness"] == ((1, 0), 5)  # (5, 0) fails
    assert report["not_odd"]["witness"] == (1, 0)
    assert check_claims(sqg())["not_odd"]["witness"] is None


@pytest.mark.parametrize("maker", [ipm2d, ipm3d])
def test_claim_sample_is_deterministic_and_in_range(maker):
    import random

    m = maker()
    state = random.getstate()
    pts = claim_sample(m, extra=[(3,) * m.dim])
    assert random.getstate() == state  # a private generator
    assert pts == claim_sample(m, extra=[(3,) * m.dim])
    axes = [tuple(s * e) for e in np.eye(m.dim, dtype=int) for s in (1, -1)]
    assert pts[: 2 * m.dim] == axes and pts[2 * m.dim] == (3,) * m.dim
    drawn = np.array(pts[2 * m.dim + 1 :])
    assert drawn.shape == (100, m.dim) and all(type(c) is int for xi in pts for c in xi)
    assert drawn.any(axis=1).all() and np.abs(drawn).max() <= 50
    assert len({tuple(xi) for xi in drawn}) > 90
