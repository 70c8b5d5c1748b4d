"""Intermittent slabs: profile transform, series/physical agreement, scaling."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from activeci.slabs import (
    PROFILE,
    _line_slope,
    TRAP_N,
    Profile,
    SlabSpec,
    build_profile,
    certify_scaling,
    slab_fourier,
    slab_physical,
    write_scaling_csv,
)


@pytest.fixture(scope="module")
def profile():
    return build_profile()


def test_profile_normalization_and_oddness(profile):
    # L^2 norm over [-1, 1] equals 1 by construction
    val, _ = quad(lambda x: profile(np.array([x]))[0] ** 2, -1.0, 1.0)
    assert abs(val - 1.0) < 1e-10
    x = np.linspace(0.01, 0.99, 25)
    assert np.allclose(profile(-x), -profile(x), atol=1e-15)
    # compactly supported
    assert np.allclose(profile(np.array([1.0, 1.5, -2.0])), 0.0)


def test_profile_norm_constant_frozen(profile):
    # frozen oracle for the normalization constant
    assert abs(profile.norm_const - 3.8603051878895536) < 1e-10


def test_fhat_oracle_against_direct_quadrature(profile):
    # fhat(t) = integral of phi(x) e^{-2 pi i t x} over [-1, 1]
    # = -2i * int_0^1 phi(x) sin(2 pi t x) dx by oddness
    for t in (0.3, 1.0, 2.7):
        re, _ = quad(lambda x: profile(np.array([x]))[0] * math.cos(2 * np.pi * t * x), -1, 1, limit=200)
        im, _ = quad(lambda x: -profile(np.array([x]))[0] * math.sin(2 * np.pi * t * x), -1, 1, limit=200)
        got = profile.fhat(t)
        assert abs(got - complex(re, im)) < 1e-10
    # the trapezoid transform is exact up to roundoff over the whole range
    # slab series use (mode caps stop near t = 80) and beyond: compare with
    # quad's oscillatory-weight rule on [0, 1]
    for t in [*np.linspace(1.6, 80.0, 50), 200.0]:
        integral, _ = quad(
            lambda x: profile(np.array([x]))[0],
            0.0,
            1.0,
            weight="sin",
            wvar=2.0 * np.pi * t,
            limit=400,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        assert abs(profile.fhat(t) - (-2.0j * integral)) < 1e-14
    # beyond |t| = TRAP_N/2 the alias bound no longer holds: refuse
    with pytest.raises(ValueError):
        profile.fhat(TRAP_N / 2 + 1)
    # a negative t computed first is the conjugate of the positive one
    fresh = Profile(norm_const=profile.norm_const)
    assert abs(fresh.fhat(-0.9) - np.conj(profile.fhat(0.9))) < 1e-15
    # oddness: fhat(0) = 0, fhat(-t) = conj(fhat(t)) = -fhat(t) (imaginary)
    assert abs(profile.fhat(0.0)) < 1e-12
    assert abs(profile.fhat(0.7) + profile.fhat(-0.7)) < 1e-14
    assert abs(np.real(profile.fhat(0.7))) < 1e-12


def test_slabspec_validation():
    with pytest.raises(ValueError):
        SlabSpec(k=(4, 3), lam=100, eps=0.5)  # not pow2
    with pytest.raises(ValueError):
        SlabSpec(k=(4, 3), lam=256, eps=0.3)  # lam^eps not int
    with pytest.raises(ValueError):
        SlabSpec(k=(4, 3), lam=2, eps=1.0)  # no disjointness
    spec = SlabSpec(k=(4, 3), lam=256, eps=0.5)
    assert spec.harmonic_step == 16


def test_slab_mean_free_and_support():
    spec = SlabSpec(k=(4, 3), lam=64, eps=0.5)
    f = slab_fourier(spec, mode_cap=40)
    assert (0, 0) not in f.coeffs
    assert f.is_half()
    step = spec.harmonic_step
    for xi in f.coeffs:
        # every mode is a multiple of lam^eps k
        assert xi[0] * spec.k[1] == xi[1] * spec.k[0]
        assert xi[0] % (step * spec.k[0]) == 0


def test_poisson_summation_agreement():
    # Fourier-series values match the direct translated-profile sum
    rng = np.random.default_rng(42)
    for lam, eps in [(64, 0.5), (256, 0.5), (256, 0.25)]:
        spec = SlabSpec(k=(4, 3), lam=lam, eps=eps)
        f = slab_fourier(spec)
        pts = rng.uniform(0.0, 1.0, size=(20, 2))
        scale = max(abs(slab_physical(spec, x)) for x in pts)
        scale = max(scale, spec.lam ** ((1 - eps) / 2) * 0.1)
        for x in pts:
            series = sum(
                np.real(a * np.exp(2j * np.pi * np.dot(xi, x)))
                for xi, a in f.coeffs.items()
            )
            direct = slab_physical(spec, x)
            assert abs(series - direct) / scale < 1e-8


def test_l2_norm_is_scale_invariant():
    # ||rho||_{L^2} = ||phi||_{L^2([-1,1])} = 1 at every (lam, eps)
    from activeci.slabs import _line_norm

    for lam, eps in [(64, 0.5), (1024, 0.5), (4096, 0.25)]:
        spec = SlabSpec(k=(4, 3), lam=lam, eps=eps)
        assert abs(_line_norm(spec, 2.0) - 1.0) < 1e-3


def test_certified_scaling_slopes():
    rows = certify_scaling((4, 3), [64, 256, 1024, 4096], 0.5, [1.0, 2.0, np.inf])
    by_p = {}
    for row in rows:
        by_p[row["p"]] = row
    assert abs(by_p[1.0]["fitted_slope"] - (-0.25)) < 0.05 * 1.0
    assert abs(by_p[2.0]["fitted_slope"] - 0.0) < 0.05
    assert abs(by_p["inf"]["fitted_slope"] - 0.25) < 0.05
    for row in rows:
        assert abs(row["deviation"]) < 0.05


def test_line_slope_is_polyfit():
    # the closed-form slope against numpy's least-squares fit: on the
    # default scaling table and on item-4-like log totals, stages skipped
    rows = certify_scaling((4, 3), [64, 256, 1024, 4096], 0.5, [1.0, 2.0, np.inf])
    cases = []
    for p in (1.0, 2.0, "inf"):
        table = [row for row in rows if row["p"] == p]
        x, y = np.log2([row["lam"] for row in table]), np.log2([row["norm"] for row in table])
        assert {row["fitted_slope"] for row in table} == {_line_slope(x, y)}
        cases.append((x, y))
    cases += [
        ([1, 2, 3], np.log([0.41, 0.97, 2.58])),
        ([1, 3], np.log([1.0, 4.0])),
        ([2, 3, 5], np.log([3.0, 1e-3, 7.5])),
    ]
    for x, y in cases:
        ref = np.polyfit(x, y, 1)[0]
        assert abs(_line_slope(x, y) - ref) <= 1e-12 * abs(ref)
    assert _line_slope([1, 3], [0.0, math.log(4.0)]) == math.log(2.0)
    with pytest.raises(ValueError, match="two distinct"):
        _line_slope([6.0, 6.0], [1.0, 2.0])


def test_scaling_needs_two_distinct_frequencies():
    for lams in ([64], [64, 64], [256, 256, 256]):
        with pytest.raises(ValueError, match="two distinct frequencies"):
            certify_scaling((4, 3), lams, 0.5, [1.0])


def test_scaling_csv_roundtrip(tmp_path):
    rows = certify_scaling((4, 3), [64, 256], 0.5, [2.0])
    path = tmp_path / "scaling.csv"
    write_scaling_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "p,lam,norm,fitted_slope,target_slope,deviation"
    assert len(text) == 1 + len(rows)


def test_scaling_csv_bytes_are_csv_dictwriters(tmp_path):
    rows = certify_scaling((4, 3), [64, 256], 0.5, [1.0, 2.0, math.inf])
    assert rows[-1]["p"] == "inf" and rows[0]["fitted_slope"] < 0
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    write_scaling_csv(rows, tmp_path / "scaling.csv")
    assert (tmp_path / "scaling.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize(
    "lam,eps", [(64, 0.5), (256, 0.5), (256, 0.25), (1024, 0.5)]
)
def test_parseval_slab(lam, eps):
    spec = SlabSpec(k=(4, 3), lam=lam, eps=eps)
    f = slab_fourier(spec)
    coeff_l2 = math.sqrt(sum(abs(a) ** 2 for a in f.coeffs.values()))
    # Parseval: series L^2 equals ||phi||_{L^2} = 1 up to the spectral tail
    assert abs(coeff_l2 - 1.0) < 1e-6


def test_build_profile_is_the_slab_profile():
    # one profile: build_profile returns it, and slab_fourier reads it
    profile = build_profile()
    assert profile is build_profile() is PROFILE
    spec = SlabSpec(k=(4, 3), lam=256, eps=0.5)
    f = slab_fourier(spec, mode_cap=8)
    # a profile of the same constant, with a cache of its own, gives the same bits
    own = Profile(norm_const=profile.norm_const)
    step, amp = spec.lam ** (spec.eps - 1.0), spec.lam ** ((spec.eps - 1.0) / 2.0)
    for n in range(1, 9):
        xi = tuple(n * spec.harmonic_step * c for c in spec.k)
        assert f.coefficient(xi) == amp * own.fhat(step * n)
