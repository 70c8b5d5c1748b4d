"""Shell/low-pass cutoff profiles: plateau, support, and partition of unity."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activeci.kernels import ShellKernel, glue, smoothstep


def test_glue_values():
    assert glue(np.array([-1.0, 0.0]))[0] == 0.0
    assert glue(np.array([0.0]))[0] == 0.0
    # frozen oracle: exp(-1/0.5) = exp(-2)
    assert abs(glue(np.array([0.5]))[0] - np.exp(-2.0)) < 1e-15


def test_smoothstep_endpoints_and_midpoint():
    u = np.array([0.0, 0.5, 1.0])
    v = smoothstep(u)
    assert v[0] == 0.0
    assert abs(v[1] - 0.5) < 1e-15  # symmetry point
    assert v[2] == 1.0


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@example(2.225073858507e-311, 0.0)  # -1/t overflows inside glue
@settings(max_examples=50)
def test_smoothstep_monotone(a, b):
    lo, hi = sorted((a, b))
    va, vb = smoothstep(np.array([lo, hi]))
    assert va <= vb + 1e-15


def test_shell_plateau_and_support():
    k = ShellKernel()
    t_plateau = np.linspace(*k.SHELL_PLATEAU, 20)
    assert np.allclose(k.shell(t_plateau), 1.0, atol=1e-15)
    t_out = np.array([0.5, 6.0 / 7.0, 2.0, 3.0])
    assert np.allclose(k.shell(t_out), 0.0, atol=1e-15)


def test_shell_dyadic_partition_of_unity():
    # sum_j shell(t / 2^j) == 1 exactly for t >= 1 (telescoping construction)
    k = ShellKernel()
    t = np.linspace(1.0, 100.0, 400)
    total = sum(k.shell(t / 2.0**j) for j in range(-2, 9))
    assert np.allclose(total, 1.0, atol=1e-14)


def test_shell_partition_on_lattice_magnitudes():
    # lattice-point magnitudes |xi| in [1, 2^12], deterministic sample
    k = ShellKernel()
    rng = np.random.default_rng(0)
    pts = rng.integers(-4096, 4097, size=(2000, 2))
    mags = np.linalg.norm(pts, axis=1)
    mags = mags[(mags >= 1.0) & (mags <= 4096.0)]
    total = sum(k.shell(mags / 2.0**j) for j in range(-2, 15))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_lowpass_plateau_and_support():
    k = ShellKernel(r=1.0 / 16.0)
    assert np.allclose(k.lowpass(np.array([0.0, 1.0 / 32.0])), 1.0, atol=1e-15)
    assert np.allclose(k.lowpass(np.array([1.0 / 16.0, 1.0])), 0.0, atol=1e-15)
    mid = k.lowpass(np.array([3.0 / 64.0]))[0]
    assert 0.0 < mid < 1.0


def test_lowpass_weight_radius_scaling():
    k = ShellKernel(r=1.0 / 16.0)
    lam = 256.0
    # plateau up to r*lam/2 = 8, zero from r*lam = 16
    assert k.lowpass_weight([(8, 0)], lam)[0] == 1.0
    assert k.lowpass_weight([(16, 0)], lam)[0] == 0.0
    assert k.lowpass_weight([(0, 17)], lam)[0] == 0.0


def test_shell_weight_matches_profile():
    k = ShellKernel()
    w = k.shell_weight([(3, 4)], j=2)[0]  # |xi| = 5, t = 5/4 in plateau
    assert abs(w - 1.0) < 1e-15
