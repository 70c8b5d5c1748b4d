"""Acceptance suite: eleven certified properties of the full construction,
plus 07b, the sharp single-shell rates of the error pieces.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with ``-s`` or
on failure) and asserts at the stated tolerance.  Shared heavy artifacts — the
default two-stage run (twice, for the determinism check) and the first-stage
frequency sweep — are built once per session.  Every figure comes from the
report.json of a ``run``, the same pipeline ``ci-run`` takes.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from activeci.directions import build_basis, gamma_coefficients
from activeci.fields import sobolev_norm
from activeci.harness import RunConfig, run
from activeci.iteration import make_params
from activeci.multipliers import ipm2d
from activeci.slabs import SlabSpec, build_profile, certify_scaling, slab_fourier, slab_physical

SUPPLIED = ((4, 3), (4, -3))
SWEEP_LAMS = (64, 256, 1024, 4096)
NONDEGENERATE_LAMS = (256, 1024, 4096)


def report_line(n, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{label}]: {status} — {detail}")
    return ok


@pytest.fixture(scope="session")
def basis():
    return build_basis(ipm2d(), supplied=SUPPLIED)


def first_stage_reports(root, lams, **config):
    """``{lam: report}``: the report.json of one single-stage ``run`` per
    first-stage frequency on the basis (4, 3), (4, -3), grid budget 8192."""
    reports = {}
    for lam in lams:
        out = root / f"lam-{lam}"
        run(RunConfig(supplied_basis=SUPPLIED, qmax=1, lambda1=lam, grid_budget=8192, out=str(out), **config))
        reports[lam] = json.loads((out / "report.json").read_text())
    return reports


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """``({lam: report}, seconds)``: the first-stage frequency sweep and the
    time its runs took."""
    t0 = time.monotonic()
    reports = first_stage_reports(tmp_path_factory.mktemp("sweep"), SWEEP_LAMS)
    return reports, time.monotonic() - t0


def history(report):
    """The history entry of a report's first stage."""
    return report["stages"][1]["history"]


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    """The shipped default configuration, run twice for the byte-identity check."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"default-{tag}")
        rc = run(RunConfig(out=str(out)))
        outs.append((rc, str(out)))
    reports = []
    for _, out in outs:
        with open(os.path.join(out, "report.json")) as fh:
            reports.append(json.load(fh))
    return outs, reports


def test_criterion_01_gamma_reconstruction(basis):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    n = 1000
    rad = basis.eps_omega * np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, 2 * np.pi, n)
    pts = basis.k_star + np.c_[rad * np.cos(ang), rad * np.sin(ang)]
    gam = gamma_coefficients(basis, pts)
    recon = (gam**2) @ basis.even_parts
    rel = float(np.max(np.abs(recon - pts)) / np.max(np.abs(pts)))
    elapsed = time.monotonic() - t0
    ok = rel <= 1e-12 and elapsed < 1.0
    assert report_line(
        1, "direction-basis reconstruction", ok,
        f"max rel residual {rel:.3g} (tol 1e-12), {elapsed:.2f} s (< 1 s)",
    )


def test_criterion_02_slab_scaling():
    t0 = time.monotonic()
    rows = certify_scaling((4, 3), [64, 256, 1024, 4096], 0.5, [1.0, 2.0, math.inf])
    worst = max(abs(r["deviation"]) for r in rows)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 60.0
    slopes = {str(r["p"]): round(r["fitted_slope"], 4) for r in rows}
    assert report_line(
        2, "slab L^p scaling", ok,
        f"slopes {slopes} vs targets -1/4, 0, +1/4; worst deviation "
        f"{worst:.3g} (tol 0.05), {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_03_series_physical_agreement(sweep):
    profile = build_profile()
    rng = np.random.default_rng(3)
    reports, _ = sweep
    shipped = [
        (rep["params"]["lam_schedule"][0], rep["params"]["eps_schedule"][0])
        for rep in reports.values()
        if not history(rep)["degenerate"]
    ] + [(lam, 0.5) for lam in (64, 256, 1024, 4096)]
    grid = np.linspace(-1.0, 1.0, 4001)
    phi_max = float(np.max(np.abs(profile(grid))))
    worst = 0.0
    for lam, eps in shipped:
        spec = SlabSpec(k=(4, 3), lam=lam, eps=eps)
        f = slab_fourier(spec)
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        # relative to the slab's sup: sample points may all miss the thin slabs
        scale = lam ** ((1.0 - eps) / 2.0) * phi_max
        # the series at every point at once: (points x modes) phases times amps
        freqs, amps = f._full()
        series = np.real(np.exp(2j * np.pi * (pts @ freqs.T)) @ amps)
        physical = np.array([slab_physical(spec, x) for x in pts])
        worst = max(worst, float(np.max(np.abs(series - physical))) / scale)
    ok = worst <= 1e-8
    assert report_line(
        3, "series vs physical slab values", ok,
        f"{len(shipped)} (lam, eps) pairs x 100 points, worst rel error "
        f"{worst:.3g} (tol 1e-8)",
    )


def test_criterion_04_relaxed_residual(default_runs):
    _, reports = default_runs
    stages = reports[0]["stages"]
    worst = max(s["history"]["residual_defect"] for s in stages)
    ok = worst <= 1e-10
    assert report_line(
        4, "relaxed-equation residual", ok,
        f"worst stage defect {worst:.3g} over q = 0..{len(stages) - 1} (tol 1e-10)",
    )


def test_criterion_05_exact_structural_items(default_runs):
    _, reports = default_runs
    stages = reports[0]["stages"]
    ok = all(s["items"]["exact_pass"] for s in stages)
    details = {s["q"]: s["items"]["exact_pass"] for s in stages}
    assert report_line(
        5, "mean-zero / divergence-free / single-shell", ok,
        f"per-stage exact items {details} (mean exact, div tol 1e-13, shell scan exact)",
    )


def test_criterion_06_stress_decay(sweep):
    reports, elapsed = sweep
    default_ratio = history(reports[256])["ratio"]
    ratios = [history(reports[lam])["ratio"] for lam in (64, 256, 1024)]
    monotone = all(b < a + 1e-15 for a, b in zip(ratios, ratios[1:]))
    ok = default_ratio < 1.0 and monotone and elapsed < 600.0
    assert report_line(
        6, "stress decay", ok,
        f"default ratio {default_ratio:.4g} (< 1); sweep ratios "
        f"{[round(r, 5) for r in ratios]} monotone={monotone}; "
        f"sweep built in {elapsed:.0f} s (< 600 s)",
    )


def test_criterion_07_error_piece_rates(sweep):
    reports, _ = sweep
    lams = np.array(NONDEGENERATE_LAMS, dtype=float)
    rd = np.array([history(reports[int(l)])["R_D_Hs"] for l in lams])
    rn = np.array([history(reports[int(l)])["R_N_Hs"] for l in lams])
    eps = np.array([reports[int(l)]["params"]["eps_schedule"][0] for l in lams])
    slope_rd = float(np.polyfit(np.log2(lams), np.log2(rd), 1)[0])
    slope_rn = float(np.polyfit(np.log2(lams), np.log2(rn), 1)[0])
    # modeled rates lam^{(eps-1)/2} and lam^{(eps-1)/6} with the per-stage eps
    target_rd = float(np.polyfit(np.log2(lams), np.log2(lams) * (eps - 1.0) / 2.0, 1)[0])
    target_rn = float(np.polyfit(np.log2(lams), np.log2(lams) * (eps - 1.0) / 6.0, 1)[0])
    ok_rd = abs(slope_rd - target_rd) <= 0.2 * max(abs(target_rd), 1e-12)
    ok_rn = abs(slope_rn - target_rn) <= 0.2 * max(abs(target_rn), 1e-12)
    ok = ok_rd and ok_rn
    # the modeled rates are integrability-embedding upper bounds; the measured
    # norms decay much faster here, so the bound holds but the fit does not
    bound_ok = all(rd <= lams ** ((eps - 1.0) / 2.0)) and all(
        rn <= lams ** ((eps - 1.0) / 6.0)
    )
    report_line(
        7, "dissipation/transport error rates", ok,
        f"R_D slope {slope_rd:.3f} vs modeled {target_rd:.3f}, R_N slope "
        f"{slope_rn:.3f} vs modeled {target_rn:.3f} (tol 20%); modeled rates "
        f"are upper bounds, which do hold: {bound_ok}; the measured decay is "
        f"faster because each increment occupies a single frequency shell",
    )
    assert ok, (
        "fitted error-piece slopes do not match the modeled upper-bound rates "
        f"(R_D {slope_rd:.3f} vs {target_rd:.3f}, R_N {slope_rn:.3f} vs "
        f"{target_rn:.3f}); the bounds themselves hold (upper-bound check: "
        f"{bound_ok}) — see the repository notes on measured vs modeled decay"
    )


@pytest.mark.parametrize("gamma,s", [(1.0, 2.0), (0.5, 2.0), (2.0, 3.0)])
def test_criterion_07b_sharp_error_piece_rates(sweep, tmp_path, gamma, s):
    # each increment sits on the single shell |xi| ~ lam with an L^2 norm
    # that does not grow with lam, so ||R_D||_{H^-s} ~ lam^{gamma-1-s} and
    # ||R_N||_{H^-s} ~ lam^{-s}; (1, 2) is the sweep's own config
    if (gamma, s) == (1.0, 2.0):
        reports = sweep[0]
    else:
        reports = first_stage_reports(tmp_path, NONDEGENERATE_LAMS, gamma=gamma, s=s)
    x = np.log2(NONDEGENERATE_LAMS)
    slope = {}
    for key in ("R_D_Hs", "R_N_Hs"):
        y = np.log2([history(reports[lam])[key] for lam in NONDEGENERATE_LAMS])
        slope[key] = float(np.polyfit(x, y, 1)[0])
    target = {"R_D_Hs": gamma - 1.0 - s, "R_N_Hs": -s}
    ok = all(abs(slope[key] - target[key]) <= 0.01 for key in slope)
    assert report_line(
        "7b", f"sharp error-piece rates, gamma={gamma}, s={s}", ok,
        f"R_D slope {slope['R_D_Hs']:.3f} vs lam^(gamma-1-s) {target['R_D_Hs']:.3f}, "
        f"R_N slope {slope['R_N_Hs']:.3f} vs lam^-s {target['R_N_Hs']:.3f} (tol 0.01)",
    )


def test_criterion_08_oscillation_cancellation(basis, sweep):
    # frozen: constant stress -> constant amplitudes; the mean of the updated
    # stress must hit its closed form to roundoff
    from activeci.fields import SpectralField, multiply
    from activeci.iteration import IterationState, build_increment

    params = make_params(basis, lambda1=256, qmax=1, grid_budget=8192)
    Rbar = np.array([0.3, -0.7])
    R = SpectralField.vector(2, {(0, 0): Rbar.astype(complex)})
    frozen_state = IterationState(
        q=0,
        theta=SpectralField.scalar(2, {}),
        u=SpectralField.vector(2, {}),
        R=R,
    )
    bundle = build_increment(frozen_state, params)
    wTw = multiply(bundle.w, bundle.Tw)
    mean_new = np.real((R + wTw).coefficient((0, 0)))
    target = (np.linalg.norm(Rbar) / basis.eps_omega) * basis.k_star
    frozen_rel = float(np.max(np.abs(mean_new - target)) / np.max(np.abs(target)))

    reports, _ = sweep
    ratios = [reports[lam]["stages"][1]["diagnostics"]["ratio"] for lam in SWEEP_LAMS]
    live_ok = all(
        r < 1.0 or history(reports[lam])["degenerate"] for r, lam in zip(ratios, SWEEP_LAMS)
    )
    decreasing = all(b < a + 1e-15 for a, b in zip(ratios, ratios[1:]))
    ok = frozen_rel <= 1e-6 and live_ok and decreasing
    assert report_line(
        8, "oscillation cancellation", ok,
        f"frozen-constant rel error {frozen_rel:.3g} (tol 1e-6); live ratios "
        f"{[round(r, 5) for r in ratios]} all < 1 and decreasing in lam",
    )


def test_criterion_09_increment_norms(sweep):
    reports, _ = sweep
    spread = {}
    for p in ("1.0", "1.5", "2.0"):
        vals = []
        for lam in NONDEGENERATE_LAMS:
            rec = history(reports[lam])["w_lp"][p]
            vals.append(rec["ratio"])
        spread[p] = max(vals) / min(vals)
    besov_reported = all(
        set(history(reports[lam])["w_besov"]) == {"-0.1", "-0.5", "-0.9"}
        for lam in NONDEGENERATE_LAMS
    )
    ok = all(v <= 4.0 for v in spread.values()) and besov_reported
    assert report_line(
        9, "increment norm targets", ok,
        f"L^p ratio spread across sweep {{p: max/min}} = "
        f"{ {k: round(v, 3) for k, v in spread.items()} } (tol factor 4); "
        f"Besov values reported: {besov_reported}",
    )


def test_criterion_10_weak_form_pairing(default_runs):
    _, reports = default_runs
    stages = reports[0]["stages"]
    worst = max(
        rec["defect_rel"]
        for s in stages
        for label, rec in s["weak_form"].items()
        if label != "all_pass"
    )
    decay = reports[0]["pairing_decay"]
    trends = {label: rec["decreasing"] for label, rec in decay.items()}
    decreasing_ok = all(v is not False for v in trends.values())
    ok = worst <= 1e-10 and decreasing_ok
    assert report_line(
        10, "weak-form pairing", ok,
        f"worst identity defect {worst:.3g} (tol 1e-10); pairing decay per "
        f"test function {trends} (None = pairs to zero at every stage)",
    )


def test_criterion_11_determinism(default_runs):
    outs, reports = default_runs
    (rc_a, out_a), (rc_b, out_b) = outs
    identical = filecmp.cmp(
        os.path.join(out_a, "report.json"), os.path.join(out_b, "report.json"),
        shallow=False,
    )
    ok = identical and rc_a == 0 and rc_b == 0
    assert report_line(
        11, "byte-identical reruns", ok,
        f"report.json identical={identical}, exit codes ({rc_a}, {rc_b})",
    )
