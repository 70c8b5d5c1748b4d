"""End-to-end harness: config, multiplier gating, weak form, artifacts, CLI."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import activeci
from activeci import fields, grids, harness, iteration
from activeci.cli import config_from_args, main
from activeci.directions import build_basis
from activeci.fields import (
    SpectralField,
    divergence_defect,
    gradient,
    mean_part,
    multiply,
    pairing,
    sobolev_norm,
)
from activeci.grids import besov_norm, lp_norm_detailed
from activeci.harness import (
    ConfigError,
    RunConfig,
    build_test_functions,
    certify_items,
    resolve_multiplier,
    run,
    weak_form_test,
)
from activeci.iteration import ITEM4_PAIRS, base_state, make_params, step
from activeci.kernels import ShellKernel
from activeci.multipliers import ipm2d, ipm3d


def fast_config(out, **kw):
    base = dict(
        lambda1=256,
        qmax=1,
        grid_budget=8192,
        scaling_lams=(64, 256),
        out=str(out),
    )
    base.update(kw)
    return RunConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(s=1.0)  # s <= d/2
    with pytest.raises(ConfigError):
        RunConfig(gamma=3.0)
    with pytest.raises(ConfigError):
        RunConfig(qmax=-1)


def test_resolve_multiplier_gates():
    assert resolve_multiplier(RunConfig(multiplier="ipm2d")).name == "ipm2d"
    with pytest.raises(ConfigError, match="not_odd"):
        resolve_multiplier(RunConfig(multiplier="sqg"))
    with pytest.raises(ConfigError, match="bounded"):
        resolve_multiplier(RunConfig(multiplier="mg", d=3))
    with pytest.raises(ConfigError, match="dimension|dimensional"):
        resolve_multiplier(RunConfig(multiplier="ipm3d", d=2))
    with pytest.raises(ConfigError):
        resolve_multiplier(RunConfig(multiplier="nope"))


def test_run_checks_the_claims_once(tmp_path, monkeypatch):
    import activeci.harness as harness

    original, reports = harness.check_claims, []

    def counted(m, sample=None):
        reports.append(original(m, sample))
        return reports[-1]

    monkeypatch.setattr(harness, "check_claims", counted)
    assert run(fast_config(tmp_path, qmax=0)) == 0
    assert len(reports) == 1
    written = json.loads((tmp_path / "report.json").read_text())["claims"]
    assert written == json.loads(json.dumps(reports[0]))


def test_test_functions_deterministic():
    import random

    state = random.getstate()
    a = build_test_functions(2, seed=0)
    assert random.getstate() == state  # a private generator
    b = build_test_functions(2, seed=0)
    assert [m[0] for m in a] == [m[0] for m in b]
    for (la, fa, ra), (lb, fb, rb) in zip(a, b):
        assert fa.coeffs == fb.coeffs
        assert ra == rb
    for _, f, _ in a[-2:]:
        assert f.is_half() and 0 < np.abs(f.freqs).max() <= 6
    c = build_test_functions(2, seed=1)
    assert a[-1][1].coeffs != c[-1][1].coeffs


def test_pairing_oracle():
    # integral of cos(2 pi x1)^2 = 1/2
    f = SpectralField.scalar(2, {(1, 0): 0.5, (-1, 0): 0.5})
    signed, gross = pairing(f, f)
    assert abs(signed - 0.5) < 1e-15
    assert abs(gross - 0.5) < 1e-15
    # orthogonal modes pair to zero
    g = SpectralField.scalar(2, {(0, 1): 0.5, (0, -1): 0.5})
    assert pairing(f, g)[0] == 0.0


def test_weak_form_on_base_state():
    m = ipm2d()
    basis = build_basis(m, supplied=((4, 3), (4, -3)))
    params = make_params(basis, qmax=1)
    st = base_state(params)
    psis = build_test_functions(2, seed=0)
    res = weak_form_test(st, psis, params)
    assert res["all_pass"]
    for label, rec in res.items():
        if label == "all_pass":
            continue
        assert rec["defect_rel"] <= 1e-10


@pytest.fixture(scope="module", params=[(256, 2), (64, 16)], ids=["lam256-512", "degenerate-lam64"])
def two_stages(request):
    """base_state -> step -> step from lambda1 with the given stage factor:
    ``(params, kernel, states, bundles)``.  At lambda 64 the first increment
    vanishes."""
    lambda1, lam_step = request.param
    m = ipm2d()
    basis = build_basis(m, supplied=((4, 3), (4, -3)))
    params = make_params(basis, lambda1=lambda1, qmax=2, grid_budget=1024, lam_step=lam_step)
    kernel = ShellKernel(r=float(params.r))  # the brute-force checks' own
    states, bundles = [base_state(params)], []
    for _ in range(2):
        st, bundle = step(states[-1], params)
        states.append(st)
        bundles.append(bundle)
    return params, kernel, states, bundles


def fresh(f):
    """The same field without its memoized quadratures."""
    return SpectralField(f.dim, f.rank, f.freqs, f.amps)


def brute_shell_scan(stage, bundle, kernel):
    if bundle.w.is_zero():
        return {"stage": stage, "degenerate": True, "pass": True}
    j = bundle.lam.bit_length() - 1
    mags = [math.sqrt(sum(c * c for c in xi)) for xi in bundle.w.freqs.tolist()]
    inside = min(mags) >= 2**j - 1e-9 and max(mags) <= 12 / 7 * 2**j + 1e-9
    plateau = all(kernel.shell_weight(bundle.w.freqs, j) == 1.0)
    return {
        "stage": stage,
        "shell_index": j,
        "min_freq": min(mags),
        "max_freq": max(mags),
        "pass": inside and plateau,
    }


def brute_drift(theta, u, m):
    """max |u(xi) - m(xi) theta(xi)| over the frequencies of either field,
    relative to the largest |u(xi)|."""
    th, uc = theta.coeffs, u.coeffs
    gaps = [
        np.linalg.norm(uc.get(xi, 0.0) - (m(xi) * th.get(xi, 0.0) if any(xi) else 0.0))
        for xi in set(th) | set(uc)
    ]
    return max(gaps) / max(np.linalg.norm(v) for v in uc.values())


def test_certify_items_agrees_with_brute_force(two_stages):
    params, kernel, states, bundles = two_stages
    ms, budget = -params.s, params.grid_budget
    for st in states:
        report = certify_items(st)
        incs = list(enumerate(bundles[: st.q], start=1))
        assert report["item1"]["theta_mean"] == abs(mean_part(st.theta))
        assert report["item1"]["div_u_rel"] == divergence_defect(st.u)
        assert report["item1"]["drift_rel"] == pytest.approx(brute_drift(st.theta, st.u, ipm2d()), abs=1e-15)
        assert report["item3"]["R_Hs"] == sobolev_norm(st.R, ms)
        l1 = lp_norm_detailed(fresh(st.theta), 1.0, budget)
        assert [report["item5"][k] for k in ("theta_L1", "quad_err", "grid_N", "resolved")] == list(l1)
        for alpha, p in ITEM4_PAIRS:
            assert report["item4"][f"alpha={alpha},p={p}"]["per_stage"] == [
                {
                    "stage": n,
                    "besov": besov_norm(fresh(b.w), alpha, kernel, budget),
                    "lp": lp_norm_detailed(fresh(b.w), p, budget).norm,
                }
                for n, b in incs
            ]
        assert report["item6"]["per_stage"] == [brute_shell_scan(n, b, kernel) for n, b in incs]
        matrix = {
            f"{n},{k}": sobolev_norm(multiply(bn.w, bk.Tw), ms) for n, bn in incs for k, bk in incs
        }
        assert report["item7"]["matrix"] == matrix
        values = list(matrix.values())  # row-major
        assert report["item7"]["partial_sums"] == [sum(values[: n * st.q]) for n, _ in incs]


def test_item4_fits_each_increment_at_its_stage(monkeypatch):
    # stage 2's increment is degenerate: totals 1, 0, 4 at stages 1, 2, 3
    # grow by 2 per stage, not by 4 per fitted point; no least-squares call
    def refuse(*args, **kwargs):
        raise AssertionError("a line fit called numpy's least squares")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    Q = grids.Quadrature
    totals = {1: 1.0, 2: 0.0, 3: 4.0}
    increments = [
        SimpleNamespace(stage=q, w_norms={p: Q(t / 2, 0.0, 64, True) for _, p in ITEM4_PAIRS}, shell={"pass": True})
        for q, t in totals.items()
    ]
    history = [{"delta": 0.1, "R_Hs": 1.0}] + [
        {"w_besov": {str(alpha): t / 2 for alpha, _ in ITEM4_PAIRS} if t else {}, "ratio": 0.5} for t in totals.values()
    ]
    history[-1].update(residual_defect=0.0, R_Hs=0.1)
    state = SimpleNamespace(
        q=3,
        norm_history=history,
        theta_mean=0.0,
        div_u=0.0,
        drift_rel=0.0,
        increments=increments,
        theta_L1=Q(1.0, 0.0, 64, True),
        interactions=[[0.0] * 3] * 3,
    )
    item4 = certify_items(state)["item4"]
    for alpha, p in ITEM4_PAIRS:
        entry = item4[f"alpha={alpha},p={p}"]
        assert [v["besov"] + v["lp"] for v in entry["per_stage"]] == list(totals.values())
        assert entry["fitted_ratio"] == pytest.approx(2.0, rel=1e-15)


def test_run_makes_no_least_squares_call(tmp_path, monkeypatch):
    # the slab table's slopes are closed-form sums: no LAPACK driver, whose
    # code pages cost a run 0.84 MB of resident memory
    def refuse(*args, **kwargs):
        raise AssertionError("a line fit called numpy's least squares")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    argv = ["--qmax", "1", "--lambda1", "256", "--grid-budget", "256", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert (tmp_path / "o" / "scaling.csv").is_file()


def test_certify_items_only_reads_the_stage_record(two_stages, monkeypatch):
    _, _, states, _ = two_stages
    calls = []
    names = ("multiply", "sobolev_norm", "besov_norm", "divergence_defect", "lp_norms", "lp_norm_detailed")
    for name in names:
        owner = grids if name in grids.__all__ else fields

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (fields, grids, harness):
            monkeypatch.setattr(module, name, counted, raising=False)
    for st in states:
        certify_items(st)
    assert calls == []


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run(fast_config(out))
    return rc, out


def test_run_exit_code(fast_run):
    rc, _ = fast_run
    assert rc == 0


def test_run_artifacts_exist(fast_run):
    _, out = fast_run
    for name in ("report.json", "history.json", "scaling.csv", "cancellation.csv", "timing.json"):
        assert os.path.exists(os.path.join(out, name)), name
    for q in (0, 1):
        stage = os.path.join(out, f"stage-{q}")
        assert os.path.exists(os.path.join(stage, "theta.npz"))
        assert os.path.exists(os.path.join(stage, "u.npz"))
        assert os.path.exists(os.path.join(stage, "R.npz"))
    assert os.path.exists(os.path.join(out, "stage-1", "w.npz"))


def test_report_structure(fast_run):
    _, out = fast_run
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report["exact_pass"] is True
    assert report["config"]["multiplier"] == "ipm2d"
    assert (report["params"]["r"], report["params"]["c"]) == ("1/16", "17/64")
    omega = report["basis"]["omega"]
    assert len(omega) == 2
    assert sum(c * c for c in omega[0]) == sum(c * c for c in omega[1])
    assert len(report["stages"]) == 2
    s1 = report["stages"][1]
    assert s1["items"]["exact_pass"]
    assert s1["weak_form"]["all_pass"]
    assert s1["history"]["ratio"] < 1.0
    # no wall-clock inside the deterministic report
    assert "timing" not in report
    assert "elapsed" not in json.dumps(report)


def test_timing_records_peak_rss_and_reports_rerun_identically(fast_run, tmp_path, monkeypatch):
    _, out = fast_run
    with open(os.path.join(out, "timing.json")) as fh:
        timing = json.load(fh)
    assert timing["peak_rss_mb"] > 0
    # one reading after set-up and one per stage directory, never
    # decreasing, none above the run's peak
    per_stage = timing["stage_peak_rss_mb"]
    assert len(per_stage) == len(list(out.glob("stage-*"))) == 2
    assert 0 < timing["setup_peak_rss_mb"] <= per_stage[0]
    assert per_stage == sorted(per_stage) and per_stage[-1] <= timing["peak_rss_mb"]
    # the rerun's wall clock steps back an hour at every reading: the
    # duration has its own clock, and the wall clock only stamps the start
    wall = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(harness, "time", SimpleNamespace(time=lambda: next(wall), perf_counter=time.perf_counter))
    assert run(fast_config(tmp_path)) == 0
    rerun = json.loads((tmp_path / "timing.json").read_text())
    assert rerun["start"] == 10**9 and 0 < rerun["elapsed_s"] < 3600
    snapshots = sorted(p.relative_to(out).as_posix() for p in out.glob("stage-*/*.npz"))
    assert snapshots == sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.glob("stage-*/*.npz"))
    assert len(snapshots) == 7  # theta, u, R at stages 0 and 1, and w
    for name in ["report.json", "history.json"] + snapshots:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert "rss" not in (tmp_path / "report.json").read_text()


def test_report_snapshot_roundtrip(fast_run, tmp_path):
    from activeci.fields import load_snapshot, save_snapshot

    _, out = fast_run
    u = load_snapshot(out / "stage-1" / "u.npz")
    assert u.rank == 1 and divergence_defect(u) <= 1e-13
    paths = sorted(out.glob("stage-*/*.npz"))
    assert len(paths) == 7
    for path in paths:
        # each snapshot passes the Hermitian check and saves back bitwise
        save_snapshot(load_snapshot(path), tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes(), path


@pytest.mark.parametrize(
    "config",
    [
        dict(lambda1=256, qmax=1, grid_budget=256),
        dict(multiplier="ipm3d", d=3, supplied_basis=[[2, 2, 1], [2, 1, 2], [1, 2, 2]], qmax=1, lambda1=128, grid_budget=128),
    ],
    ids=["ipm2d", "ipm3d"],
)
def test_snapshots_load_to_the_saved_fields(tmp_path, monkeypatch, config):
    # every theta, u, R and w of every stage, each of which a run saves,
    # stores only its origin, real, and upper rows; its snapshot's arrays are
    # the stored arrays, and it loads back to the in-memory field bit for bit
    saved = {}

    def record(f, path):
        saved[os.path.relpath(path, tmp_path)] = f
        fields.save_snapshot(f, path)

    monkeypatch.setattr(harness, "save_snapshot", record)
    assert run(RunConfig(out=str(tmp_path), **config)) == 0
    assert len(saved) == 7 and set(saved) == {p.relative_to(tmp_path).as_posix() for p in tmp_path.glob("stage-*/*.npz")}
    for name, f in saved.items():
        rows = [tuple(xi) for xi in f.freqs.tolist()]
        assert rows == sorted(set(rows)) and fields._upper(f.freqs).all(), name
        assert np.all(f.amps[~f.freqs.any(axis=1)].imag == 0), name
        with np.load(tmp_path / name, allow_pickle=False) as data:
            assert data["freqs"].tobytes() == f.freqs.tobytes(), name
            assert data["amps"].tobytes() == f.amps.tobytes(), name
        g = fields.load_snapshot(tmp_path / name)
        assert (g.dim, g.rank) == (f.dim, f.rank), name
        assert g.freqs.tobytes() == f.freqs.tobytes() and g.amps.tobytes() == f.amps.tobytes(), name


def dealias_grid(path, p, budget):
    """``[grid_N, resolved]`` by the dealias rule for |f|^p: the smallest
    power of two >= 2 ceil(p) band + 1, band the largest |xi_i| of the saved
    field, capped at the budget."""
    band = int(np.abs(fields.load_snapshot(path).freqs).max())
    want = 1 << (2 * math.ceil(p) * band).bit_length()
    return [min(want, budget), want <= budget]


def test_report_quadrature_grids(fast_run):
    _, out = fast_run
    with open(os.path.join(out, "report.json")) as fh:
        stage = json.load(fh)["stages"][1]
    w_lp = stage["history"]["w_lp"]
    assert set(w_lp) == {"1.0", "1.3333333333333333", "1.5", "2.0"}
    w_path = os.path.join(out, "stage-1", "w.npz")
    grids = {p: [rec["grid_N"], rec["resolved"]] for p, rec in w_lp.items()}
    assert grids == {p: dealias_grid(w_path, float(p), 8192) for p in w_lp}
    assert grids["2.0"] == [2048, True]  # band 286: 4 * 286 + 1 points
    item5 = stage["items"]["item5"]
    theta_path = os.path.join(out, "stage-1", "theta.npz")
    assert [item5["grid_N"], item5["resolved"]] == dealias_grid(theta_path, 1.0, 8192)


def test_cancellation_csv_rows(fast_run):
    _, out = fast_run
    lines = open(os.path.join(out, "cancellation.csv")).read().splitlines()
    assert lines[0].startswith("q,lam,eps,degenerate,ratio")
    assert len(lines) == 2  # one iteration stage
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert float(fields[4]) < 1.0  # cancellation ratio


def test_cli_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qmax": 1, "lambda1": 512}))
    config = config_from_args(
        ["--config", str(cfg), "--lambda1", "256", "--out", str(tmp_path / "o"), "--dim", "3", "--grid-budget", "512"]
    )
    assert config.qmax == 1
    assert config.lambda1 == 256  # flag wins over file
    assert config.out == str(tmp_path / "o")
    assert (config.d, config.grid_budget) == (3, 512)


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 0.5}))
    assert main(["--config", str(cfg)]) == 2
    assert main(["--config", str(tmp_path / "missing.json")]) == 2


# the 2-D IPM symbol in the declarative file format
IPM2D_FILE = {
    "name": "ipm2d-file",
    "dim": 2,
    "components": [
        {"num": [[1, 1, 1.0, 0.0]], "den": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]]},
        {"num": [[2, 0, -1.0, 0.0]], "den": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]]},
    ],
    "claims": {"not_odd": True},
}

BAD_FILES = {
    "dim_2_7.json": {**IPM2D_FILE, "dim": 2.7},  # not run as d = 2
    "dim_1e400.json": json.dumps(IPM2D_FILE).replace('"dim": 2', '"dim": 1e400'),  # no OverflowError traceback
    "dim_0.json": {**IPM2D_FILE, "dim": 0, "components": []},
    "claims_string.json": {**IPM2D_FILE, "claims": {"not_odd": "no"}},  # not a claim of not_odd
    "claims_unknown.json": {**IPM2D_FILE, "claims": {"not_odd": True, "even": True}},
    "claims_list.json": {**IPM2D_FILE, "claims": ["not_odd"]},
    "exponent_bool.json": {  # not counted as 1
        **IPM2D_FILE,
        "components": [{**IPM2D_FILE["components"][0], "num": [[True, 1, 1.0, 0.0]]}, IPM2D_FILE["components"][1]],
    },
    "exponent_negative.json": {**IPM2D_FILE, "components": [{"num": [[-1, 0, 1.0, 0.0]]}] * 2},  # 1 / xi_1
    "name_number.json": {**IPM2D_FILE, "name": 5},  # not the multiplier of report.json
    "malformed.json": "{not json",
    "one_component.json": {"dim": 2, "components": [{"num": [[0, 0, 1.0, 0.0]]}]},
    "number_components.json": {"dim": 2, "components": [1, 2]},
    "short_monomial.json": {"dim": 2, "components": [{"num": [[0, 0, 1.0]]}] * 2},
    "basis_number.json": {"supplied_basis": 5},
    "basis_float.json": {"supplied_basis": [[4.7, 3], [4, -3]]},
    "basis_bool.json": {"supplied_basis": [[4, 3], [4, True]]},
    "basis_1e400.json": '{"supplied_basis": [[1e400, 3], [4, -3]]}',
    "basis_huge_int.json": '{"supplied_basis": [[1%s, 3], [4, -3]]}' % ("0" * 400),
    "basis_two_of_three.json": {"supplied_basis": [[2, 2, 1], [2, 1, 2]]},
    "basis_length_3_in_2d.json": {"supplied_basis": [[4, 3, 0], [4, -3, 0]], "qmax": 0},
    "basis_length_1.json": {"supplied_basis": [[5], [5]], "qmax": 1},
    "lambda1_string.json": {"lambda1": "x"},
    "scaling_lams_3_8.json": {"scaling_lams": [3, 8]},
    "scaling_lams_empty.json": {"scaling_lams": []},
    "scaling_lams_float.json": {"scaling_lams": [64.5, 256]},
    "scaling_lams_bool.json": {"scaling_lams": [True, 256]},
    "scaling_lams_1e400.json": '{"scaling_lams": [1e400, 256]}',
    "scaling_lams_number.json": {"scaling_lams": 64},
    "scaling_lams_64_64.json": {"scaling_lams": [64, 64]},
    "scaling_eps_2.json": {"scaling_eps": 2},
    "multiplier_number.json": {"multiplier": 5},
    "out_number.json": {"out": 5},
    "seed_float.json": {"seed": 1.5},
    "seed_5000_digits.json": '{"seed": 1%s}' % ("0" * 5000),  # past int's string conversion limit
    "d_float.json": {"d": 2.0},
    "b0_bool.json": {"b0": True},
    "qmax_string.json": {"qmax": "1"},
    "lambda1_float.json": {"lambda1": 256.0},
    "lambda1_1.json": {"lambda1": 1},
    "grid_budget_float.json": {"grid_budget": 8192.0},
    "gamma_margin_1.json": {"gamma_margin": 1.0},
    "gamma_margin_1_5.json": {"gamma_margin": 1.5},
    "gamma_margin_0.json": {"gamma_margin": 0.0},
    "gamma_bool.json": {"gamma": True, "qmax": 0},
    "s_nan.json": '{"s": NaN, "qmax": 0}',
    "s_inf.json": '{"s": Infinity, "qmax": 0}',
    "top_string.json": '"abc"',
    "top_nested_list.json": [[1, 2, 3]],
    "top_pairs.json": [["qmax", 0]],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda1", "100"],  # not a power of two
        ["--multiplier", "ipm3d", "--dim", "3", "--config", "{dir}/basis_two_of_three.json"],  # d = 3 needs three
        ["--multiplier", "file:{dir}/missing.json"],
        ["--multiplier", "file:{dir}/malformed.json"],
        ["--multiplier", "file:{dir}/one_component.json"],  # d = 2 needs two
        ["--multiplier", "file:{dir}/number_components.json"],
        ["--multiplier", "file:{dir}/short_monomial.json"],  # d + 2 = 4 numbers each
        ["--multiplier", "file:{dir}/dim_2_7.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/dim_1e400.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/dim_0.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/claims_string.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/claims_unknown.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/claims_list.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/exponent_bool.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/exponent_negative.json", "--qmax", "0"],
        ["--multiplier", "file:{dir}/name_number.json", "--qmax", "0"],
        ["--seed", "-1"],
        ["--grid-budget", "0", "--qmax", "0"],
        ["--grid-budget", "-8", "--qmax", "0"],
        ["--config", "{dir}/basis_number.json"],
        ["--config", "{dir}/basis_float.json"],  # not run on (4, 3)
        ["--config", "{dir}/basis_bool.json"],
        ["--config", "{dir}/basis_1e400.json"],  # no OverflowError traceback
        ["--config", "{dir}/basis_huge_int.json"],
        ["--config", "{dir}/lambda1_string.json"],
        ["--config", "{dir}/scaling_lams_3_8.json"],  # 3 is not a power of two
        ["--config", "{dir}/scaling_lams_empty.json"],
        ["--config", "{dir}/scaling_lams_float.json"],  # no lam 64 row
        ["--config", "{dir}/scaling_lams_bool.json"],
        ["--config", "{dir}/scaling_lams_1e400.json"],
        ["--config", "{dir}/scaling_lams_number.json"],
        ["--config", "{dir}/scaling_eps_2.json"],  # outside (0, 1]
        ["--config", "{dir}/multiplier_number.json"],
        ["--config", "{dir}/out_number.json"],  # the one case without --out
        ["--config", "{dir}/seed_float.json"],
        ["--config", "{dir}/seed_5000_digits.json"],
        ["--config", "{dir}/d_float.json"],
        ["--config", "{dir}/b0_bool.json"],
        ["--config", "{dir}/qmax_string.json"],
        ["--config", "{dir}/lambda1_float.json"],
        ["--config", "{dir}/lambda1_1.json"],  # a power of two below 2
        ["--config", "{dir}/grid_budget_float.json"],
        ["--config", "{dir}/gamma_margin_1.json"],  # outside (0, 1)
        ["--config", "{dir}/gamma_margin_1_5.json"],
        ["--config", "{dir}/gamma_margin_0.json"],
        ["--config", "{dir}/gamma_bool.json"],
        ["--config", "{dir}/s_nan.json"],
        ["--config", "{dir}/s_inf.json"],
        ["--s", "nan", "--qmax", "0"],
        ["--config", "{dir}/top_string.json"],  # the top level must be an object
        ["--config", "{dir}/top_nested_list.json"],
        ["--config", "{dir}/top_pairs.json"],
        ["--config", "{dir}/scaling_lams_64_64.json"],  # one distinct frequency: no slope
        ["--config", "{dir}/basis_length_3_in_2d.json"],  # not run on (4, 3)
        ["--config", "{dir}/basis_length_1.json"],  # no IndexError traceback
    ],
)
def test_cli_bad_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    for name, content in BAD_FILES.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    monkeypatch.chdir(tmp_path)  # where a relative or misread --out would land
    if argv[-1] != "{dir}/out_number.json":
        argv = argv + ["--out", "o"]
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("stage-0"))  # no stage ran


def test_cli_runs_a_multiplier_file(tmp_path):
    # the file the bad multiplier files each break in one key
    (tmp_path / "ipm2d.json").write_text(json.dumps(IPM2D_FILE))
    out = tmp_path / "o"
    assert main(["--multiplier", f"file:{tmp_path}/ipm2d.json", "--qmax", "0", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["multiplier"] == "ipm2d-file"


def _patch_increment(monkeypatch, change):
    """build_increment returns its bundle with the fields ``change`` gives."""
    original = iteration.build_increment

    def mutated(*args, **kwargs):
        bundle = original(*args, **kwargs)
        return dataclasses.replace(bundle, **change(bundle))

    monkeypatch.setattr(iteration, "build_increment", mutated)


def _off_residual(monkeypatch):
    # R_O misses 1e-6 of w Tw: the residual identity breaks
    _patch_increment(monkeypatch, lambda b: {"wTw": b.wTw.scaled(1 + 1e-6)})


def _off_drift(monkeypatch):
    # the stress is booked with a drift increment 1e-6 off T w: the residual
    # identity holds, but u != T theta
    def change(b):
        Tw = b.Tw.scaled(1 + 1e-6)
        return {"Tw": Tw, "wTw": multiply(b.w, Tw)}

    _patch_increment(monkeypatch, change)


def _off_shell(monkeypatch):
    # a mode of g at 4 lam leaves w's shell after modulation
    original = iteration.low_pass

    def leaky(f, lam, kernel):
        far = (4 * lam,) + (0,) * (f.dim - 1)
        return original(f, lam, kernel) + SpectralField.scalar(f.dim, {far: 1e-3, tuple(-c for c in far): 1e-3})

    monkeypatch.setattr(iteration, "low_pass", leaky)


@pytest.mark.parametrize(
    "mutation, failed",
    [(_off_residual, "item2, weak_form"), (_off_drift, "item1"), (_off_shell, "item6")],
    ids=["residual", "drift", "shell"],
)
def test_failed_stage_exits_1_with_its_report(tmp_path, capsys, monkeypatch, mutation, failed):
    # a stage that fails certification stops the run: exit 1, every artifact
    # of the stages so far, no later stage and one stderr line
    mutation(monkeypatch)
    out = tmp_path / "o"
    assert main(["--qmax", "2", "--lambda1", "256", "--grid-budget", "4096", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"stage 1 failed certification: {failed}\n"
    report = json.loads((out / "report.json").read_text())
    assert report["exact_pass"] is False
    assert [st["q"] for st in report["stages"]] == [0, 1]
    assert report["stages"][0]["items"]["exact_pass"] is True
    stage = report["stages"][1]
    verdicts = {item: stage["items"][item]["pass"] for item in ("item1", "item2", "item6")}
    verdicts["weak_form"] = stage["weak_form"]["all_pass"]
    assert ", ".join(name for name, ok in verdicts.items() if not ok) == failed
    for name in ("history.json", "scaling.csv", "cancellation.csv", "timing.json", "stage-1/w.npz"):
        assert (out / name).exists(), name
    assert not (out / "stage-2").exists()


def test_cli_rejects_odd_multiplier(tmp_path):
    assert main(["--multiplier", "sqg", "--out", str(tmp_path / "o")]) == 2


def test_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: the package and its CLI must not load
    # it; nor may the set-up calls or a run load numpy.ma (np.unique imports
    # it), numpy.random (seeded draws come from the stdlib), fractions (which
    # imports decimal) or csv, which cost a fresh process time and memory.
    # numpy.matrixlib and the like must not match.  A fresh process, since
    # pytest itself imports decimal.
    src = os.path.dirname(os.path.dirname(activeci.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["--qmax", "1", "--lambda1", "64", "--grid-budget", "256", "--out", str(tmp_path / "o")]
    code = (
        "import activeci, activeci.cli, activeci.harness as h, sys; "
        "mods = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or any(m == p or m.startswith(p + '.') for p in "
        "('numpy.ma', 'numpy.random', 'fractions', 'decimal', '_decimal', 'csv', '_csv'))); "
        "print(mods()); "
        "h.resolve_multiplier(h.RunConfig(d=3, multiplier='ipm3d')); "
        "h.build_test_functions(3, 1); "
        "print(mods()); "
        f"rc = activeci.cli.main({argv!r}); "
        "print(rc, mods())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "[]", "0 []"]


def test_cli_lets_memory_error_propagate(tmp_path, monkeypatch):
    # a MemoryError is not bad input: it is neither caught nor turned into
    # exit 2, and the stage it hit writes nothing
    import activeci.iteration as iteration

    def exhausted(*args, **kwargs):
        raise MemoryError("amplitude grid")

    monkeypatch.setattr(iteration, "_analyze_rows", exhausted)
    with pytest.raises(MemoryError, match="amplitude grid"):
        main(["--qmax", "1", "--lambda1", "256", "--grid-budget", "256", "--out", str(tmp_path)])
    assert (tmp_path / "stage-0").is_dir()
    assert not (tmp_path / "stage-1").exists()


@pytest.mark.parametrize(
    "flags,config",
    [(["--multiplier", "bogus"], {}), ([], {"scaling_eps": 2}), ([], {"scaling_lams": [64, 64]})],
    ids=["multiplier", "scaling_eps", "scaling_lams"],
)
def test_cli_bad_setup_creates_no_out(tmp_path, capsys, flags, config):
    # set-up fails before the output directory is made
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "X"
    assert main(flags + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_unusable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["--qmax", "0", "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory") and err.count("\n") == 1


SWEEP_COLUMNS = [
    "lam",
    "eps",
    "degenerate",
    "ratio",
    "R_Hs",
    "R_N_Hs",
    "R_D_Hs",
    "cancellation_ratio",
    "mean_cancellation_rel",
]


def test_lambda_sweep_script_writes_its_table(tmp_path):
    src = os.path.dirname(os.path.dirname(activeci.__file__))
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "lambda_sweep.py")
    out = tmp_path / "sweep.csv"
    argv = [sys.executable, script, "--lams", "64", "256", "--grid-budget", "256", "--out", str(out)]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_COLUMNS
    assert [row[0] for row in rows[1:]] == ["64", "256"]
    assert all(len(row) == len(SWEEP_COLUMNS) for row in rows[1:])
    # a frequency that is not a power of two is bad input: exit 2, one line
    bad = tmp_path / "bad.csv"
    argv = [sys.executable, script, "--lams", "64", "100", "--grid-budget", "256", "--out", str(bad)]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == "" and not bad.exists()  # no stage ran
    # a frequency above the grid budget passes the config check and fails in
    # its run's schedule: exit 2, no table, though the frequencies before it ran
    argv = [sys.executable, script, "--lams", "64", "512", "--grid-budget", "256", "--out", str(bad)]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: stage frequency 512 exceeds the grid budget 256\n"
    assert proc.stdout == "" and not bad.exists()


def test_traced_benchmark_run(tmp_path):
    # the benchmark's tracer wraps functions by parameter name and unpacks
    # step's (state, bundle): a run it traces must find every function
    src = os.path.dirname(os.path.dirname(activeci.__file__))
    tracer = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spans = tmp_path / "spans.json"
    argv = [sys.executable, tracer, "--spans", str(spans), "--run-id", "t", "--"]
    argv += ["--qmax", "1", "--lambda1", "256", "--grid-budget", "256", "--out", str(tmp_path / "o")]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["rc"] == 0 and trace["missing"] == []
    assert trace["counters"]["iteration.coeffs.w.q1"] > 0


def test_cli_ipm3d_searches_its_basis(tmp_path):
    # no supplied_basis: the lattice search picks the 3-D directions
    out = tmp_path / "out"
    argv = ["--multiplier", "ipm3d", "--dim", "3", "--qmax", "1", "--lambda1", "128", "--grid-budget", "128"]
    assert main(argv + ["--out", str(out)]) == 0
    basis = json.loads((out / "report.json").read_text())["basis"]
    assert basis["omega"] == [[1, -2, -2], [2, -1, 2], [2, 2, -1]]
    supplied = build_basis(ipm3d(), supplied=[[2, 2, 1], [2, 1, 2], [1, 2, 2]])
    assert basis["eps_omega"] == build_basis(ipm3d()).eps_omega >= supplied.eps_omega


def test_cli_ipm3d_end_to_end(tmp_path):
    # the 3-D pipeline at a small scale: 128^3 grids, 3-component products
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "multiplier": "ipm3d",
                "d": 3,
                "supplied_basis": [[2, 2, 1], [2, 1, 2], [1, 2, 2]],
                "qmax": 1,
                "lambda1": 128,
                "grid_budget": 128,
            }
        )
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["exact_pass"] is True
    assert (report["params"]["r"], report["params"]["c"]) == ("1/16", "1/2")
