"""End-to-end harness: config, multiplier gating, weak form, artifacts, CLI."""

import json
import os

import numpy as np
import pytest

from activeci.cli import config_from_args, main
from activeci.directions import build_basis
from activeci.fields import SpectralField, gradient
from activeci.harness import (
    ConfigError,
    RunConfig,
    build_test_functions,
    pairing,
    pairing_gross,
    resolve_multiplier,
    run,
    weak_form_test,
)
from activeci.iteration import base_state, make_params
from activeci.multipliers import ipm2d


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


def test_test_functions_deterministic():
    a = build_test_functions(2, seed=0)
    b = build_test_functions(2, seed=0)
    assert [m[0] for m in a.members] == [m[0] for m in b.members]
    for (la, fa, ra), (lb, fb, rb) in zip(a.members, b.members):
        assert fa.coeffs.keys() == fb.coeffs.keys()
        assert ra == rb
    c = build_test_functions(2, seed=1)
    assert a.members[-1][1].coeffs != c.members[-1][1].coeffs


def test_pairing_oracle():
    # integral of cos(2 pi x1)^2 = 1/2
    f = SpectralField.scalar(2, {(1, 0): 0.5, (-1, 0): 0.5}, reality=True)
    assert abs(pairing(f, f) - 0.5) < 1e-15
    assert abs(pairing_gross(f, f) - 0.5) < 1e-15
    # orthogonal modes pair to zero
    g = SpectralField.scalar(2, {(0, 1): 0.5, (0, -1): 0.5}, reality=True)
    assert pairing(f, g) == 0.0


def test_weak_form_on_base_state():
    m = ipm2d()
    basis = build_basis(m, supplied=((4, 3), (4, -3)))
    params = make_params(basis, qmax=1)
    st = base_state(params, m, basis)
    psis = build_test_functions(2, seed=0)
    res = weak_form_test(st, psis, params)
    assert res["all_pass"]
    for label, rec in res.items():
        if label == "all_pass":
            continue
        assert rec["defect_rel"] <= 1e-10


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
        assert os.path.exists(os.path.join(stage, "theta.json"))
        assert os.path.exists(os.path.join(stage, "u.json"))
        assert os.path.exists(os.path.join(stage, "R.json"))
    assert os.path.exists(os.path.join(out, "stage-1", "w.json"))


def test_report_structure(fast_run):
    _, out = fast_run
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    assert report["exact_pass"] is True
    assert report["config"]["multiplier"] == "ipm2d"
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


def test_report_snapshot_roundtrip(fast_run):
    from activeci.fields import load_snapshot
    from activeci.fields import divergence_defect

    _, out = fast_run
    u = load_snapshot(os.path.join(out, "stage-1", "u.json"))
    assert divergence_defect(u) <= 1e-13


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
        ["--config", str(cfg), "--lambda1", "256", "--out", str(tmp_path / "o")]
    )
    assert config.qmax == 1
    assert config.lambda1 == 256  # flag wins over file
    assert config.out == str(tmp_path / "o")


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 0.5}))
    assert main(["--config", str(cfg)]) == 2
    assert main(["--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda1", "100"],  # not a power of two
        ["--multiplier", "ipm3d", "--dim", "3"],  # 3-D needs a supplied basis
    ],
)
def test_cli_bad_input_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_rejects_odd_multiplier(tmp_path):
    assert main(["--multiplier", "sqg", "--out", str(tmp_path / "o")]) == 2
