"""Correctness gate: the seed-independent part of a ``ci-run`` report.

``extract`` keeps four sections of ``report.json``:

* ``verdicts``: ``exact_pass``, the item passes and the weak-form
  ``all_pass`` of every stage; must match exactly.
* ``schedule``: r, c, the lambda and eps schedules and the stage flags;
  must match exactly.
* ``basis``: directions, k*, eps_Omega, |k|, A and delta; relative
  tolerance ``BASIS_RTOL``.
* ``norms``: per-stage stress norms and ratios, increment L^p and Besov
  values, the L^1 mass and the cancellation diagnostics; relative tolerance
  ``NORM_RTOL``.

The seed only draws the two random weak-form test functions, so none of
their values is kept and one reference serves every seed.  Roundoff-sized
values (residual defects, mean-cancellation errors) are checked through
their verdicts, not their digits.
"""

from __future__ import annotations

BASIS_RTOL = 1e-12
NORM_RTOL = 1e-9

_HISTORY_NORMS = ("R_Hs", "ratio", "R_O_Hs", "wTw_Hs", "R_N_Hs", "R_D_Hs")
_DIAGNOSTIC_NORMS = ("ratio", "low_Hs", "high_Hs", "offdiag_Hs")


def extract(report: dict) -> dict:
    verdicts = {"exact_pass": report["exact_pass"]}
    norms = {}
    for stage in report["stages"]:
        q, items, history = stage["q"], stage["items"], stage["history"]
        for item in ("item1", "item2", "item5", "item6"):
            verdicts[f"q{q}.{item}.pass"] = items[item]["pass"]
        verdicts[f"q{q}.exact_pass"] = items["exact_pass"]
        verdicts[f"q{q}.weak_form.all_pass"] = stage["weak_form"]["all_pass"]
        norms[f"q{q}.theta_L1"] = items["item5"]["theta_L1"]
        for key in _HISTORY_NORMS:
            if history.get(key) is not None:
                norms[f"q{q}.{key}"] = history[key]
        for p, rec in history.get("w_lp", {}).items():
            norms[f"q{q}.w_lp.{p}"] = rec["norm"]
        for alpha, value in history.get("w_besov", {}).items():
            norms[f"q{q}.w_besov.{alpha}"] = value
        for key in _DIAGNOSTIC_NORMS:
            value = (stage["diagnostics"] or {}).get(key)
            if value is not None:
                norms[f"q{q}.diag.{key}"] = value
    params, basis = report["params"], report["basis"]
    return {
        "verdicts": verdicts,
        "schedule": {k: params[k] for k in ("r", "c", "lam_schedule", "eps_schedule", "stage_flags")},
        "basis": {
            "omega": basis["omega"],
            "k_star": basis["k_star"],
            "eps_omega": basis["eps_omega"],
            "common_norm": basis["common_norm"],
            "A": params["A"],
            "delta": params["delta"],
        },
        "norms": norms,
    }


def _close(a, b, rtol: float) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (
            isinstance(a, list)
            and isinstance(b, list)
            and len(a) == len(b)
            and all(_close(x, y, rtol) for x, y in zip(a, b))
        )
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(got: dict, reference: dict) -> list:
    """Every disagreement between an extract and the reference, as text."""
    bad = []
    for section, rtol in (("verdicts", None), ("schedule", None), ("basis", BASIS_RTOL), ("norms", NORM_RTOL)):
        ours, theirs = got[section], reference[section]
        for key in sorted(ours.keys() | theirs.keys()):
            if key not in ours or key not in theirs:
                bad.append(f"{section}.{key}: present in only one of run and reference")
                continue
            a, b = ours[key], theirs[key]
            if not (a == b if rtol is None else _close(a, b, rtol)):
                bad.append(f"{section}.{key}: {a!r} != reference {b!r}")
    return bad
