"""The pair summary of scripts/bench.py, on canned run.py output."""

import importlib.util
import json
import os
import subprocess

import pytest

_path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench.py")
_spec = importlib.util.spec_from_file_location("bench", _path)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score", "unit": "count", "better": "higher", "bound": 0.25},
]


def _stdout(wall, score, correct=True):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "score": {"value": score, "unit": "count"}}
    return "\n".join(
        [
            'host {"nproc": 2, "python": "3.11.7"}',
            "workload w seed 1: 3 runs attempted, 0 failed",
            f"  wall_s {wall} s",
            json.dumps({"correct": correct, "attempted": 3, "failed": 0 if correct else 1, "metrics": metrics}),
        ]
    )


def test_parse_output_reads_host_and_result():
    host, result = bench.parse_output(_stdout(0.5, 3))
    assert host == {"nproc": 2, "python": "3.11.7"}
    assert result["metrics"]["wall_s"]["value"] == 0.5
    # an error run prints no result line
    assert bench.parse_output("error: no activeci sources\n") == (None, None)
    assert bench.parse_output("") == (None, None)


def test_run_failed():
    _, good = bench.parse_output(_stdout(0.5, 3))
    _, bad = bench.parse_output(_stdout(0.5, 3, correct=False))
    assert not bench.run_failed(0, good)
    assert bench.run_failed(1, good)
    assert bench.run_failed(0, None)
    assert bench.run_failed(0, bad)


def test_summary_lists_the_failed_runs(tmp_path, monkeypatch):
    # two pairs of one workload; the change's run of pair 1 prints a result
    # that is not correct, the parent's exits 1 without a result line
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": SPEC}

    def checkout(rev, dest):
        (dest / "src").mkdir(parents=True)
        (dest / "scripts").mkdir()
        (dest / "BENCHMARK.json").write_text(json.dumps(spec))
        return dest

    def fake_run(cmd, cwd, **kw):
        side, pair = os.path.basename(cwd), int(cmd[cmd.index("--seed") + 1]) - 7
        if (pair, side) == (1, "parent"):
            return subprocess.CompletedProcess(cmd, 1, "", "error: boom\n")
        return subprocess.CompletedProcess(cmd, 0, _stdout(0.5, 3, correct=(pair, side) != (1, "change")), "")

    monkeypatch.setattr(bench, "resolve", lambda rev: rev)
    monkeypatch.setattr(bench, "checkout", checkout)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "a", "--change", "b", "--seed", "7", "--pairs", "2", "--out", str(out)]) == 1
    runs = json.loads(out.read_text())["runs"]
    assert runs["attempted"] == 4 and runs["failed"] == 2
    assert runs["failures"] == [
        {"workload": "w", "pair": 1, "side": "change", "exit": 0, "correct": False},
        {"workload": "w", "pair": 1, "side": "parent", "exit": 1, "correct": None},
    ]


def _git(repo, *args):
    cmd = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args]
    return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()


def _repo(tmp_path, commits):
    """A local git repository of ``commits`` commits."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for n in range(commits):
        (repo / "f").write_text(str(n))
        _git(repo, "add", "f")
        _git(repo, "commit", "-q", "-m", f"c{n}")
    return repo


def test_revisions_are_recorded_as_full_hashes(tmp_path, monkeypatch):
    # two commits of a local repository; HEAD~1 and HEAD stop naming them
    # after the next commit, their hashes do not
    repo = _repo(tmp_path, 2)
    hashes = [_git(repo, "rev-parse", "HEAD~1"), _git(repo, "rev-parse", "HEAD")]
    monkeypatch.setattr(bench, "ROOT", repo)
    assert [bench.resolve("HEAD~1"), bench.resolve(hashes[1][:7])] == hashes

    spec = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": SPEC}
    checked_out = []

    def checkout(rev, dest):
        checked_out.append(rev)
        (dest / "src").mkdir(parents=True)
        (dest / "scripts").mkdir()
        (dest / "BENCHMARK.json").write_text(json.dumps(spec))
        return dest

    def fake_run(cmd, real_run=subprocess.run, **kw):  # git runs, run.py does not
        return real_run(cmd, **kw) if cmd[0] == "git" else subprocess.CompletedProcess(cmd, 0, _stdout(0.5, 3), "")

    monkeypatch.setattr(bench, "checkout", checkout)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", "HEAD~1", "--change", "HEAD", "--seed", "1", "--pairs", "1", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert [summary["parent"], summary["change"]] == checked_out == hashes


@pytest.mark.parametrize("rev", ["HEAD~5", "no-such-branch", "HEAD^{tree}"])
def test_bad_revision_exits_2_before_any_run(tmp_path, monkeypatch, capsys, rev):
    # HEAD~5 lies past the root, and a tree is no commit
    monkeypatch.setattr(bench, "ROOT", _repo(tmp_path, 1))
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", rev, "--change", "HEAD", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    # wall: change lower in pairs 0, 1; tied in 2; higher in 3
    # score: change higher in pairs 0, 2; lower in 1; tied in 3
    walls = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.1), (0.9, 1.0)]
    scores = [(3, 5), (4, 2), (1, 2), (7, 7)]
    records = []
    for pair, ((wp, wc), (sp, sc)) in enumerate(zip(walls, scores)):
        for side, w, s in (("parent", wp, sp), ("change", wc, sc)):
            records.append({"workload": "w", "pair": pair, "side": side, "result": bench.parse_output(_stdout(w, s))[1]})
    out = bench.summarize(records, SPEC)["w"]
    assert out["wall_s"]["change_wins"] == 2
    assert out["score"]["change_wins"] == 2
    assert out["wall_s"]["pairs"] == 4
    assert out["wall_s"]["parent"] == {"median": pytest.approx(1.05), "q1": pytest.approx(0.975), "q3": pytest.approx(1.125)}
    assert out["wall_s"]["change"]["median"] == pytest.approx(0.95)
    assert (out["score"]["unit"], out["score"]["better"]) == ("count", "higher")


def test_summarize_skips_pairs_with_a_failed_side():
    records = [
        {"workload": "w", "pair": 0, "side": "parent", "result": bench.parse_output(_stdout(1.0, 1))[1]},
        {"workload": "w", "pair": 0, "side": "change", "result": None},
        {"workload": "w", "pair": 1, "side": "change", "result": bench.parse_output(_stdout(0.5, 1))[1]},
        {"workload": "w", "pair": 1, "side": "parent", "result": bench.parse_output(_stdout(0.7, 1))[1]},
    ]
    out = bench.summarize(records, SPEC)["w"]["wall_s"]
    assert out["pairs"] == 1 and out["change_wins"] == 1
    assert out["parent"] == {"median": 0.7, "q1": 0.7, "q3": 0.7}


def test_count_lines_sums_src_and_scripts(tmp_path):
    def tree(name, files):
        root = tmp_path / name
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return root

    parent = tree("parent", {"src/pkg/a.py": "1\n2\n3\n", "scripts/s.py": "1\n2\n", "tests/t.py": "1\n" * 50, "README.md": "1\n"})
    # a file without a final newline counts as wc -l counts it: by its newlines
    change = tree("change", {"src/pkg/a.py": "1\n", "src/pkg/sub/b.py": "1\n2\n3\n4", "scripts/s.py": ""})
    assert bench.count_lines(parent) == 5
    assert bench.count_lines(change) == 4


def _records(pairs, name="wall_s"):
    """One record per side and pair from ``(parent, change)`` values of one metric."""
    return [
        {"workload": "w", "pair": i, "side": side, "result": {"metrics": {name: {"value": v}}}}
        for i, values in enumerate(pairs)
        for side, v in zip(bench.SIDES, values)
    ]


PARENT = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, q3 - q1 = 0.045
PARENT_WIDE = [1.0 + 0.1 * i for i in range(10)]  # median 1.45, q3 - q1 = 0.45


class Wide(list):
    """Change values to pair with PARENT_WIDE, whose q3 - q1 is wider than
    the 0.25 bound times its median (0.3625)."""


@pytest.mark.parametrize(
    "change,expect",
    [
        ([p - 0.1 for p in PARENT], "gain"),  # 10/10 wins, gap 0.1
        ([p - 0.1 for p in PARENT[:9]] + [1.10], "gain"),  # 9/10 wins
        ([p - 0.1 for p in PARENT[:8]] + [1.09, 1.10], "within_bound"),  # 8/10 wins
        ([p - 0.01 for p in PARENT], "within_bound"),  # 10/10 wins, gap below q3 - q1
        ([1.2 * p for p in PARENT], "within_bound"),  # 0.209 worse, bound 0.261
        ([1.3 * p for p in PARENT], "worse"),  # 0.314 worse
        (Wide([p - 0.05 for p in PARENT_WIDE[:9]] + [2.0]), "unresolved"),  # 9/10 wins, gap 0.05
        (Wide([p - 0.05 for p in PARENT_WIDE]), "within_bound"),  # 10/10 wins, gap 0.05
        (Wide([p + 0.3 for p in PARENT_WIDE]), "unresolved"),  # 0.3 worse, inside the bound
        (Wide([p + 0.4 for p in PARENT_WIDE]), "worse"),  # 0.4 worse
    ],
)
def test_verdict_of_an_end_to_end_metric(change, expect):
    parent = PARENT_WIDE if isinstance(change, Wide) else PARENT
    out = bench.summarize(_records(list(zip(parent, change))), SPEC)["w"]["wall_s"]
    assert out["verdict"] == expect


def test_verdict_follows_the_direction_and_skips_per_layer_metrics():
    higher = _records([(p, p + 0.1) for p in PARENT], name="score")
    assert bench.summarize(higher, SPEC)["w"]["score"]["verdict"] == "gain"
    lower = _records([(p, 0.7 * p) for p in PARENT], name="score")
    assert bench.summarize(lower, SPEC)["w"]["score"]["verdict"] == "worse"
    layer = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    assert "verdict" not in bench.summarize(_records([(p, p - 0.1) for p in PARENT]), layer)["w"]["wall_s"]
