"""scripts/bench_pairs.py: summaries per baseline commit, and pairs only within one call."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "eval_users_per_s", "better": "higher"}]})
    )
    return module


def _call(module, monkeypatch, label, pairs, baseline_commit, baseline_value, change_value):
    """One command-line call whose runs report fixed metrics instead of running perfbench."""

    def run_once(tree, workload, seed, seconds, env):
        baseline = tree != module.ROOT
        return {
            "workload": workload, "seed": seed, "env": env,
            "commit": baseline_commit if baseline else "c" * 40,
            "attempted": 1, "failed": 0,
            "metrics": {"eval_users_per_s": baseline_value if baseline else change_value},
        }

    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--label", label, "--baseline", "elsewhere",
                                      "--workload", "planted-500", "--pairs", str(pairs)])
    assert module.main() == 0


def _read(root, label):
    return json.loads((root / f"BENCH_{label}.json").read_text())


def test_runs_of_other_calls_are_neither_summarised_nor_paired_together(bench_pairs, monkeypatch, tmp_path):
    # the "old" change beats its baseline, the "new" change loses to a faster one
    _call(bench_pairs, monkeypatch, "old", 2, "a" * 40, 100.0, 200.0)
    _call(bench_pairs, monkeypatch, "new", 2, "b" * 40, 300.0, 250.0)
    summary = _read(tmp_path, "baseline")["summary"]
    assert summary["planted-500 @aaaaaaa"]["eval_users_per_s"]["median"] == 100.0
    assert summary["planted-500 @bbbbbbb"]["eval_users_per_s"]["median"] == 300.0
    assert summary["planted-500 @aaaaaaa"]["runs"] == summary["planted-500 @bbbbbbb"]["runs"] == 2
    assert _read(tmp_path, "new")["pairs_better_than_baseline"]["planted-500"]["eval_users_per_s"] == "0/2"

    # a later call of the first label re-pairs its earlier runs with their own baseline runs
    _call(bench_pairs, monkeypatch, "old", 1, "a" * 40, 100.0, 200.0)
    assert _read(tmp_path, "old")["pairs_better_than_baseline"]["planted-500"]["eval_users_per_s"] == "3/3"
    assert _read(tmp_path, "baseline")["summary"]["planted-500 @aaaaaaa"]["runs"] == 3


def test_rewritten_bench_files_do_not_mark_a_checkout_dirty(bench_pairs, tmp_path):
    repo = tmp_path / "checkout"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo, check=True,
                       capture_output=True)

    git("init", "-q")
    (repo / "BENCH_baseline.json").write_text("{}\n")
    (repo / "model.py").write_text("x = 1\n")
    (repo / "CHANGES.md").write_text("- one\n")
    (repo / "src").mkdir()
    (repo / "src" / "kernel.py").write_text("y = 1\n")
    git("add", ".")
    git("commit", "-q", "-m", "seed")
    (repo / "BENCH_baseline.json").write_text('{"runs": []}\n')
    assert not bench_pairs.uncommitted_changes(repo)
    (repo / "CHANGES.md").write_text("- one\n- two\n")  # the change log, written while runs go on
    assert not bench_pairs.uncommitted_changes(repo)
    (repo / "src" / "kernel.py").write_text("y = 2\n")
    assert bench_pairs.uncommitted_changes(repo)
    git("checkout", "--", "src")
    assert not bench_pairs.uncommitted_changes(repo)
    (repo / "model.py").write_text("x = 2\n")
    assert bench_pairs.uncommitted_changes(repo)
