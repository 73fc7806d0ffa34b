"""Smoke test of the benchmark harness on tiny corpora; takes a few seconds.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "B", "frac", "MAP")


def _bench(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def _result(workload: str, trace: int) -> dict:
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result("smoke", 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["smoke", "smoke-ablate"])
def test_traced_run_prints_per_layer_metrics_and_repeats_its_counts(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")
    counts = {k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["attempted"] == second["attempted"]


def test_declared_workloads_exist():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import harness
    finally:
        del sys.path[:2]
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
