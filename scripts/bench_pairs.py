#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, recorded as BENCH_<label>.json.

Runs perfbench/run.py of this checkout and of a baseline checkout (for
instance a `git clone` of the parent commit) one after the other, with the
same seed in each pair and the order alternating from pair to pair:

    python3 scripts/bench_pairs.py --label block-ranking --baseline ../parent \\
        --workload planted-500 --pairs 10 --seconds 25

Each run's end-to-end metrics go to BENCH_baseline.json and BENCH_<label>.json
at the root of this checkout; a later call adds its runs to the same files.
Both files summarise every metric per workload by median and quartiles, and
BENCH_<label>.json also counts the pairs in which this checkout did better.
Runs of different commits are summarised apart, and each run is paired only
with the run of the other side made alongside it in the same call (same
label, seed and pair index). An --env KEY=VALUE setting applies to both
sides and is kept with the runs, which are summarised apart from the runs
without it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: int, env: dict[str, str]) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env={**os.environ, **env}, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    environment = json.loads(next(line for line in lines if line.startswith("# environment "))[len("# environment "):])
    return {
        "workload": workload, "seed": seed, "env": env, "commit": environment.get("git_commit"),
        "uncommitted_changes": uncommitted_changes(tree),
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "environment": environment,
    }


def uncommitted_changes(tree: Path) -> bool:
    """Whether a tracked file differs from the commit. The BENCH_*.json files that record() rewrites, and
    Markdown files such as the change log, which no run reads, do not count."""
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)BENCH_*.json",
                             ":(exclude)*.md"], cwd=tree, capture_output=True, text=True).stdout
    return bool(status.strip())


def group_key(run: dict) -> str:
    return " ".join([run["workload"]] + [f"{k}={v}" for k, v in sorted(run["env"].items())])


def pair_key(run: dict) -> tuple:
    """The runs of one pair share this; runs recorded before labels were kept have label None."""
    return group_key(run), run["seed"], run["pair"], run.get("label")


def summarise(runs: list[dict]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) of each metric per workload and commit."""
    groups: dict[str, list[dict]] = {}
    for run in runs:
        commit = (run["commit"] or "unknown")[:7] + ("-dirty" if run.get("uncommitted_changes") else "")
        groups.setdefault(f"{group_key(run)} @{commit}", []).append(run)
    summary = {}
    for key, group in groups.items():
        summary[key] = {"runs": len(group), "failed": sum(r["failed"] for r in group)}
        for name in group[0]["metrics"]:
            values = [r["metrics"][name] for r in group]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            summary[key][name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return summary


def better_counts(runs: list[dict], baseline: list[dict], directions: dict[str, str]) -> dict:
    """Per workload and metric, the pairs in which ``runs`` did better (ties count for neither)."""
    by_pair = {pair_key(r): r for r in baseline}
    wins: dict[str, dict[str, str]] = {}
    for key in sorted({group_key(r) for r in runs}):
        pairs = [(r, by_pair[pair_key(r)]) for r in runs if group_key(r) == key and pair_key(r) in by_pair]
        wins[key] = {}
        for name, better in directions.items():
            sign = 1 if better == "higher" else -1
            won = sum(sign * (a["metrics"][name] - b["metrics"][name]) > 0 for a, b in pairs)
            wins[key][name] = f"{won}/{len(pairs)}"
    return wins


def record(path: Path, label: str, runs: list[dict], extra: dict | None = None) -> None:
    old = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    runs = old + runs
    body = {"label": label, "summary": summarise(runs), **(extra or {}), "runs": runs}
    path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json for this checkout's runs")
    ap.add_argument("--baseline", required=True, type=Path, help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; each pair takes the next")
    ap.add_argument("--env", action="append", default=[], metavar="KEY=VALUE")
    args = ap.parse_args()
    if args.label == "baseline":
        ap.error("--label baseline names the baseline's own file")
    env = dict(item.split("=", 1) for item in args.env)
    trees = {"change": ROOT, "baseline": args.baseline.resolve()}
    first = len(json.loads((ROOT / f"BENCH_{args.label}.json").read_text(encoding="utf-8"))["runs"]) \
        if (ROOT / f"BENCH_{args.label}.json").exists() else 0
    done: dict[str, list[dict]] = {"change": [], "baseline": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["baseline", "change"] if i % 2 == 0 else ["change", "baseline"]
        for side in order:
            run = run_once(trees[side], args.workload, seed, args.seconds, env)
            run["label"], run["pair"], run["first"] = args.label, first + i, side == order[0]
            done[side].append(run)
            print(f"pair {i} {side:8s} seed {seed} eval_users_per_s {run['metrics']['eval_users_per_s']:.0f} "
                  f"failed {run['failed']}", flush=True)

    directions = {e["name"]: e["better"] for e in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base_path, change_path = ROOT / "BENCH_baseline.json", ROOT / f"BENCH_{args.label}.json"
    record(base_path, "baseline", done["baseline"])
    all_base = json.loads(base_path.read_text(encoding="utf-8"))["runs"]
    old_change = json.loads(change_path.read_text(encoding="utf-8"))["runs"] if change_path.exists() else []
    wins = better_counts(old_change + done["change"], all_base, directions)
    record(change_path, args.label, done["change"], {"pairs_better_than_baseline": wins})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
