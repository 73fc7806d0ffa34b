"""Benchmark of the convrec pipeline on generated planted-pattern corpora.

Run from the repository root:

    python3 perfbench/run.py --workload planted-500 --seed 1 --seconds 6 --trace 0

Each run generates its corpus from --seed with convrec.synthetic, goes
through prepare, train, evaluate, POP, recommend, the recommend CLI and
mine-rules by calling the package in src/, checks the outputs, and prints
one metric a line. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0; with --trace 1 the per-layer metrics of a traced rerun of the same
seed, which must train to bitwise the same parameters as the untraced run.
An untraced run repeats a fixed round of work until --seconds have passed
(at least three rounds) and reports medians. Its times are scaled by a
reference loop timed all through the run (see calibration.py), so that they
read as on a machine of fixed speed; "slowdown" in the samples line is the
factor by which this machine ran slower than that one. A traced run and the
untraced run it is checked against do one round and one training each, so
that their counts repeat exactly for a seed; the tracing overhead is then
timed on alternating traced and untraced calls.

The environment, every metric and the checks are also written to
.perfbench/out/, and the spans of a traced run as well.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a 2-core machine two threads spread wider run to run.
BLAS_THREADS = 1


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "convrec" / "__init__.py").is_file():
        print(f"perfbench: no convrec source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy, so only after the thread count is fixed

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / "work" / f"{label}-{os.getpid()}"
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # A traced run does one round, and the untraced run it is checked
        # against does the same.
        seconds, min_rounds = (0, 1) if args.trace else (args.seconds, harness.MIN_ROUNDS)
        plain = harness.Run(args.workload, args.seed, seconds, work / "plain", min_rounds)
        plain.execute()
        plain.check()
        runs = [plain]
        if args.trace:
            # per-layer times are plain wall times, without reference ticks
            traced = harness.Run(args.workload, args.seed, seconds, work / "traced", min_rounds, reference=False)
            with harness.full_tracer() as tracer:
                traced.execute()
            traced.check()
            harness.compare(plain, traced)
            runs.append(traced)
            overhead = harness.trace_overhead(plain)
            values, units = harness.layer_metrics(tracer, traced, overhead), harness.PER_LAYER
            tracer.dump(out_dir / f"{label}-spans.json")
        else:
            values, units = plain.metrics, harness.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in runs for f in r.failures]
    attempted = sum(r.attempted for r in runs)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    env = _environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "end_to_end": plain.metrics, "samples": plain.info,
        "metrics": metrics, "attempted": attempted, "failures": failures,
    }
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("# environment " + json.dumps(env))
    print("# samples " + json.dumps(plain.info))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"operations {attempted - len(failures)}/{attempted} passed")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
