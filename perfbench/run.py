#!/usr/bin/env python3
"""Run one workload of the PARD end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. On first use it configures and builds the
benchmark binary (perfbench/CMakeLists.txt: the repository's src/ plus
pard_bench.cc) in .bench_build/perfbench. It then runs the workload in one
child process, prints the request tally, the run's context and every
metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/README.md). The exit code is 0 only when every correctness
check passed. `--workload all` runs every workload, one process at a time,
and ends with one JSON line whose metric names carry the workload as prefix.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ["sim_lv_azure_pard", "sim_da_wiki_clipper_obs", "serve_tm_tweet_pard"]

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "pard_bench"

# Each workload's run must end within this many seconds; the first one in a
# checkout, which builds, within FIRST_RUN_LIMIT_S.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds pard_bench; returns True if it compiled anything."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fresh = not BINARY.exists()
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "--target", "pard_bench", "-j", jobs],
            stdout=sys.stderr, check=True)
        return fresh


def source_digest():
    """sha256 over the program's sources, so a result names its code without git."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload, seed, seconds, trace, deadline):
    """Runs pard_bench once; returns its report, or None if it crashed."""
    out_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    try:
        proc = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload}: pard_bench ran past its time limit and was stopped")
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"{workload}: pard_bench exited with code {proc.returncode}")
        return None
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: pard_bench printed no report")
        return None
    if report.get("correct") != (proc.returncode == 0):
        log(f"{workload}: pard_bench exit code {proc.returncode} disagrees with its report")
        return None
    return report


def describe(report, context):
    counts = report["counts"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {int(report['trace'])}  repetitions {counts['repetitions']}")
    print(f"requests  sent {counts['sent']}  good {counts['good']}  "
          f"dropped {counts['dropped']}  late {counts['late']}  failed {counts['failed']}")
    print("checks    " + "  ".join(
        f"{name} {'ok' if ok else 'FAILED'}" for name, ok in report["checks"].items()))
    print(f"latency samples per repetition: {counts['latency_samples']}")
    print("context   " + json.dumps(context, sort_keys=True))
    for name, metric in report["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    start = time.monotonic()
    if not (ROOT / "src" / "runtime" / "pipeline_runtime.h").exists():
        log(f"perfbench: no PARD sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    try:
        fresh = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 2

    context_base = {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for i, workload in enumerate(workloads):
        first = i == 0
        limit = FIRST_RUN_LIMIT_S if fresh and first else RUN_LIMIT_S
        deadline = (start if first else time.monotonic()) + limit
        report = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        if report is None:
            return 1
        context = dict(context_base, **report["build"], params=report["params"])
        describe(report, context)
        results_dir = BUILD_DIR / "results"
        results_dir.mkdir(exist_ok=True)
        record = results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(dict(report, context=context), indent=2) + "\n")
        results[workload] = report

    if len(results) == 1:
        report = next(iter(results.values()))
        metrics = report["metrics"]
    else:
        metrics = {f"{wl}.{name}": m for wl, r in results.items()
                   for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
