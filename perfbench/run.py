#!/usr/bin/env python3
"""Repository benchmark: whole AutoML searches through the public API.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_driver from this checkout's sources (release flags, into
.bench_build/), writes the workload's seeded input CSVs, runs the driver
for --seconds of measurement, checks its result against BENCHMARK.json
and prints that result as the last line of stdout:

  {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run, whose spans go to
.bench_build/traces/<workload>-seed<n>.jsonl. README.md maps every metric
to its layer and workload. When a correctness check fails it prints the
result with "correct": false and exits 1; when the build or the run fails
it exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# A measuring run must end within 180 s, and the first run in a checkout,
# which also builds, within 900 s; leave room for Python and cleanup.
RUN_DEADLINE_S = 170.0
FIRST_RUN_DEADLINE_S = 890.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd: list[str], timeout: float) -> bool:
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{' '.join(cmd[:2])} failed: {err}")
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        log(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
        return False
    return True


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], 300):
        return False
    return run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs,
                       "--target", "perfbench_driver"], 880)


def check_result(result: dict, expected: list[dict]) -> list[str]:
    """Problems with the driver's result against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(names):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(names) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(names))}")
    for name, unit in names.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not finite")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny budgets, for the self-test only")
    args = parser.parse_args()
    started = time.monotonic()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 1
    expected = bench["per_layer"] if args.trace else bench["end_to_end"]

    if not build():
        return 1

    tag = f"{args.workload}-seed{args.seed}"
    run_dir = os.path.join(BUILD_ROOT, "runs", f"{tag}-{os.getpid()}")
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    train_csv, test_csv = inputs.generate(args.workload, args.seed)
    train_path = os.path.join(run_dir, "train.csv")
    test_path = os.path.join(run_dir, "test.csv")
    with open(train_path, "w") as f:
        f.write(train_csv)
    with open(test_path, "w") as f:
        f.write(test_csv)

    # Paths are relative to the checkout root: Unix socket paths must stay
    # short whatever directory the checkout lives in.
    rel = lambda p: os.path.relpath(p, ROOT)  # noqa: E731
    cmd = [DRIVER, "--workload", args.workload, "--train", rel(train_path),
           "--test", rel(test_path), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", rel(run_dir)]
    if args.trace:
        cmd += ["--trace-out", rel(os.path.join(trace_dir, f"{tag}.jsonl"))]
    if args.tiny:
        cmd.append("--tiny")
    budget = min(RUN_DEADLINE_S,
                 FIRST_RUN_DEADLINE_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"driver exited with {proc.returncode} and no result")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"driver printed no JSON result: {lines[-1][:200]!r}")
        return 1
    problems = check_result(result, expected)
    for problem in problems:
        log(problem)
    if problems:
        return 1
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        log("correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
