#!/usr/bin/env python3
"""Tiny-budget self-test of the benchmark.

Runs every workload once untraced and once traced with tiny budgets and
asserts that each run passes its correctness checks and emits exactly the
metrics BENCHMARK.json names, each finite and carrying its unit. Also
asserts that README.md documents every metric. Takes about a minute once
the driver is built; exits non-zero on the first failure.

  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message: str) -> int:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "README.md")) as f:
        readme = f.read()
    for metric in bench["end_to_end"] + bench["per_layer"]:
        if f"`{metric['name']}`" not in readme:
            return fail(f"README.md does not document {metric['name']}")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "0", "--trace",
                 str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=900)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-3000:])
                return fail(f"{tag} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["correct"] is not True or result["attempted"] < 1:
                return fail(f"{tag}: {result}")
            metrics = result["metrics"]
            names = [m["name"] for m in expected]
            if sorted(metrics) != sorted(names):
                return fail(f"{tag} emitted {sorted(metrics)}, want {sorted(names)}")
            for m in expected:
                got = metrics[m["name"]]
                if got["unit"] != m["unit"]:
                    return fail(f"{tag} {m['name']} unit {got['unit']}")
                if not math.isfinite(got["value"]):
                    return fail(f"{tag} {m['name']} = {got['value']}")
            print(f"selftest: ok {tag} ({len(metrics)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
