#!/usr/bin/env python3
"""Smoke check of the end-to-end benchmark.

Runs every workload on a tiny corpus for one second, untraced and traced,
and fails unless each run answers every query correctly (failed = 0) and
reports exactly the metrics BENCHMARK.json names, with their units.

Usage (from the repository root): python3 perfbench/smoke.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{workload} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{where}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {got} != {expected[trace]}")
            print(f"{where}: {result['attempted']} queries, failed {result['failed']}, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
