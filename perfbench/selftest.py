#!/usr/bin/env python3
"""Tiny-size self-test of the perfbench harness.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at --tiny size, untraced and traced, through
run.py and checks the result contract: exit code 0, a JSON last line
with exactly correct/attempted/failed/metrics, every gate passing,
exactly the metric sets BENCHMARK.json declares, end-to-end values
above 0, and the same test_mape for the same seed. Then checks that a
directory holding only BENCHMARK.json and perfbench/ exits non-zero
without printing a result. Scratch files stay under .bench_build/.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tune", "search", "serve_hot", "serve_cold"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}

    mape = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            name = f"{workload} trace={trace}"
            proc = run(ROOT, workload, trace)
            check(proc.returncode == 0, f"{name}: exit code 0")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(False, f"{name}: JSON result line")
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], f"{name}: result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{name}: gates pass")
            check(result["attempted"] >= 1, f"{name}: attempted >= 1")
            check(set(result["metrics"]) == declared[trace],
                  f"{name}: declared metric set")
            if trace == 0:
                check(all(m["value"] > 0
                          for m in result["metrics"].values()),
                      f"{name}: end-to-end values above 0")
                mape[workload] = result["metrics"]["test_mape"]["value"]
            check(any(line.startswith("perfbench-stamp ")
                      for line in lines), f"{name}: stamp line")

    for workload in ("tune", "serve_hot"):
        proc = run(ROOT, workload, 0)
        value = json.loads(proc.stdout.strip().splitlines()[-1])[
            "metrics"]["test_mape"]["value"]
        check(value == mape.get(workload),
              f"{workload}: same seed, same test_mape")

    # Only BENCHMARK.json and perfbench/: the build must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "tune", 0)
    check(proc.returncode != 0, "bare directory: non-zero exit")
    check(not proc.stdout.strip().endswith("}"),
          "bare directory: no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
