#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tune --seed 1 --seconds 28 --trace 0

Workloads: tune, search, serve_hot, serve_cold (see perfbench/README.md).
The first run configures and builds perfbench/CMakeLists.txt (which
compiles the difftune library from this checkout's sources) under
.bench_build/perfbench; later runs rebuild incrementally. The last
stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output goes to stderr. The metrics are checked against the sets
BENCHMARK.json declares; in a traced run, the layers a workload never
runs are reported as 0. The script exits non-zero, printing no result,
when the build fails, the benchmark fails, or a metric is missing,
undeclared or in the wrong unit.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the whole run must end within 180 s


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the perfbench target; return it."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "--parallel", "4"],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def source_stamp():
    """(git SHA or "none", sha256 over the built sources)."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return sha, digest.hexdigest()[:16]


def declared_metrics(trace):
    """{name: unit} of the set BENCHMARK.json declares for this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete_metrics(metrics, declared, trace):
    """Check measured metrics against the declared set; in a traced
    run, add the layers the workload never ran as 0. Returns an error
    message, or None."""
    for name, metric in metrics.items():
        if declared.get(name) != metric["unit"]:
            return f"undeclared metric or unit: {name} [{metric['unit']}]"
    missing = [name for name in declared if name not in metrics]
    if missing and not trace:
        return f"missing end-to-end metrics: {missing}"
    for name in missing:
        metrics[name] = {"value": 0, "unit": declared[name]}
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tune", "search", "serve_hot", "serve_cold"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the harness self-test")
    args = parser.parse_args()

    started = time.monotonic()
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    sha, digest = source_stamp()

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(build_dir, "work"),
               "--git-sha", sha, "--source-digest", digest]
    if args.tiny:
        command.append("--tiny")
    # The first run's build may be long; later runs keep to the limit.
    budget = max(RUN_LIMIT_S - (time.monotonic() - started), 60)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {budget:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(line + "\n" for line in lines))
        fail(f"benchmark exited with code {proc.returncode}")

    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    error = complete_metrics(result["metrics"],
                             declared_metrics(args.trace), args.trace)
    if error:
        fail(error)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
