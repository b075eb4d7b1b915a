#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the CAKE broker overlay.

Run from the repository root:

    python3 perfbench/run.py --workload biblio-sim --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                       # every workload, in turn

The first run configures and builds the benchmark (the cake libraries from
src/ plus perfbench/src) into .bench_build/. Each workload then runs in a
process of its own; a workload process that crashes, hangs or exits with an
error is a failed run: every delivery it was to make counts as failed, and
it is neither retried nor reseeded. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. See
perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["biblio-sim", "stock-threaded", "biblio-churn"]
# Every run must end within 180 s of its start, build excluded.
RUN_LIMIT_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt beside perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(step))
            return False
    return os.path.isfile(BINARY)


def run_child(args, deadline):
    """Runs the benchmark binary; returns (exit code or None on timeout, stdout)."""
    try:
        result = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
        return result.returncode, result.stdout
    except subprocess.TimeoutExpired as timeout:
        out = timeout.stdout or ""
        return None, out if isinstance(out, str) else out.decode(errors="replace")


def failed_result(expected):
    attempted = max(1, expected)
    return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}


def run_workload(name, seed, seconds, trace, deadline):
    """Runs one workload process; returns its result object."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        stale = os.path.join(trace_dir, name + ".spans.jsonl")
        if os.path.exists(stale):
            os.remove(stale)
        args += ["--trace-dir", trace_dir]
    code, out = run_child(args, deadline)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    expected = 0
    for line in lines:
        match = re.search(r"(\d+) deliveries expected per pass", line)
        if match:
            expected = int(match.group(1))
    if code != 0 or not lines:
        log("perfbench: workload %s %s; recorded as a failed run" %
            (name, "timed out" if code is None else "exited with code %s" % code))
        return failed_result(expected)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: workload %s printed no result; recorded as a failed run" % name)
        return failed_result(expected)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = parser.parse_args()

    if not build():
        return 1
    start = time.monotonic()
    code, out = run_child(["--self-test"], start + 30.0)
    for line in out.splitlines():
        log(line)
    self_test_ok = code == 0

    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    combined = {"correct": self_test_ok, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        result = run_workload(name, opts.seed, opts.seconds, opts.trace == 1, deadline)
        combined["correct"] = combined["correct"] and bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "/"
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    if not self_test_ok:
        log("perfbench: self-test failed")
    print(json.dumps(combined))
    return 0 if combined["correct"] or combined["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
