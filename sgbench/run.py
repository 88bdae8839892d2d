#!/usr/bin/env python3
"""Builds the sgbench driver from the repository's sources and runs one workload.

    python3 sgbench/run.py --workload paper-l7|combine-l10|svc-tcp \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The build tree is .bench_build/sgbench (the
first run configures and compiles; later runs only check it is up to date).
Traced runs also write their spans and per-grid budget to
.bench_build/sgbench-runs/.  The driver's lines go to stdout; the last line is
the result JSON {"correct", "attempted", "failed", "metrics"}.  Any failure to
build or run exits non-zero without printing a result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sgbench")
RUNS = os.path.join(ROOT, ".bench_build", "sgbench-runs")
WORKLOADS = ("paper-l7", "combine-l10", "svc-tcp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sgbench: library sources (src/) not found next to sgbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "sgbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("sgbench: build step failed: " + " ".join(step))


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # Self-test knobs: a smaller level and an injected fault.
    parser.add_argument("--level", type=int)
    parser.add_argument("--inject", choices=("none", "ulp", "reject"), default="none")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    build()
    os.makedirs(RUNS, exist_ok=True)
    cmd = [os.path.join(BUILD, "sgbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", RUNS, "--inject", args.inject]
    if args.level is not None:
        cmd += ["--level", str(args.level)]
    # A session of its own, so a timeout can stop the forked TCP workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("sgbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays of a crashed driver
        except ProcessLookupError:
            pass

    lines = out.splitlines()
    result = lines[-1] if lines else ""
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not valid_result(result):
        if result and not valid_result(result):
            print(result)
        sys.exit("sgbench: driver exited with status %d and no result" % proc.returncode)
    print(result, flush=True)


if __name__ == "__main__":
    main()
