#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The harness is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr. The harness prints human-readable lines and then one JSON
result line; this script forwards them and checks that the last line is a
well-formed result. It exits non-zero, without printing a result, when the
simulator sources are missing, the build fails, or the harness fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "ps", "cluster.hpp")):
        fail(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S, sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    out = run([binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)],
              RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the harness did not end with a JSON result line")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the harness result has the wrong keys")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
