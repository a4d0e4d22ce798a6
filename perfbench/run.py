#!/usr/bin/env python3
"""Builds and runs the svr4proc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run|debug|remote --seed N \
        --seconds S --trace 0|1

Every run configures and builds the library and the benchmark program in
.bench_build/perfbench; only the first compiles everything. Build output
goes to standard error; the program's report goes to standard output, and its
last line is one JSON object. Exits non-zero, without a JSON line, when the
build fails (for example when the repository sources are missing).
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(src_dir):
    # Configure every time: it is quick once cached, and a configure that
    # failed earlier (say, on missing sources) never leaves a stale tree.
    generator = []
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", src_dir, "-B", BUILD_DIR, *generator,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["run", "debug", "remote"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    src_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        binary = build(src_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.dirname(BUILD_DIR)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
