#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is always the run's JSON
result.  Exits non-zero without a result when the sources are missing or
the build fails, and with the binary's exit code otherwise.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("browse-tune", "flash-overload")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build():
    if not (ROOT / "src" / "core" / "system_model.hpp").is_file():
        sys.exit("perfbench: no library sources at %s" % (ROOT / "src"))
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.exit("perfbench: build step failed: %s" % " ".join(step))


def main():
    args = parse_args()
    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(OUT_DIR)]
    sys.stdout.flush()
    done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
