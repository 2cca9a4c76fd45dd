#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it with the given arguments.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ at the root of the checkout (CMake, Release,
library and benchmark only); when it is up to date it costs about a second.
Build output goes to stderr, so the last line of stdout is the benchmark's
result JSON. Every argument is passed to the binary unchanged (see
bench_e2e.cpp for the options).
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def run(cmd, timeout):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout)
    if result.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed ({result.returncode})")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no library sources at {ROOT}; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    run(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
        timeout=850)


def main():
    build()
    try:
        return subprocess.run([str(BUILD / "bench_e2e"), *sys.argv[1:]],
                              timeout=175).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: bench_e2e did not finish within 175 s")


if __name__ == "__main__":
    sys.exit(main())
