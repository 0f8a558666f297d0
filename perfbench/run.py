#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload search|traffic|execute \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (and with it the Prairie
libraries under src/) in .bench_build/perfbench with CMake, Release build;
later runs only bring that build up to date. Build output goes to stderr.
The benchmark binary then runs with the same arguments: its standard
output is exactly one line, the JSON result, so that line is the last line
this script prints. A build failure, a missing source tree or a crash ends
with a non-zero exit code and no result line.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for at most a minute; anything far beyond is a hang.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Prairie sources at %s/src" % ROOT)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    # Concurrent runs in one checkout build one at a time.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("build step failed: " + " ".join(cmd))
                return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 2
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
