#!/usr/bin/env python3
"""Builds and runs the repository benchmark (pbft_bench) from source.

    python3 perfbench/run.py --workload null_closed|kv_open|kv_failover \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds perfbench/ (the
PBFT library from src/ plus the benchmark program) into .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr, so the benchmark's last stdout line is
its JSON result. Any argument is passed through to pbft_bench (see perfbench/README.md).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pbft_bench")
# A run is stopped if it outlives this; the benchmark's own runs end well before it.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode:
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
