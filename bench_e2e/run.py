#!/usr/bin/env python3
"""Build and run the end-to-end data-plane benchmark for one workload.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload oltp_4k --seed 1 --seconds 20 --trace 0

The first run configures and builds bench_e2e (and the library under src/)
into .bench_build/bench_e2e; later runs reuse that build. Arrays are created
under .bench_build/arrays/ and removed when the run ends; --trace 1 also
writes the run's spans to .bench_build/traces/. The benchmark's last stdout
line is its JSON result; build output goes to stderr. Exits non-zero when the
build fails, when any correctness check fails, or on a timeout.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ("oltp_4k", "stream_1m", "degraded_4k", "rebuild_4k")
# One run must end within 180 s; leave room for set-up and the checks.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("bench_e2e: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    arrays = os.path.join(BUILD_ROOT, "arrays", tag)
    shutil.rmtree(arrays, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", arrays]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, tag + ".json")]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("bench_e2e: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(arrays, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
