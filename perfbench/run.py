#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload caida --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --reference --workload caida --seed 1

Run from the repository root. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) on first use; later
runs rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes Chrome trace-event JSON to <build dir>/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="print the exact top-k for the seed and exit")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.reference:
        command.append("--reference")
        sys.exit(subprocess.run(command, cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)

    # Durable files live here until the next run clears them at its start.
    work_dir = os.path.join(build_dir, "work")
    command += ["--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            timeout=RUN_TIMEOUT_S, text=True)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        fail("benchmark exited with code %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("benchmark printed no result")


if __name__ == "__main__":
    main()
