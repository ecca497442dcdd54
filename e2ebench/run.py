#!/usr/bin/env python3
"""End-to-end frame benchmark for RAVE.

Builds the benchmark binary (e2ebench/CMakeLists.txt, which compiles the
RAVE libraries from ../src) into .bench_build/e2ebench, then runs one
workload and prints its result; the last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload hand_collab --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py ... --save results.jsonl   # also append the record

Workloads: hand_collab, elle_orbit, volume_assist (see e2ebench/NOTES.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
Compare two saved result sets with e2ebench/compare.py.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_frame")
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then (re)build the binary; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_frame", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return False
    return True


def git_sha():
    # The checkout may not be a repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small scenes, for the benchmark's tests")
    parser.add_argument("--save", help="append {meta, result} as one JSON line to this file")
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: e2e_frame exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: e2e_frame failed with exit code %d\n" % proc.returncode)
        return 1
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    if args.save:
        with open(args.save, "a") as out:
            out.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
