#!/usr/bin/env python3
"""Builds the outside-in ATPG benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tail_paper --seed 1 --seconds 45 --trace 0

The first call configures and builds the gdf library and atpg_bench under
.bench_build/ (Release, LTO); later calls rebuild incrementally. Build
output goes to stderr; the last stdout line is the JSON result.
--trace 1 also writes the run's spans to .bench_build/spans-<workload>.jsonl.
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "atpg_bench")


def build():
    """Configures until a build tree exists, then rebuilds incrementally
    (the generated build re-runs cmake when a CMakeLists.txt changes)."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "atpg_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--circuit-seed", type=int, default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--circuit-seed", str(args.circuit_seed)]
    if args.trace == "1":
        cmd += ["--spans",
                os.path.join(BUILD_ROOT, "spans-%s.jsonl" % args.workload)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
