#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <paper-pipeline|query-cold|query-hot>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any working directory works; paths are taken
relative to this file).  The first run configures and builds the library
and the benchmark harness under .bench_build/ (Release, Ninja when present,
three compile jobs); later runs rebuild only what changed.  Build output
goes to stderr, so the last line of stdout is the harness's JSON result.
The exit code is the harness's: non-zero when any correctness check failed.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "hpcem_perfbench")
WORKLOADS = ("paper-pipeline", "query-cold", "query-hot")


def build():
    """Configure (once) and build the harness; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "hpcem_perfbench",
           "-j", "3"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    needed = [os.path.join(ROOT, "src", "CMakeLists.txt"),
              os.path.join(ROOT, "scenarios", "figure1.json")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("error: not a checkout of the repository (missing %s)"
              % ", ".join(os.path.relpath(p, ROOT) for p in missing),
              file=sys.stderr)
        return 2
    if not build():
        print("error: benchmark build failed", file=sys.stderr)
        return 2
    cmd = [BINARY, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
