#!/usr/bin/env python3
"""Builds the benchmark binary from source if needed, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a NetCo checkout. The binary is configured into
.bench_build/ (Release) on first use and rebuilt incrementally after
that; build output goes to standard error so that the binary's result
object stays the last line of standard output. Traced runs also write
their spans to .bench_build/spans/<workload>-<seed>.jsonl.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "netco_perfbench")


def arg_value(argv, key):
    if key in argv:
        index = argv.index(key)
        if index + 1 < len(argv):
            return argv[index + 1]
    return None


def build():
    """Configures and builds the binary; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no NetCo sources (src/CMakeLists.txt) in " + ROOT,
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    argv = sys.argv[1:]
    if not build():
        return 3
    command = [BINARY] + argv
    if arg_value(argv, "--trace") == "1" and "--spans-out" not in argv:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-%s.jsonl" % (arg_value(argv, "--workload"),
                                arg_value(argv, "--seed"))
        command += ["--spans-out", os.path.join(spans_dir, name)]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
