#!/usr/bin/env python3
"""Quick-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Builds the binary if needed, runs every
workload named in BENCHMARK.json at a tiny size with --trace 0 and
--trace 1, and checks that each run passes its correctness gates and that
its result line names every metric of that mode, with a finite value and
the unit BENCHMARK.json gives. Exits nonzero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def check_run(workload, trace, expected):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    label = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return "%s: exit %d\n%s" % (label, proc.returncode, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return label + ": no output"
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return label + ": wrong result keys %s" % sorted(result)
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        return label + ": gates failed: %s" % lines[-1]
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return label + ": metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected)))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return "%s: %s is not a finite number: %r" % (label, name, value)
        if metrics[name]["unit"] != unit:
            return "%s: %s has unit %r, expected %r" % (
                label, name, metrics[name]["unit"], unit)
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in modes.items():
            error = check_run(workload, trace, expected)
            if error:
                print("FAIL " + error)
                return 1
            print("ok   %s --trace %d (%d metrics)" % (workload, trace,
                                                      len(expected)))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
