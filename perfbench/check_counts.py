#!/usr/bin/env python3
"""Determinism check: two traced plan-drift runs with the same seed must
report identical per-layer counts.

    python3 perfbench/check_counts.py [--seed N] [--seconds N]

Every per-layer metric whose unit is not a time or a rate is a count taken
from fixed-count loops (or a ratio of such counts), so any difference
between the two runs is a defect in the harness or the library. Exits 1
on a difference or on an answer that disagrees with the reference.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

TIMED_UNITS = ("ms", "us", "s", "1/s")


def counts(seed, seconds):
    proc = subprocess.run(
        [bench.HARNESS, "--workload", "plan-drift", "--seed", str(seed),
         "--seconds", str(seconds), "--mode", "trace"],
        cwd=bench.ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=bench.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit("harness exited with %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["mismatched"]:
        sys.exit("%d plans disagreed with the reference" % result["mismatched"])
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIMED_UNITS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()
    bench.build()
    first = counts(args.seed, args.seconds)
    second = counts(args.seed, args.seconds)
    differ = sorted(n for n in first if first[n] != second.get(n))
    for name in sorted(first):
        print("%-34s %18.6f %18.6f%s" % (name, first[name], second[name],
                                         "  DIFFERS" if name in differ else ""))
    if differ or first.keys() != second.keys():
        sys.exit("per-layer counts differ between two runs of one seed")
    print("ok: %d per-layer counts identical across two runs" % len(first))


if __name__ == "__main__":
    main()
