#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload plan-drift --seed 1 --seconds 24 --trace 0

Run from the repository root. The harness is configured and built under
.bench_build/perfbench on first use (later runs rebuild only what changed).

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics listed in BENCHMARK.json. --trace 1 runs it twice with the same
seed and length, untraced and then traced, and reports the per-layer
metrics, trace.overhead_frac among them; the traced run writes its spans
to .bench_build/spans/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is not 0 when the build or a
run fails or when a metric is missing.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
HARNESS = os.path.join(BUILD, "perfbench_harness")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The harness's workloads, each with the per-layer metrics of layers it
# never calls. Those are reported as 0; any other missing metric is an
# error. serve-distinct is not in BENCHMARK.json (see README.md) but runs
# the same way.
NOT_EXERCISED = {
    "plan-drift": ("serve.", "loadgen."),
    "serve-zipf": ("optimizer.", "estimator.batch_ms", "lp.kernel.",
                   "relation."),
    "serve-distinct": ("optimizer.", "estimator.batch_ms", "lp.kernel.",
                       "relation."),
}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, echo=sys.stderr):
    """Runs cmd, copying its output to `echo`; returns that output."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as err:
        fail("cannot run %s: %s" % (cmd[0], err))
    echo.write(proc.stdout)
    echo.flush()
    if proc.returncode != 0:
        fail("%s exited with %d" % (cmd[0], proc.returncode))
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", HERE, "-B", BUILD] + generator, BUILD_TIMEOUT_S)
    run(["cmake", "--build", BUILD, "--target", "perfbench_harness",
         "-j", "4"], BUILD_TIMEOUT_S)


def harness(args, mode):
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if mode == "trace":
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS, "%s-seed%d.csv" % (args.workload, args.seed))]
    out = run(cmd, RUN_TIMEOUT_S, echo=sys.stdout)
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    result = json.loads(lines[-1])
    return result


def pick(spec, measured, workload, fill_unexercised):
    metrics = {}
    for entry in spec:
        name = entry["name"]
        got = measured.get(name)
        if got is None and fill_unexercised and \
                name.startswith(NOT_EXERCISED[workload]):
            got = {"value": 0.0, "unit": entry["unit"]}
        if got is None or got["value"] is None:
            fail("metric %s missing or not finite" % name)
        if got["unit"] != entry["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, got["unit"], entry["unit"]))
        metrics[name] = {"value": got["value"], "unit": entry["unit"]}
    return metrics


def main():
    # A terminated run.py still stops and reaps its build or harness child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    if args.workload not in NOT_EXERCISED:
        fail("unknown workload %s" % args.workload, code=2)

    build()
    if args.trace == 0:
        result = harness(args, "e2e")
        metrics = pick(bench["end_to_end"], result["metrics"], args.workload,
                       fill_unexercised=False)
    else:
        base = harness(args, "base")
        result = harness(args, "trace")
        measured = dict(result["metrics"])
        base_ms = base["metrics"]["trace.compare_ms"]["value"]
        traced_ms = measured["trace.compare_ms"]["value"]
        measured["trace.overhead_frac"] = {
            "value": traced_ms / base_ms - 1.0, "unit": "frac"}
        print("trace.overhead_frac: traced %.3f ms vs untraced %.3f ms"
              % (traced_ms, base_ms))
        metrics = pick(bench["per_layer"], measured, args.workload,
                       fill_unexercised=True)
        result["mismatched"] += base["mismatched"]

    print(json.dumps({
        "correct": result["mismatched"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
