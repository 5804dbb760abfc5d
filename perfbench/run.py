#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is a CMake project in this directory that compiles the system's
libraries from ../src into .bench_build/perfbench (incrementally after the
first run). Its build output goes to standard error. The last line of
standard output is the binary's JSON result, after checking that it carries
exactly the metrics BENCHMARK.json names for the chosen --trace mode.

Exits 0 when a result was printed and non-zero otherwise (no sources to
build, a crashed or hung binary, a malformed result).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")

# Headroom past --seconds for set-up, warm-up and the final checks, within
# the 180 s a run may take.
RUN_SLACK_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Configure generates the Makefile only on success.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], [
        w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()

    # The system reads JITML_* settings from the environment; run with its
    # defaults, except one worker thread for the learning pipeline
    # (trainModelSet then trains its levels inline): on a shared host the
    # other tenants load the cores unevenly, and work fanned out over
    # several of them times that load rather than the program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("JITML_")}
    env["JITML_JOBS"] = "1"
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=BUILD, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("perfbench binary timed out")
    if proc.returncode != 0:
        fail("perfbench binary exited with status %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench binary printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result))
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail("result metrics %s do not match BENCHMARK.json %s" % (got, want))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
