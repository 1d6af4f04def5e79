#!/usr/bin/env python3
"""The end-to-end benchmark in one command.

    python3 perfbench/run.py --workload social_alibaba --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. It builds the C++ benchmark (perfbench.cc)
against the simulator sources into .bench_build/perfbench, clears the
library's environment knobs so they cannot change what is measured, runs
one workload, and prints the benchmark's JSON result as the last line of
stdout. The exit status is non-zero when the build fails, the benchmark
fails a correctness check, or the metrics it emits are not exactly the
ones BENCHMARK.json names for the mode. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("social_alibaba", "qos_antagonist", "cluster_ladder")
# Each changes backends, checking, faults, QoS, windows or thread counts.
KNOBS = ("AF_CHECK", "AF_FAULTS", "AF_QOS", "AF_SCHED", "AF_COMPILE",
         "AF_BENCH_FAST", "AF_BENCH_THREADS")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources under src/: nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for the mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short simulated windows (smoke test only)")
    args = ap.parse_args()

    if not build():
        return 3

    env = dict(os.environ)
    for knob in KNOBS:
        if env.pop(knob, None) is not None:
            log("cleared " + knob + " from the environment")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench printed no result (exit %d)" % done.returncode)
        return done.returncode or 5
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench's last line is not JSON")
        return 5

    status = done.returncode
    expected = expected_metrics(args.trace)
    emitted = set(result["metrics"])
    if expected is not None and emitted != expected:
        log("metric set differs from BENCHMARK.json: missing %s, extra %s"
            % (sorted(expected - emitted), sorted(emitted - expected)))
        result["correct"] = False
        status = status or 1
    print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
