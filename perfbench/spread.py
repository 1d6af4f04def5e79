#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload social_alibaba --runs 10 \
        [--seed-base 1] [--seconds 20] [--json out.json]

Runs perfbench/run.py once per seed (seed-base, seed-base + 1, ...) and
prints, per metric, the median and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), beside the metric's bound
from BENCHMARK.json. A metric is steady when its spread is below a third
of its bound; setup_s has no spread requirement.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for i in range(args.runs):
        seed = args.seed_base + i
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print("seed %d failed (exit %d)" % (seed, done.returncode))
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print("seed %d: %s" % (seed, json.dumps(runs[-1])), flush=True)

    worst = 0.0
    print("%-18s %14s %9s %7s %s" % ("metric", "median", "IQR/med", "bound",
                                     "steady"))
    for name in sorted(bounds):
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        steady = name == "setup_s" or spread < bounds[name] / 3
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
        print("%-18s %14.6g %9.4f %7.3g %s" % (name, med, spread,
                                               bounds[name],
                                               "yes" if steady else "NO"))
    print("worst spread / bound (excluding setup_s): %.3f" % worst)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
