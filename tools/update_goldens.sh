#!/usr/bin/env bash
# Regenerates the simulated snapshots after an intentional behavior
# change: the golden regression files in tests/golden/ and the perf-gate
# baselines whose every key is a simulated value (BENCH_fault.json,
# BENCH_critpath.json, BENCH_qos.json). See TESTING.md, "Golden regression
# tests", and tools/perf_gate.py.
#
# It leaves the host-timed baselines alone (BENCH_kernel.json,
# BENCH_snapshot.json, BENCH_sweep.json and BENCH_cluster.json, whose
# *_wall_secs keys are host time): a behavior change must not re-baseline
# host speed. TESTING.md lists their commands for a change that does.
# Usage: tools/update_goldens.sh [build-dir]   (default: ./build)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"

cmake --build "$build" --target bench_fig11_latency bench_fig14_throughput \
  bench_fault_degradation bench_autotune bench_qos test_critpath test_obs -j
"$build/bench/bench_fig11_latency" --golden="$root/tests/golden/fig11.json"
"$build/bench/bench_fig14_throughput" --golden="$root/tests/golden/fig14.json"
"$build/bench/bench_fig14_throughput" --fork \
  --golden="$root/tests/golden/fig14_fork.json"
# The traced goldens (critpath.json, tiny_trace.json): their tests rewrite
# them in place under AF_REGOLD.
AF_REGOLD=1 "$build/tests/test_critpath" --gtest_filter='*Golden*'
AF_REGOLD=1 "$build/tests/test_obs" --gtest_filter='*Golden*'

# Full windows (no AF_BENCH_FAST): the fault keys are deterministic
# simulated throughputs, and CI measures them the same way.
AF_BENCH_FAULT_JSON="$root/BENCH_fault.json" \
  "$build/bench/bench_fault_degradation"
AF_BENCH_CRITPATH_JSON="$root/BENCH_critpath.json" \
  "$build/bench/bench_autotune"
# Fixed windows (the drill ignores AF_BENCH_FAST): the QoS isolation keys
# are deterministic simulated values (DESIGN.md §19).
AF_BENCH_QOS_JSON="$root/BENCH_qos.json" \
  "$build/bench/bench_qos"

echo "Goldens updated; review the diff with: git diff $root/tests/golden"
echo "Simulated baselines updated: BENCH_fault.json BENCH_critpath.json" \
  "BENCH_qos.json"
