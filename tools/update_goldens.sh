#!/usr/bin/env bash
# Regenerates the golden regression snapshots in tests/golden/ and the
# perf-gate baselines at the repo root after an intentional behavior or
# performance change (see TESTING.md, "Golden regression tests", and
# tools/perf_gate.py). Perf baselines are measured with AF_BENCH_FAST=1,
# matching how CI measures before gating.
# Usage: tools/update_goldens.sh [build-dir]   (default: ./build)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"

cmake --build "$build" --target bench_fig11_latency bench_fig14_throughput \
  bench_kernel_events bench_snapshot_fork bench_fault_degradation \
  bench_autotune bench_cluster_scaling bench_qos test_critpath test_obs -j
"$build/bench/bench_fig11_latency" --golden="$root/tests/golden/fig11.json"
"$build/bench/bench_fig14_throughput" --golden="$root/tests/golden/fig14.json"
"$build/bench/bench_fig14_throughput" --fork \
  --golden="$root/tests/golden/fig14_fork.json"
# The traced goldens (critpath.json, tiny_trace.json): their tests rewrite
# them in place under AF_REGOLD.
AF_REGOLD=1 "$build/tests/test_critpath" --gtest_filter='*Golden*'
AF_REGOLD=1 "$build/tests/test_obs" --gtest_filter='*Golden*'

AF_BENCH_FAST=1 AF_BENCH_KERNEL_JSON="$root/BENCH_kernel.json" \
  "$build/bench/bench_kernel_events"
AF_BENCH_FAST=1 AF_BENCH_SNAPSHOT_JSON="$root/BENCH_snapshot.json" \
  AF_BENCH_SWEEP_JSON="$root/BENCH_sweep.json" \
  "$build/bench/bench_snapshot_fork"
# Full windows (no AF_BENCH_FAST): the fault keys are deterministic
# simulated throughputs, and CI measures them the same way.
AF_BENCH_FAULT_JSON="$root/BENCH_fault.json" \
  "$build/bench/bench_fault_degradation"
AF_BENCH_CRITPATH_JSON="$root/BENCH_critpath.json" \
  "$build/bench/bench_autotune"
# Full windows too: the cluster scaling keys are deterministic simulated
# aggregate throughputs (DESIGN.md §17).
AF_BENCH_CLUSTER_JSON="$root/BENCH_cluster.json" \
  "$build/bench/bench_cluster_scaling"
# Fixed windows (the drill ignores AF_BENCH_FAST): the QoS isolation keys
# are deterministic simulated values (DESIGN.md §19).
AF_BENCH_QOS_JSON="$root/BENCH_qos.json" \
  "$build/bench/bench_qos"

echo "Goldens updated; review the diff with: git diff $root/tests/golden"
echo "Perf baselines updated: BENCH_kernel.json BENCH_snapshot.json" \
  "BENCH_sweep.json BENCH_fault.json BENCH_critpath.json" \
  "BENCH_cluster.json BENCH_qos.json"
