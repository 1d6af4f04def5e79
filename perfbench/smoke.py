#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload with short simulated windows (run.py --smoke), once
untraced and once traced, and checks that each run passes its correctness
checks and emits every metric this benchmark defines, each with a unit.
The metric list below is the one the benchmark was specified with; a name
the benchmark does not emit under that name must appear in MOVED with the
name it has and the reason.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("social_alibaba", "qos_antagonist", "cluster_ladder")

END_TO_END = ["requests_per_s", "setup_s", "peak_rss_mb", "sim_p50_us",
              "sim_p99_us", "sim_goodput_rps", "failed_frac", "slo_max_load"]
PER_LAYER = [
    "sim.events_per_request", "sim.host_ns_per_event", "sim.run_s",
    "sim.pending_high_water", "snapshot.checkpoint_ms", "snapshot.restore_ms",
    "core.setup_s", "core.glue_instrs_mean", "core.cpu_fallbacks",
    "critpath.dispatch_us", "critpath.glue_us", "critpath.core_us",
    "accel.jobs", "accel.overflow_enqueues", "accel.overflow_rejections",
    "accel.pe_util_max", "critpath.queue_us", "critpath.pe_service_us",
    "dma.transfers", "dma.engine_wait_us", "dma.utilization",
    "critpath.dma_us", "noc.hops", "noc.inter_bytes", "critpath.noc_us",
    "mem.tlb.miss_rate", "mem.iommu.walks", "critpath.translation_us",
    "cpu.utilization", "cpu.interrupts", "workload.build_s",
    "workload.harvest_s", "fault.injected", "fault.hop_timeouts",
    "fault.hop_retries", "fault.chains_faulted", "fault.health_fallbacks",
    "qos.shed", "qos.shed_antagonist_frac", "qos.victim_p99_us",
    "qos.quota_throttled", "cluster.prepare_s", "cluster.point_s",
    "cluster.thread_speedup", "cluster.remote_rpcs", "cluster.net_messages",
    "critpath.network_us", "obs.trace_overhead", "obs.dropped",
    "critpath.analyze_s", "critpath.chains", "critpath.violations",
    "check.overhead", "check.violations"]

# Specified end-to-end names the benchmark reports as per-layer metrics,
# with the reason. (failed_frac is per-layer too; its complement
# served_frac, never 0, is the end-to-end metric.)
MOVED = {
    "sim_goodput_rps": (
        "sim.goodput_rps", "under open-loop load it tracks the seed's "
        "offered rate (16% IQR across seeds on social_alibaba), not the "
        "system"),
    "slo_max_load": (
        "cluster.slo_max_load", "it exists only on cluster_ladder, and "
        "every end-to-end metric is reported on every workload"),
}


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, "exit %d" % done.returncode
    return json.loads(lines[-1]), None


def main():
    failures = []
    emitted = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, err = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            if err is not None:
                failures.append("%s: %s" % (tag, err))
                continue
            if not result["correct"]:
                failures.append("%s: correctness check failed" % tag)
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)) or \
                        not m.get("unit"):
                    failures.append("%s: %s lacks a value or unit"
                                    % (tag, name))
                emitted.add(name)
            print("ok  %-30s %d metrics" % (tag, len(result["metrics"])))
    for name in END_TO_END + PER_LAYER:
        if name in emitted:
            continue
        if name in MOVED and MOVED[name][0] in emitted:
            print("moved %s -> %s: %s" % (name, *MOVED[name]))
            continue
        failures.append("specified metric %s is not emitted" % name)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
