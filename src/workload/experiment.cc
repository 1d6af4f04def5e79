#include "workload/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "core/orch_baselines.h"
#include "workload/deployment.h"
#include "workload/sweep.h"

namespace accelflow::workload {

bool af_check_enabled() {
  const char* v = std::getenv("AF_CHECK");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

double af_fault_rate() {
  const char* v = std::getenv("AF_FAULTS");
  if (v == nullptr || *v == '\0') return 0.0;
  char* end = nullptr;
  const double rate = std::strtod(v, &end);
  if (end == v || rate <= 0.0) return 0.0;
  return std::min(rate, 1.0);
}

fault::FaultPlan resolve_fault_plan(const ExperimentConfig& config) {
  if (config.faults.enabled()) return config.faults;
  const double rate = af_fault_rate();
  return rate > 0 ? fault::FaultPlan::uniform(rate) : config.faults;
}

qos::QosPolicy resolve_qos_policy(const ExperimentConfig& config) {
  return config.qos;
}

core::MachineConfig with_qos(core::MachineConfig mc,
                             const qos::QosPolicy& policy) {
  if (policy.enabled()) {
    if (policy.reserved_input_slots > 0) {
      mc.reserved_input_slots = policy.reserved_input_slots;
    }
    if (policy.aging_quantum_us > 0.0) {
      mc.sched_aging_quantum_us = policy.aging_quantum_us;
    }
  }
  return mc;
}

ExperimentResult harvest_result(core::Machine& machine,
                                const core::Orchestrator& orch,
                                const RequestEngine& engine,
                                obs::MetricsRegistry* metrics) {
  ExperimentResult out;
  out.services.resize(engine.num_services());
  double sum_mean = 0, sum_p99 = 0;
  std::size_t measured = 0;
  for (std::size_t s = 0; s < engine.num_services(); ++s) {
    ServiceResult& r = out.services[s];
    const ServiceStats& st = engine.stats(s);
    r.name = engine.service(s).name();
    r.completed = st.completed;
    r.failed = st.failed;
    r.fallbacks = st.fallbacks;
    r.faulted = st.faulted;
    r.latency = st.latency;
    if (st.latency.count() > 0) {
      r.mean_us = sim::to_microseconds(
          static_cast<sim::TimePs>(st.latency.mean()));
      r.p50_us = sim::to_microseconds(st.latency.p50());
      r.p99_us = sim::to_microseconds(st.latency.p99());
      sum_mean += r.mean_us;
      sum_p99 += r.p99_us;
      ++measured;
    }
  }
  if (measured > 0) {
    out.avg_mean_us = sum_mean / static_cast<double>(measured);
    out.avg_p99_us = sum_p99 / static_cast<double>(measured);
  }

  // Machine activity.
  out.elapsed = machine.sim().now();
  out.core_utilization = machine.cores().utilization();
  out.core_busy = machine.cores().stats().busy_time;
  out.dma_utilization = machine.dma().utilization();
  out.dma_busy = machine.dma().stats().busy_time;
  out.manager_busy = machine.manager().total_busy_time();
  out.interrupts = machine.cores().stats().interrupts;
  for (const accel::AccelType t : accel::kAllAccelTypes) {
    const auto& acc = machine.accel(t);
    out.accel_utilization[accel::index_of(t)] = acc.pe_utilization();
    out.accel_busy += acc.stats().pe_busy_time;
    out.accel_busy_by_type[accel::index_of(t)] = acc.stats().pe_busy_time;
    out.dispatcher_busy += acc.dispatcher_busy_time();
    out.overflow_enqueues += acc.stats().overflow_enqueues;
    out.overflow_rejections += acc.stats().overflow_rejections;
    out.accel_invocations += acc.stats().jobs;
    out.tlb_lookups += acc.tlb_stats().lookups;
    out.tlb_misses += acc.tlb_stats().misses();
    out.page_faults += acc.stats().faults;
    out.deadline_misses += acc.stats().deadline_misses;
  }
  if (const auto* eng = orch.engine()) {
    out.engine = eng->stats();
  } else if (const auto* base =
                 dynamic_cast<const core::BaselineOrchestrator*>(&orch)) {
    out.baseline = base->stats();
    out.orchestration_time = base->stats().orchestration_time;
    out.manager_events = base->stats().manager_events;
  }
  if (metrics != nullptr) {
    machine.snapshot_metrics(*metrics);
    if (const auto* eng = orch.engine()) {
      eng->snapshot_metrics(*metrics);
    }
  }
  return out;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const sim::TimePs issue_until = config.warmup + config.measure;
  Deployment dep(config, issue_until, issue_until + config.drain);
  // Warmup: run, then clear the recorders so only steady state counts.
  dep.machine().sim().run_until(config.warmup);
  dep.reset_stats();
  dep.machine().sim().run_until(issue_until + config.drain);
  ExperimentResult out = dep.harvest();
  audit_critical_path(config.tracer);
  return out;
}

std::vector<sim::TimePs> unloaded_latency(ExperimentConfig config,
                                          core::OrchKind kind) {
  config.kind = kind;
  config.load_model = LoadGenerator::Model::kPoisson;
  config.per_service_rps.assign(config.specs.size(), 200.0);
  config.warmup = sim::milliseconds(5);
  config.measure = sim::milliseconds(120);
  config.drain = sim::milliseconds(40);
  const ExperimentResult res = run_experiment(config);
  std::vector<sim::TimePs> out;
  out.reserve(res.services.size());
  for (const auto& s : res.services) out.push_back(s.latency.p50());
  return out;
}

namespace {
/**
 * The SLO search both find_max_load() variants run; `run_at(factor)`
 * simulates one point at `factor` x the configured per-service rates.
 * The latency-vs-load curve is cliff-like near saturation (queue-full
 * fallbacks feed back into CPU load), so a pure bisection is noisy: sweep
 * a geometric grid upward until the first violation, then refine with a
 * bounded number of bisection steps.
 */
double search_max_load(
    const ExperimentConfig& base, const std::vector<sim::TimePs>& slos,
    int search_iters, double lo, double hi, ExperimentResult* at_peak,
    const std::function<ExperimentResult(double)>& run_at) {
  std::vector<double> rps = base.per_service_rps;
  if (rps.empty()) rps.assign(base.specs.size(), base.rps_per_service);
  auto meets_slo = [&](double factor, ExperimentResult* keep) {
    const ExperimentResult res = run_at(factor);
    bool ok = true;
    for (std::size_t s = 0; s < res.services.size(); ++s) {
      if (rps[s] * factor <= 0) continue;  // Not driven.
      const auto& svc = res.services[s];
      // A saturated service stops completing requests at all: that also
      // violates.
      if (svc.completed == 0 || svc.latency.p99() > slos[s]) {
        ok = false;
        break;
      }
    }
    if (ok && keep) *keep = res;
    return ok;
  };

  if (!meets_slo(lo, at_peak)) return 0.0;
  double best = lo;
  double step = 1.35;
  double probe = lo;
  while (probe * step < hi) {
    probe *= step;
    if (meets_slo(probe, at_peak)) {
      best = probe;
    } else {
      hi = probe;
      break;
    }
  }
  for (int i = 0; i < search_iters; ++i) {
    const double mid = 0.5 * (best + hi);
    if (mid <= best || mid >= hi) break;
    if (meets_slo(mid, at_peak)) {
      best = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}
}  // namespace

double find_max_load(const ExperimentConfig& base,
                     const std::vector<sim::TimePs>& slos, int search_iters,
                     double lo, double hi, ExperimentResult* at_peak) {
  return search_max_load(
      base, slos, search_iters, lo, hi, at_peak, [&](double factor) {
        ExperimentConfig cfg = base;
        if (cfg.per_service_rps.empty()) {
          cfg.per_service_rps.assign(cfg.specs.size(), cfg.rps_per_service);
        }
        for (double& r : cfg.per_service_rps) r *= factor;
        return run_experiment(cfg);
      });
}

double find_max_load_forked(SweepSession& session,
                            const std::vector<sim::TimePs>& slos,
                            int search_iters, double lo, double hi,
                            ExperimentResult* at_peak) {
  if (!session.prepared()) session.prepare();
  return search_max_load(
      session.config(), slos, search_iters, lo, hi, at_peak,
      [&](double factor) { return session.run_point({factor, {}}); });
}

}  // namespace accelflow::workload
