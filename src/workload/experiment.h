#ifndef ACCELFLOW_WORKLOAD_EXPERIMENT_H_
#define ACCELFLOW_WORKLOAD_EXPERIMENT_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "core/orch_baselines.h"
#include "core/orchestrator.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "qos/admission.h"
#include "qos/power.h"
#include "workload/load_generator.h"
#include "workload/request_engine.h"
#include "workload/suites.h"

/**
 * @file
 * One-call experiment harness used by every bench binary: builds a machine,
 * registers the trace templates, instantiates a suite, applies a load, and
 * reports per-service latency plus machine-level activity.
 */

namespace accelflow::workload {

/** Full description of one experiment run. */
struct ExperimentConfig {
  core::OrchKind kind = core::OrchKind::kAccelFlow;
  core::MachineConfig machine;
  core::EngineConfig engine;
  std::vector<ServiceSpec> specs;
  LoadGenerator::Model load_model = LoadGenerator::Model::kTrace;
  /** Per-service mean RPS; if empty, `rps_per_service` applies to all. */
  std::vector<double> per_service_rps;
  double rps_per_service = 13400.0;
  sim::TimePs warmup = sim::milliseconds(20);
  sim::TimePs measure = sim::milliseconds(120);
  sim::TimePs drain = sim::milliseconds(30);
  std::uint64_t seed = 1;
  /** Deadline budget per accelerator step (SLO runs); kTimeNever = off. */
  sim::TimePs step_deadline_budget = sim::kTimeNever;
  /** Per-service override of step_deadline_budget (empty = uniform). */
  std::vector<sim::TimePs> step_deadline_budgets;

  /**
   * Optional span tracer attached to the run's machine (see obs/tracer.h);
   * nullptr (the default) disables tracing entirely. Attach at most one
   * tracer to one experiment point when sweeping in parallel — the tracer
   * is single-simulation state.
   */
  obs::Tracer* tracer = nullptr;
  /**
   * Optional metrics registry snapshotted at the end of the run with the
   * machine- and orchestrator-level counters (see obs/metrics.h).
   */
  obs::MetricsRegistry* metrics = nullptr;
  /**
   * Optional runtime invariant checker (see check/invariant_checker.h):
   * attached to the run's machine before any load is applied, final-
   * audited after the drain, and detached before the machine is torn
   * down. Violations accumulate in the checker for the caller to inspect.
   * Like the tracer, attach one checker to one experiment point when
   * sweeping in parallel. Independent of this field, setting AF_CHECK=1
   * in the environment attaches an internal checker to *every* run and
   * aborts with a report on any violation — the test suite runs this way.
   */
  check::InvariantChecker* checker = nullptr;

  /**
   * Deterministic fault-injection plan (see fault/fault_plan.h); the
   * default plan injects nothing. When enabled, the run constructs its own
   * fault::FaultInjector, attaches it to the machine, and the AccelFlow
   * orchestrator's resilience policy (hop watchdogs, retries, health
   * quarantine — DESIGN.md §14) activates. Independent of this field,
   * setting AF_FAULTS=<rate> in the environment applies a uniform plan at
   * that rate to every run (TESTING.md). Engine-family orchestrators
   * only: the baselines carry no recovery policy, so injecting faults
   * into them would strand chains forever rather than measure anything —
   * baseline runs ignore the plan and stay fault-free.
   */
  fault::FaultPlan faults;

  /**
   * Multi-tenant QoS policy (DESIGN.md §19). When enabled, the run
   * constructs a qos::AdmissionController at the load-generator boundary,
   * threads the policy into the engine (per-tenant chain quotas, entry
   * priorities) and the machine (reserved input slots, priority aging).
   * The default empty policy is a behavioral no-op.
   */
  qos::QosPolicy qos;

  /**
   * Package power cap (DESIGN.md §19): budget_w > 0 attaches a
   * qos::PowerGovernor that DVFS-scales every accelerator's PE speed to
   * hold the modeled power under the budget. Default: off.
   */
  qos::PowerCapConfig power;
};

/** Per-service outcome. */
struct ServiceResult {
  std::string name;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t faulted = 0;  ///< Needed fault recovery (DESIGN.md §14).
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  stats::LatencyRecorder latency;
};

/** Aggregate outcome of one run. */
struct ExperimentResult {
  std::vector<ServiceResult> services;
  double avg_mean_us = 0;
  double avg_p99_us = 0;

  // Machine activity over the measured window (approximately: whole run).
  double core_utilization = 0;
  std::array<double, accel::kNumAccelTypes> accel_utilization{};
  double dma_utilization = 0;
  sim::TimePs core_busy = 0;
  sim::TimePs accel_busy = 0;
  std::array<sim::TimePs, accel::kNumAccelTypes> accel_busy_by_type{};
  sim::TimePs elapsed = 0;  ///< Total simulated duration of the run.
  sim::TimePs dispatcher_busy = 0;
  sim::TimePs manager_busy = 0;
  sim::TimePs dma_busy = 0;
  sim::TimePs orchestration_time = 0;  ///< Baseline coordination time.
  std::uint64_t interrupts = 0;
  std::uint64_t manager_events = 0;

  core::EngineStats engine;       ///< AccelFlow-family runs.
  core::BaselineStats baseline;   ///< Baseline runs.
  fault::FaultStats faults;       ///< Injected faults (zero when disabled).

  // QoS accounting (DESIGN.md §19; empty/zero unless a policy was active).
  std::vector<qos::TenantAdmissionStats> qos_tenants;  ///< By tenant id.
  std::uint64_t qos_shed_total = 0;  ///< Arrivals shed at the boundary.
  qos::PowerStats power;             ///< Governor stats (budget_w > 0).

  // High-overhead event rates (Section VII-B.6).
  std::uint64_t overflow_enqueues = 0;
  std::uint64_t overflow_rejections = 0;
  std::uint64_t accel_invocations = 0;
  std::uint64_t tlb_lookups = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t page_faults = 0;
  std::uint64_t deadline_misses = 0;

  std::uint64_t total_completed() const {
    std::uint64_t n = 0;
    for (const auto& s : services) n += s.completed;
    return n;
  }
};

/** Runs one experiment. */
ExperimentResult run_experiment(const ExperimentConfig& config);

/** True when AF_CHECK=1 (anything but "0"/"") is set in the environment:
 *  every run attaches an internal invariant checker and aborts on any
 *  violation. The test suite runs this way (TESTING.md). */
bool af_check_enabled();

/** The AF_FAULTS environment knob: a per-site fault rate in [0, 1] that
 *  applies fault::FaultPlan::uniform(rate) to every run whose config does
 *  not already carry a plan. Returns 0 when unset or unparsable. */
double af_fault_rate();

/** The run's fault plan: config.faults, or — under AF_FAULTS=<rate> when
 *  that injects nothing — fault::FaultPlan::uniform(rate). */
fault::FaultPlan resolve_fault_plan(const ExperimentConfig& config);

/** The run's QoS policy (config.qos). Resolved once per machine by
 *  workload::Deployment. */
qos::QosPolicy resolve_qos_policy(const ExperimentConfig& config);

/** Copies `mc` with `policy`'s dispatcher knobs (reserved input slots,
 *  aging quantum) applied, so accelerators are built with them. */
core::MachineConfig with_qos(core::MachineConfig mc,
                             const qos::QosPolicy& policy);

/**
 * Collects the end-of-run measurements — per-service latency, machine
 * activity, orchestrator counters, and (optionally) a metrics-registry
 * snapshot — from a machine that has finished simulating. The core of
 * workload::Deployment::harvest(), which every entry point reports
 * through, so all of them report byte-identical structures for the same
 * simulated timeline.
 */
ExperimentResult harvest_result(core::Machine& machine,
                                const core::Orchestrator& orch,
                                const RequestEngine& engine,
                                obs::MetricsRegistry* metrics = nullptr);

/**
 * Unloaded per-service latency (P50 at a trickle load) — the basis of the
 * paper's SLO = 5x unloaded service execution time.
 */
std::vector<sim::TimePs> unloaded_latency(ExperimentConfig config,
                                          core::OrchKind kind);

/**
 * Maximum per-service load multiplier (applied to the configured rates)
 * such that every service's P99 stays within its SLO. Binary search.
 *
 * @param slos per-service latency SLOs.
 * @return the multiplier and, via out parameters if non-null, the result
 *         at the found operating point.
 */
double find_max_load(const ExperimentConfig& base,
                     const std::vector<sim::TimePs>& slos,
                     int search_iters = 7, double lo = 0.05,
                     double hi = 12.0, ExperimentResult* at_peak = nullptr);

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_EXPERIMENT_H_
