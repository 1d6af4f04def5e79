#ifndef ACCELFLOW_WORKLOAD_DEPLOYMENT_H_
#define ACCELFLOW_WORKLOAD_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "workload/experiment.h"

/**
 * @file
 * The one deployment builder (DESIGN.md §13): the stack a run simulates,
 * assembled from an ExperimentConfig in one fixed order, with its
 * recorder resets, fork checkpoint, harvest and final audit.
 * run_experiment(), SweepSession and every cluster::Datacenter shard are
 * built from it, so a policy applied here (the AF_FAULTS/AF_CHECK
 * fallbacks, the generator seed formula, the `rps <= 0` filter) applies
 * to all of them.
 */

namespace accelflow::workload {

/**
 * Under AF_CHECK=1, audits critical-path conservation over `tracer`'s ring
 * (every picosecond of every closed chain attributed, critpath.h) and
 * aborts with a report on any violation. No-op without a tracer. Call
 * once per straight-through run: a forked session's ring accumulates
 * across points.
 */
void audit_critical_path(const obs::Tracer* tracer);

/** One machine and the harness around it, built from one config. */
class Deployment {
 public:
  /**
   * Builds the stack in this order: machine (with the config's tracer),
   * templates, checker (the config's, or an internal one under AF_CHECK),
   * services, orchestrator, fault injector, request engine with its
   * deadline budgets, admission controller, one generator per service
   * whose rate is > 0 issuing until `issue_until`, and the power governor
   * (no epoch past `govern_until`). `engine_seed` replaces the run seed
   * for the engine only (cluster shards > 0): generator seeds always
   * derive from config.seed, so replicated arrival streams stay
   * identical. Throws std::invalid_argument when config.per_service_rps
   * is neither empty nor one rate per spec.
   */
  Deployment(const ExperimentConfig& config, sim::TimePs issue_until,
             sim::TimePs govern_until,
             std::optional<std::uint64_t> engine_seed = std::nullopt);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  /** Detaches the checker before the machine is torn down. */
  ~Deployment();

  core::Machine& machine() { return machine_; }
  RequestEngine& engine() { return *engine_; }
  std::vector<std::unique_ptr<Service>>& services() { return services_; }
  std::vector<std::unique_ptr<LoadGenerator>>& generators() { return gens_; }

  /** Zeroes the measurement recorders (engine, injector, admission,
   *  governor): the end of warmup, or the start of a forked point. */
  void reset_stats();

  /**
   * Captures the fork checkpoint of every component: machine,
   * orchestrator, engine, generators, checker, injector, admission and
   * governor. The calendar must be quiescent (DESIGN.md §13).
   */
  void checkpoint();
  /** True once checkpoint() has run. */
  bool has_checkpoint() const { return fork_ != nullptr; }
  /** Restores every component to the checkpoint. */
  void restore();

  /** Revives the stopped generators at `rate_factor` x their base rates
   *  until `issue_until`, and re-arms the governor until `govern_until`
   *  (the forked-point protocol, after restore()). */
  void resume(double rate_factor, sim::TimePs issue_until,
              sim::TimePs govern_until);

  /**
   * harvest_result() plus the fault, QoS and power accounting, with a
   * metrics snapshot into config.metrics when it is set; then final-audits
   * the checker, aborting with a report on any violation under AF_CHECK's
   * internal checker.
   */
  ExperimentResult harvest();

 private:
  struct Checkpoint;

  qos::QosPolicy policy_;  ///< Resolved before machine_ is built with it.
  core::Machine machine_;
  core::TraceLibrary lib_;
  std::unique_ptr<check::InvariantChecker> env_checker_;
  check::InvariantChecker* checker_ = nullptr;
  std::vector<std::unique_ptr<Service>> services_;
  std::unique_ptr<core::Orchestrator> orch_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<RequestEngine> engine_;
  std::unique_ptr<qos::AdmissionController> admission_;
  std::vector<std::unique_ptr<LoadGenerator>> gens_;
  std::vector<double> gen_rates_;  ///< Base rate per generator.
  std::unique_ptr<qos::PowerGovernor> governor_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<Checkpoint> fork_;
};

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_DEPLOYMENT_H_
