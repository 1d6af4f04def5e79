#include "workload/deployment.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/trace_templates.h"
#include "critpath/critpath.h"

namespace accelflow::workload {

namespace {
/** `config`, once its per-service rates fit its specs. */
const ExperimentConfig& checked(const ExperimentConfig& config) {
  if (!config.per_service_rps.empty() &&
      config.per_service_rps.size() != config.specs.size()) {
    throw std::invalid_argument(
        "ExperimentConfig::per_service_rps has " +
        std::to_string(config.per_service_rps.size()) + " rates for " +
        std::to_string(config.specs.size()) +
        " services (give one per spec, or none)");
  }
  return config;
}
}  // namespace

void audit_critical_path(const obs::Tracer* tracer) {
  if (tracer == nullptr || !af_check_enabled()) return;
  critpath::Analyzer audit;
  audit.analyze(*tracer);
  if (audit.violations().empty()) return;
  std::fprintf(stderr,
               "AF_CHECK: critical-path conservation violated (%zu chains)\n",
               audit.violations().size());
  for (const std::string& v : audit.violations()) {
    std::fprintf(stderr, "  %s\n", v.c_str());
  }
  std::abort();
}

/** The fork checkpoint: every component's state at a quiescent point. */
struct Deployment::Checkpoint {
  core::Machine::Checkpoint machine;
  std::unique_ptr<core::OrchCheckpoint> orch;
  RequestEngine::Checkpoint engine;
  std::vector<LoadGenerator::Checkpoint> gens;
  check::InvariantChecker::Checkpoint checker;
  fault::FaultInjector::Checkpoint injector;       ///< RNG streams + counters.
  qos::AdmissionController::Checkpoint admission;  ///< Buckets + hysteresis.
  qos::PowerGovernor::Checkpoint governor;         ///< DVFS level + anchors.
};

Deployment::Deployment(const ExperimentConfig& config,
                       sim::TimePs issue_until, sim::TimePs govern_until,
                       std::optional<std::uint64_t> engine_seed)
    // The QoS policy's dispatcher knobs thread into the machine config, so
    // the accelerators are *built* with the reserved headroom and aging
    // quantum; its quotas and priorities go to the engine config below.
    : policy_(resolve_qos_policy(checked(config))),
      machine_(with_qos(config.machine, policy_)),
      metrics_(config.metrics) {
  if (config.tracer != nullptr) machine_.set_tracer(config.tracer);
  core::register_templates(lib_);
  register_relief_traces(lib_);

  // The caller's checker, or — under AF_CHECK=1 — an internal one that
  // turns any invariant violation into a hard failure (TESTING.md).
  checker_ = config.checker;
  if (checker_ == nullptr && af_check_enabled()) {
    env_checker_ = std::make_unique<check::InvariantChecker>();
    checker_ = env_checker_.get();
  }
  if (checker_ != nullptr) checker_->attach(machine_, lib_);

  services_ = build_services(config.specs, lib_);
  std::vector<Service*> service_ptrs;
  for (auto& s : services_) service_ptrs.push_back(s.get());

  core::EngineConfig engine_config = config.engine;
  if (policy_.enabled()) engine_config.qos = policy_;
  orch_ = core::make_orchestrator(config.kind, machine_, lib_, engine_config);

  // The injector is run-owned state (its RNG streams perturb simulated
  // time), unlike the observer-style tracer and checker. Only engine-
  // family orchestrators carry the resilience policy that recovers
  // injected losses (DESIGN.md §14); a baseline would strand chains.
  const fault::FaultPlan plan = resolve_fault_plan(config);
  if (plan.enabled() && orch_->engine() != nullptr) {
    injector_ = std::make_unique<fault::FaultInjector>(machine_.sim(), plan);
    machine_.set_fault_hooks(injector_.get());
  }

  engine_ = std::make_unique<RequestEngine>(
      machine_, *orch_, service_ptrs, engine_seed.value_or(config.seed));
  if (!config.step_deadline_budgets.empty()) {
    engine_->set_step_deadline_budgets(config.step_deadline_budgets);
  } else {
    engine_->set_step_deadline_budget(config.step_deadline_budget);
  }

  // QoS admission (DESIGN.md §19): consulted by every generator before
  // injection and fed every completion's latency.
  if (policy_.enabled()) {
    admission_ =
        std::make_unique<qos::AdmissionController>(machine_.sim(), policy_);
    engine_->set_admission(admission_.get());
  }

  for (std::size_t s = 0; s < services_.size(); ++s) {
    const double rps = config.per_service_rps.empty()
                           ? config.rps_per_service
                           : config.per_service_rps[s];
    if (rps <= 0) continue;
    gens_.push_back(std::make_unique<LoadGenerator>(
        machine_.sim(), *engine_, s, config.load_model, rps, issue_until,
        config.seed ^ (0x10AD + 1315423911ull * (s + 1))));
    if (admission_ != nullptr) gens_.back()->set_admission(admission_.get());
    gen_rates_.push_back(rps);
  }

  // Power cap (DESIGN.md §19): no epoch is posted past govern_until, so
  // the calendar still drains to quiescence.
  if (config.power.budget_w > 0.0) {
    governor_ = std::make_unique<qos::PowerGovernor>(machine_, config.power);
    governor_->start(govern_until);
  }
}

Deployment::~Deployment() {
  if (checker_ != nullptr) checker_->detach();
}

void Deployment::reset_stats() {
  engine_->reset_stats();
  if (injector_ != nullptr) injector_->reset_stats();
  if (admission_ != nullptr) admission_->reset_stats();
  if (governor_ != nullptr) governor_->reset_stats();
}

void Deployment::checkpoint() {
  fork_ = std::make_unique<Checkpoint>();
  machine_.checkpoint(fork_->machine);
  fork_->orch = orch_->save_checkpoint();
  fork_->engine = engine_->checkpoint();
  fork_->gens.reserve(gens_.size());
  for (const auto& g : gens_) fork_->gens.push_back(g->checkpoint());
  if (checker_ != nullptr) fork_->checker = checker_->checkpoint();
  if (injector_ != nullptr) fork_->injector = injector_->checkpoint();
  if (admission_ != nullptr) fork_->admission = admission_->checkpoint();
  if (governor_ != nullptr) fork_->governor = governor_->checkpoint();
}

void Deployment::restore() {
  machine_.restore(fork_->machine);
  orch_->restore_checkpoint(*fork_->orch);
  engine_->restore(fork_->engine);
  for (std::size_t i = 0; i < gens_.size(); ++i) {
    gens_[i]->restore(fork_->gens[i]);
  }
  if (checker_ != nullptr) checker_->restore(fork_->checker);
  if (injector_ != nullptr) injector_->restore(fork_->injector);
  if (admission_ != nullptr) admission_->restore(fork_->admission);
  if (governor_ != nullptr) governor_->restore(fork_->governor);
}

void Deployment::resume(double rate_factor, sim::TimePs issue_until,
                        sim::TimePs govern_until) {
  for (std::size_t i = 0; i < gens_.size(); ++i) {
    gens_[i]->resume(gen_rates_[i] * rate_factor, issue_until);
  }
  if (governor_ != nullptr) governor_->resume(govern_until);
}

ExperimentResult Deployment::harvest() {
  ExperimentResult out = harvest_result(machine_, *orch_, *engine_, metrics_);
  if (injector_ != nullptr) {
    out.faults = injector_->stats();
    if (metrics_ != nullptr) injector_->snapshot_metrics(*metrics_);
  }
  if (admission_ != nullptr) {
    out.qos_tenants = admission_->tenant_stats();
    out.qos_shed_total = admission_->total_shed();
    if (metrics_ != nullptr) admission_->snapshot_metrics(*metrics_);
  }
  if (governor_ != nullptr) {
    out.power = governor_->stats();
    if (metrics_ != nullptr) governor_->snapshot_metrics(*metrics_);
  }
  if (checker_ != nullptr) {
    checker_->final_audit();
    if (env_checker_ != nullptr && !checker_->ok()) {
      std::fprintf(stderr, "AF_CHECK: invariant violations detected\n%s",
                   checker_->report().c_str());
      std::abort();
    }
  }
  return out;
}

}  // namespace accelflow::workload
