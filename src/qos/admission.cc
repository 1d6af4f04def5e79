#include "qos/admission.h"

#include <string>

namespace accelflow::qos {

AdmissionController::AdmissionController(sim::Simulator& sim,
                                         QosPolicy policy)
    : sim_(sim), policy_(std::move(policy)) {
  s_.tenants.resize(policy_.tenants.size());
}

void AdmissionController::refill(TenantState& s, const TenantSlo& slo) {
  const sim::TimePs now = sim_.now();
  if (!s.initialized) {
    // Buckets start full: a cold tenant owns its whole burst allowance.
    s.quota_tokens = slo.quota_rps * policy_.quota_burst_seconds;
    s.floor_tokens = slo.min_rps * policy_.quota_burst_seconds;
    s.refilled = now;
    s.initialized = true;
    return;
  }
  const double elapsed_s = sim::to_seconds(now - s.refilled);
  const auto top_off = [&](double& tokens, double rate) {
    if (rate <= 0) return;
    const double burst = rate * policy_.quota_burst_seconds;
    if (tokens >= burst) return;
    const double fill_s = (burst - tokens) / rate;
    tokens = elapsed_s >= fill_s ? burst : tokens + elapsed_s * rate;
  };
  top_off(s.quota_tokens, slo.quota_rps);
  top_off(s.floor_tokens, slo.min_rps);
  s.refilled = now;
}

bool AdmissionController::admit(std::size_t tenant) {
  TenantState& s = state(tenant);
  const TenantSlo& slo = policy_.tenant(static_cast<accel::TenantId>(tenant));
  ++s.stats.offered;
  refill(s, slo);

  bool within_quota = true;
  if (slo.quota_rps > 0) {
    if (s.quota_tokens >= 1.0) {
      s.quota_tokens -= 1.0;
    } else {
      within_quota = false;
    }
  }
  if (within_quota) {
    ++s.stats.admitted;
    return true;
  }
  ++s.stats.over_quota;
  // The guaranteed floor admits even under pressure.
  if (slo.min_rps > 0 && s.floor_tokens >= 1.0) {
    s.floor_tokens -= 1.0;
    ++s.stats.admitted;
    return true;
  }
  // Work-conserving: over-quota arrivals ride along while every
  // latency-sensitive tenant is within SLO.
  if (!s_.shedding) {
    ++s.stats.admitted;
    return true;
  }
  ++s.stats.shed;
  return false;
}

void AdmissionController::record_latency(std::size_t tenant,
                                         sim::TimePs latency) {
  TenantState& s = state(tenant);
  const TenantSlo& slo = policy_.tenant(static_cast<accel::TenantId>(tenant));
  ++s.stats.completions;
  if (slo.p99_target == sim::kTimeNever) return;
  const bool violation = latency > slo.p99_target;
  if (violation) ++s.stats.slo_violations;
  s.violation_ewma +=
      policy_.ewma_alpha * ((violation ? 1.0 : 0.0) - s.violation_ewma);
  update_pressure();
}

void AdmissionController::update_pressure() {
  // Hysteresis over the latency-sensitive tenants' violation EWMAs:
  // shedding starts when any crosses shed_enter and stops only once all
  // have decayed below shed_exit.
  bool any_hot = false;
  bool all_calm = true;
  for (std::size_t t = 0; t < s_.tenants.size(); ++t) {
    const TenantSlo& slo = policy_.tenant(static_cast<accel::TenantId>(t));
    if (slo.cls != TenantClass::kLatencySensitive ||
        slo.p99_target == sim::kTimeNever) {
      continue;
    }
    const double ewma = s_.tenants[t].violation_ewma;
    if (ewma > policy_.shed_enter) any_hot = true;
    if (ewma > policy_.shed_exit) all_calm = false;
  }
  if (!s_.shedding && any_hot) {
    s_.shedding = true;
    ++s_.shed_entries;
  } else if (s_.shedding && all_calm) {
    s_.shedding = false;
  }
}

std::vector<TenantAdmissionStats> AdmissionController::tenant_stats() const {
  std::vector<TenantAdmissionStats> out;
  out.reserve(s_.tenants.size());
  for (const TenantState& s : s_.tenants) out.push_back(s.stats);
  return out;
}

std::uint64_t AdmissionController::total_shed() const {
  std::uint64_t n = 0;
  for (const TenantState& s : s_.tenants) n += s.stats.shed;
  return n;
}

std::uint64_t AdmissionController::total_admitted() const {
  std::uint64_t n = 0;
  for (const TenantState& s : s_.tenants) n += s.stats.admitted;
  return n;
}

void AdmissionController::reset_stats() {
  for (TenantState& s : s_.tenants) s.stats = TenantAdmissionStats{};
}

void AdmissionController::snapshot_metrics(obs::MetricsRegistry& reg) const {
  reg.set("qos.admission.shedding", s_.shedding ? 1.0 : 0.0,
          obs::MetricsRegistry::Kind::kGauge);
  reg.set("qos.admission.shed_entries",
          static_cast<double>(s_.shed_entries));
  for (std::size_t t = 0; t < s_.tenants.size(); ++t) {
    const TenantAdmissionStats& s = s_.tenants[t].stats;
    const std::string p = "qos.tenant." + std::to_string(t) + ".";
    reg.set(p + "offered", static_cast<double>(s.offered));
    reg.set(p + "admitted", static_cast<double>(s.admitted));
    reg.set(p + "shed", static_cast<double>(s.shed));
    reg.set(p + "over_quota", static_cast<double>(s.over_quota));
    reg.set(p + "completions", static_cast<double>(s.completions));
    reg.set(p + "slo_violations", static_cast<double>(s.slo_violations));
    reg.set(p + "violation_ewma", s_.tenants[t].violation_ewma,
            obs::MetricsRegistry::Kind::kGauge);
  }
}

}  // namespace accelflow::qos
