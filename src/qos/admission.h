#ifndef ACCELFLOW_QOS_ADMISSION_H_
#define ACCELFLOW_QOS_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "qos/policy.h"
#include "sim/simulator.h"

/**
 * @file
 * Latency-aware admission control with load shedding at the load-generator
 * boundary (DESIGN.md §19).
 *
 * Every arrival consults admit() before injection. Per tenant, a token
 * bucket at TenantSlo::quota_rps classifies the arrival as within- or
 * over-quota; a second bucket at TenantSlo::min_rps marks the guaranteed
 * floor. Over-quota arrivals are shed only while the controller is in the
 * *shedding* state, entered when any latency-sensitive tenant's SLO-
 * violation EWMA crosses QosPolicy::shed_enter and left once every such
 * EWMA has decayed below QosPolicy::shed_exit (hysteresis). Within-quota
 * and within-floor arrivals are never shed — which is what confines
 * shedding to the tenant actually exceeding its allocation.
 *
 * Deterministic and checkpointable: decisions are pure functions of
 * simulated time and completion history, so forked timelines replay
 * identically (DESIGN.md §13).
 */

namespace accelflow::qos {

/** Per-tenant admission accounting. */
struct TenantAdmissionStats {
  std::uint64_t offered = 0;      ///< Arrivals that consulted admit().
  std::uint64_t admitted = 0;     ///< Injected.
  std::uint64_t shed = 0;         ///< Refused at the load-gen boundary.
  std::uint64_t over_quota = 0;   ///< Arrivals beyond quota_rps.
  std::uint64_t completions = 0;  ///< Latencies observed.
  std::uint64_t slo_violations = 0;  ///< Completions above p99_target.
};

/** One controller guards one machine's (or shard's) arrival boundary. */
class AdmissionController {
 public:
  AdmissionController(sim::Simulator& sim, QosPolicy policy);

  /** Admission decision for one arrival of `tenant` at the current
   *  simulated time. False = shed (the generator drops the arrival). */
  bool admit(std::size_t tenant);

  /** Feeds one completed request's end-to-end latency back into the
   *  tenant's SLO-violation EWMA (called by workload::RequestEngine). */
  void record_latency(std::size_t tenant, sim::TimePs latency);

  /** True while over-quota arrivals are being shed. */
  bool shedding() const { return s_.shedding; }

  const QosPolicy& policy() const { return policy_; }

  /** Accounting for `tenant`; zeroed sentinel for tenants never seen. */
  const TenantAdmissionStats& stats(std::size_t tenant) const {
    static const TenantAdmissionStats kNone{};
    return tenant < s_.tenants.size() ? s_.tenants[tenant].stats : kNone;
  }

  /** Per-tenant accounting, indexed by tenant id. */
  std::vector<TenantAdmissionStats> tenant_stats() const;

  std::uint64_t total_shed() const;
  std::uint64_t total_admitted() const;

  /** Zeroes the accounting (end of warmup). Bucket levels, EWMAs and the
   *  shedding state carry over: they are the controller's operating
   *  point, not measurements. */
  void reset_stats();

  /** Exports per-tenant counters under "qos.tenant.<id>.*" plus the
   *  controller state under "qos.admission.*" (OBSERVABILITY.md). */
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

 private:
  struct TenantState {
    double quota_tokens = 0;    ///< Requests of quota credit.
    double floor_tokens = 0;    ///< Requests of guaranteed-floor credit.
    sim::TimePs refilled = 0;   ///< Last bucket refill timestamp.
    bool initialized = false;
    double violation_ewma = 0;  ///< EWMA of the SLO-violation indicator.
    TenantAdmissionStats stats;
  };

 public:
  /** The controller state, copied whole by checkpoint() (DESIGN.md §13). */
  struct State {
    std::vector<TenantState> tenants;  ///< Buckets, EWMAs, accounting.
    bool shedding = false;             ///< Hysteresis state.
    std::uint64_t shed_entries = 0;    ///< Shedding-state entries.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  /** Grow-on-demand per-tenant slot. */
  TenantState& state(std::size_t tenant) {
    if (tenant >= s_.tenants.size()) s_.tenants.resize(tenant + 1);
    return s_.tenants[tenant];
  }

  /** Refills both buckets, clamped at the burst allowance (the same
   *  time-compare form as core::TenantBandwidthLimiter — no huge
   *  elapsed*rate intermediates across long idle gaps). */
  void refill(TenantState& s, const TenantSlo& slo);

  /** Re-evaluates the shed hysteresis after an EWMA update. */
  void update_pressure();

  sim::Simulator& sim_;
  QosPolicy policy_;
  State s_;
};

}  // namespace accelflow::qos

#endif  // ACCELFLOW_QOS_ADMISSION_H_
