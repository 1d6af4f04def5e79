#ifndef ACCELFLOW_QOS_POLICY_H_
#define ACCELFLOW_QOS_POLICY_H_

#include <cstdint>
#include <vector>

#include "accel/types.h"
#include "sim/time.h"

/**
 * @file
 * Multi-tenant QoS policy (DESIGN.md §19).
 *
 * The paper's Section IV-D tenancy knobs (the per-tenant trace cap and the
 * MBA-style bandwidth limiter) bound *resource use*; a production deployment
 * also needs per-tenant *service objectives*. A QosPolicy declares, per
 * tenant (== workload service index), a latency SLO, an admission quota, an
 * accelerator-side active-chain quota, and a queue priority class; plus two
 * ensemble-wide dispatcher knobs (reserved input slots and priority aging).
 *
 * Three subsystems consume one policy:
 *  - qos::AdmissionController sheds over-quota arrivals at the load-gen
 *    boundary while any latency-sensitive tenant is out of SLO,
 *  - core::AccelFlowEngine caps concurrent chains per tenant and stamps
 *    queue-entry priorities from the tenant class,
 *  - accel::Accelerator / accel::SramQueue reserve input-queue headroom for
 *    prioritized entries and age waiting priorities so best-effort tenants
 *    cannot starve.
 *
 * An empty policy (the default everywhere) is a behavioral no-op: every
 * default below reproduces the pre-QoS engine bit-for-bit.
 */

namespace accelflow::qos {

/** Tenant service class. */
enum class TenantClass : std::uint8_t {
  kBestEffort = 0,        ///< Sheddable under pressure; no latency SLO.
  kLatencySensitive = 1,  ///< Holds an SLO; its violations gate shedding.
};

/** One tenant's objectives and quotas. */
struct TenantSlo {
  TenantClass cls = TenantClass::kBestEffort;
  /** P99 latency target; violations feed the shed hysteresis. kTimeNever
   *  (the default) means "no latency SLO". */
  sim::TimePs p99_target = sim::kTimeNever;
  /** Guaranteed admission floor in requests/second: arrivals within this
   *  rate are never shed, pressure or not. 0 = no floor. */
  double min_rps = 0.0;
  /** Admission quota in requests/second; arrivals beyond it are sheddable
   *  while the ensemble is under latency pressure. 0 = unlimited. */
  double quota_rps = 0.0;
  /** Max concurrently-executing chains for this tenant; combines (min)
   *  with the ensemble-wide EngineConfig::tenant_max_active. */
  std::uint32_t max_active_chains = 1u << 30;
  /** Queue priority stamped on this tenant's entries (SchedPolicy::
   *  kPriority dispatches higher first). 0 = best-effort: such entries
   *  may also be refused the reserved input-queue headroom. */
  std::uint8_t priority = 0;
};

/** Full policy for one machine (or one shard of a cluster). */
struct QosPolicy {
  /** Per-tenant objectives, indexed by tenant id (== service index).
   *  Empty (the default) disables the whole QoS layer. */
  std::vector<TenantSlo> tenants;

  /** Input-queue slots a best-effort (priority-0) entry may not consume:
   *  headroom held back for prioritized tenants (accel::SramQueue). */
  std::size_t reserved_input_slots = 0;
  /** Waiting time that raises an entry's effective priority by one level
   *  under SchedPolicy::kPriority, so best-effort entries cannot starve
   *  behind a saturating prioritized tenant. 0 = aging off. */
  double aging_quantum_us = 0.0;

  // Admission-controller tuning (DESIGN.md §19 state machine).
  /** Burst allowance of the quota/floor token buckets, as seconds of
   *  credit at the configured rate. */
  double quota_burst_seconds = 0.02;
  /** EWMA step for the per-tenant SLO-violation indicator. */
  double ewma_alpha = 0.05;
  /** Enter shedding when any latency-sensitive tenant's violation EWMA
   *  exceeds this fraction... */
  double shed_enter = 0.10;
  /** ...and leave it only once every such tenant's EWMA has decayed below
   *  this (hysteresis: enter > exit prevents flapping). */
  double shed_exit = 0.02;

  bool enabled() const { return !tenants.empty(); }

  /** `tenant`'s objectives; unknown tenants get the all-defaults entry
   *  (no SLO, no quotas — exactly the pre-QoS behavior). */
  const TenantSlo& tenant(accel::TenantId t) const {
    static const TenantSlo kDefault{};
    return t < tenants.size() ? tenants[t] : kDefault;
  }

  /**
   * Tenant-isolation defaults for `num_tenants` services: every tenant in
   * one priority class (1, above best-effort so the reserved headroom
   * never refuses it), a generous active-chain cap, dispatcher aging and
   * reserved headroom on. No quotas and no SLOs, so the admission
   * controller never sheds.
   */
  static QosPolicy isolation_defaults(std::size_t num_tenants) {
    QosPolicy p;
    p.tenants.resize(num_tenants);
    for (TenantSlo& t : p.tenants) {
      t.priority = 1;
      t.max_active_chains = 1024;
    }
    p.reserved_input_slots = 4;
    p.aging_quantum_us = 25.0;
    return p;
  }
};

}  // namespace accelflow::qos

#endif  // ACCELFLOW_QOS_POLICY_H_
