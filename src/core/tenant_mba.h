#ifndef ACCELFLOW_CORE_TENANT_MBA_H_
#define ACCELFLOW_CORE_TENANT_MBA_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "accel/types.h"
#include "sim/simulator.h"
#include "sim/time.h"

/**
 * @file
 * Per-tenant memory/interconnect bandwidth allocation, in the spirit of
 * Intel Memory Bandwidth Allocation (MBA). Section IV-D: the per-tenant
 * trace cap "can be combined with a technique that limits memory bandwidth
 * use by a tenant in the memory controller, such as Intel's MBA".
 *
 * Each throttled tenant gets a token bucket refilled at its configured
 * rate; A-DMA transfers on that tenant's behalf are delayed until the
 * bucket covers their bytes. Unthrottled tenants pass through for free.
 */

namespace accelflow::core {

/** Per-tenant bandwidth limits. */
struct MbaConfig {
  /** Limits in bytes/second; tenants not present are unthrottled, and so
   *  are rates that are not finite and > 0 (an infinite rate means "no
   *  limit"). */
  std::unordered_map<accel::TenantId, double> limit_bytes_per_sec;
  /** Burst allowance as seconds of credit at the configured rate. */
  double burst_seconds = 0.0005;  // 500us of line-rate burst.
};

/** Per-tenant accounting. */
struct MbaTenantStats {
  std::uint64_t transfers = 0;     ///< Transfers accounted.
  std::uint64_t bytes = 0;         ///< Bytes accounted.
  sim::TimePs throttle_delay = 0;  ///< Total start-time delay imposed.
};

/** Token-bucket bandwidth allocator over the A-DMA / memory path. */
class TenantBandwidthLimiter {
 public:
  /** Creates a limiter enforcing `config`'s per-tenant rates. Throws
   *  std::invalid_argument unless MbaConfig::burst_seconds is finite and
   *  >= 0. */
  TenantBandwidthLimiter(sim::Simulator& sim, MbaConfig config);

  /**
   * Accounts a transfer of `bytes` for `tenant` and returns the earliest
   * time the transfer may start (>= now). Unthrottled tenants start
   * immediately.
   */
  sim::TimePs acquire(accel::TenantId tenant, std::uint64_t bytes);

  /** True when `tenant` has a configured finite, positive bandwidth
   *  limit. Other entries (NaN and infinite rates included) are inert
   *  (acquire() passes them through), so they do not count as
   *  throttled. */
  bool throttles(accel::TenantId tenant) const {
    const auto it = config_.limit_bytes_per_sec.find(tenant);
    return it != config_.limit_bytes_per_sec.end() && limits(it->second);
  }

  /** Accounting for `tenant`; a zeroed sentinel for tenants that never
   *  acquired. Read-only by construction: a stats query must not create a
   *  bucket, or observing stats between checkpoint() and restore() would
   *  diverge the checkpointed tenant map across a fork. */
  const MbaTenantStats& stats(accel::TenantId tenant) const {
    static const MbaTenantStats kNone{};
    const auto it = s_.tenants.find(tenant);
    return it == s_.tenants.end() ? kNone : it->second.stats;
  }

 private:
  /** True when `rate` (bytes/s) can refill a bucket: finite and > 0. */
  static bool limits(double rate) { return rate > 0 && std::isfinite(rate); }

  struct Bucket {
    double tokens = 0;          ///< Bytes of credit.
    sim::TimePs refilled = 0;   ///< Last refill timestamp.
    bool initialized = false;
    MbaTenantStats stats;
  };

 public:
  /** Every tenant's bucket, copied whole by checkpoint() (DESIGN.md §13).
   *  Only keyed lookups touch the map, so unordered iteration cannot leak
   *  into results. */
  struct State {
    std::unordered_map<accel::TenantId, Bucket> tenants;  ///< Buckets.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  sim::Simulator& sim_;
  MbaConfig config_;
  State s_;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_TENANT_MBA_H_
