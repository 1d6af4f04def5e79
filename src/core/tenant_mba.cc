#include "core/tenant_mba.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace accelflow::core {

TenantBandwidthLimiter::TenantBandwidthLimiter(sim::Simulator& sim,
                                               MbaConfig config)
    : sim_(sim), config_(std::move(config)) {
  // A NaN burst reaches the picosecond cast in acquire() as a NaN wait;
  // an infinite or negative one is no credit allowance at all.
  if (!std::isfinite(config_.burst_seconds) || config_.burst_seconds < 0) {
    throw std::invalid_argument(
        "MbaConfig::burst_seconds must be finite and >= 0");
  }
}

sim::TimePs TenantBandwidthLimiter::acquire(accel::TenantId tenant,
                                            std::uint64_t bytes) {
  const auto limit_it = config_.limit_bytes_per_sec.find(tenant);
  const sim::TimePs now = sim_.now();
  if (limit_it == config_.limit_bytes_per_sec.end()) return now;

  const double rate = limit_it->second;  // Bytes per second.
  // A rate that is not finite and > 0 (NaN included) cannot refill a
  // bucket: treat it as "no limit", as throttles() does, instead of
  // dividing by it below (or forming inf * 0 tokens) and casting an
  // inf/NaN wait into picoseconds.
  if (!limits(rate)) return now;
  Bucket& b = s_.tenants[tenant];
  if (!b.initialized) {
    b.tokens = rate * config_.burst_seconds;
    b.refilled = now;
    b.initialized = true;
  }
  // Refill since the last acquire, clamped at the burst allowance — the
  // single clamp site for the bucket. The fill test compares *times*
  // instead of forming `elapsed_s * rate`: across a multi-hour idle gap
  // at a multi-GB/s rate that product leaves double's exact-integer range
  // (2^53 bytes), so adding it and clamping after would round the bucket
  // instead of pinning it exactly at the allowance.
  const double burst = rate * config_.burst_seconds;
  const double elapsed_s = sim::to_seconds(now - b.refilled);
  if (b.tokens < burst) {
    const double fill_s = (burst - b.tokens) / rate;  // Time to top off.
    b.tokens = elapsed_s >= fill_s ? burst : b.tokens + elapsed_s * rate;
  }
  b.refilled = now;

  ++b.stats.transfers;
  b.stats.bytes += bytes;

  b.tokens -= static_cast<double>(bytes);
  if (b.tokens >= 0) return now;
  // Deficit: the transfer starts once the bucket would be whole again.
  const double wait_s = -b.tokens / rate;
  const auto wait = static_cast<sim::TimePs>(wait_s * 1e12);
  b.stats.throttle_delay += wait;
  return now + wait;
}

}  // namespace accelflow::core
