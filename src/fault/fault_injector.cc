#include "fault/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace accelflow::fault {

namespace {

/** splitmix64-style mixer: derives one stream seed per (site, unit). */
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x;
}

std::uint64_t stream_key(FaultSite site, int unit) {
  return (static_cast<std::uint64_t>(site) << 32) |
         static_cast<std::uint32_t>(unit);
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {}

sim::Rng& FaultInjector::stream(FaultSite site, int unit) {
  assert(unit >= 0);
  std::vector<Stream>& row = s_.streams[static_cast<std::size_t>(site)];
  const auto u = static_cast<std::size_t>(unit);
  if (u >= row.size()) row.resize(u + 1);
  Stream& s = row[u];
  if (!s.touched) {
    s.rng.reseed(mix(plan_.seed, stream_key(site, unit)));
    s.touched = true;
  }
  return s.rng;
}

bool FaultInjector::window_active(FaultSite site, int unit,
                                  double* param) const {
  const sim::TimePs now = sim_.now();
  for (const FaultWindow& w : plan_.windows) {
    if (w.site != site) continue;
    if (w.unit != -1 && w.unit != unit) continue;
    if (now < w.begin || now >= w.end) continue;
    if (param != nullptr) *param = w.param;
    return true;
  }
  return false;
}

sim::TimePs FaultInjector::pe_stall(int unit) {
  assert(unit >= 0 && static_cast<std::size_t>(unit) < accel::kNumAccelTypes);
  const AccelFaultRates& r = plan_.accel[static_cast<std::size_t>(unit)];
  sim::TimePs t = 0;
  if (r.pe_stall_prob > 0 &&
      stream(FaultSite::kPeStall, unit).bernoulli(r.pe_stall_prob)) {
    t = sim::microseconds(r.pe_stall_us);
  }
  double us = 0.0;
  if (window_active(FaultSite::kPeStall, unit, &us)) {
    t = std::max(t, sim::microseconds(us));
  }
  if (t > 0) {
    ++s_.stats.pe_stalls;
    s_.stats.stall_time += t;
  }
  return t;
}

bool FaultInjector::pe_kill(int unit) {
  assert(unit >= 0 && static_cast<std::size_t>(unit) < accel::kNumAccelTypes);
  const AccelFaultRates& r = plan_.accel[static_cast<std::size_t>(unit)];
  bool kill = r.pe_kill_prob > 0 &&
              stream(FaultSite::kPeKill, unit).bernoulli(r.pe_kill_prob);
  kill = kill || window_active(FaultSite::kPeKill, unit, nullptr);
  if (kill) ++s_.stats.pe_kills;
  return kill;
}

bool FaultInjector::queue_reject(int unit) {
  assert(unit >= 0 && static_cast<std::size_t>(unit) < accel::kNumAccelTypes);
  const AccelFaultRates& r = plan_.accel[static_cast<std::size_t>(unit)];
  bool reject =
      r.queue_reject_prob > 0 &&
      stream(FaultSite::kQueueReject, unit).bernoulli(r.queue_reject_prob);
  reject = reject || window_active(FaultSite::kQueueReject, unit, nullptr);
  if (reject) ++s_.stats.queue_rejects;
  return reject;
}

bool FaultInjector::iommu_fault(int unit) {
  bool fault =
      plan_.iommu_fault_prob > 0 &&
      stream(FaultSite::kIommuFault, unit).bernoulli(plan_.iommu_fault_prob);
  fault = fault || window_active(FaultSite::kIommuFault, unit, nullptr);
  if (fault) ++s_.stats.iommu_faults;
  return fault;
}

sim::TimePs FaultInjector::dma_error_penalty(int unit) {
  sim::TimePs t = 0;
  if (plan_.dma_error_prob > 0 &&
      stream(FaultSite::kDmaError, unit).bernoulli(plan_.dma_error_prob)) {
    t = sim::microseconds(plan_.dma_error_penalty_us);
  }
  double us = 0.0;
  if (window_active(FaultSite::kDmaError, unit, &us)) {
    t = std::max(t, sim::microseconds(us));
  }
  if (t > 0) {
    ++s_.stats.dma_errors;
    s_.stats.dma_penalty += t;
  }
  return t;
}

double FaultInjector::link_degradation(int unit) {
  double factor = 1.0;
  if (plan_.link_degrade_prob > 0 &&
      stream(FaultSite::kLinkDegrade, unit)
          .bernoulli(plan_.link_degrade_prob)) {
    factor = plan_.link_degrade_factor;
  }
  double wf = 1.0;
  if (window_active(FaultSite::kLinkDegrade, unit, &wf)) {
    factor = std::max(factor, wf);
  }
  if (factor > 1.0) ++s_.stats.degraded_transfers;
  return factor;
}

void FaultInjector::snapshot_metrics(obs::MetricsRegistry& reg) const {
  reg.set("fault.pe_stalls", static_cast<double>(s_.stats.pe_stalls));
  reg.set("fault.pe_kills", static_cast<double>(s_.stats.pe_kills));
  reg.set("fault.queue_rejects", static_cast<double>(s_.stats.queue_rejects));
  reg.set("fault.iommu_faults", static_cast<double>(s_.stats.iommu_faults));
  reg.set("fault.dma_errors", static_cast<double>(s_.stats.dma_errors));
  reg.set("fault.degraded_transfers",
          static_cast<double>(s_.stats.degraded_transfers));
  reg.set("fault.stall_time_ps", static_cast<double>(s_.stats.stall_time));
  reg.set("fault.dma_penalty_ps", static_cast<double>(s_.stats.dma_penalty));
}

}  // namespace accelflow::fault
