#include "fault/fault_injector.h"

#include <algorithm>
#include <cassert>

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
  std::vector<Stream>& row = streams_[static_cast<std::size_t>(site)];
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
    ++stats_.pe_stalls;
    stats_.stall_time += t;
  }
  return t;
}

bool FaultInjector::pe_kill(int unit) {
  assert(unit >= 0 && static_cast<std::size_t>(unit) < accel::kNumAccelTypes);
  const AccelFaultRates& r = plan_.accel[static_cast<std::size_t>(unit)];
  bool kill = r.pe_kill_prob > 0 &&
              stream(FaultSite::kPeKill, unit).bernoulli(r.pe_kill_prob);
  kill = kill || window_active(FaultSite::kPeKill, unit, nullptr);
  if (kill) ++stats_.pe_kills;
  return kill;
}

bool FaultInjector::queue_reject(int unit) {
  assert(unit >= 0 && static_cast<std::size_t>(unit) < accel::kNumAccelTypes);
  const AccelFaultRates& r = plan_.accel[static_cast<std::size_t>(unit)];
  bool reject =
      r.queue_reject_prob > 0 &&
      stream(FaultSite::kQueueReject, unit).bernoulli(r.queue_reject_prob);
  reject = reject || window_active(FaultSite::kQueueReject, unit, nullptr);
  if (reject) ++stats_.queue_rejects;
  return reject;
}

bool FaultInjector::iommu_fault(int unit) {
  bool fault =
      plan_.iommu_fault_prob > 0 &&
      stream(FaultSite::kIommuFault, unit).bernoulli(plan_.iommu_fault_prob);
  fault = fault || window_active(FaultSite::kIommuFault, unit, nullptr);
  if (fault) ++stats_.iommu_faults;
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
    ++stats_.dma_errors;
    stats_.dma_penalty += t;
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
  if (factor > 1.0) ++stats_.degraded_transfers;
  return factor;
}

void FaultInjector::snapshot_metrics(obs::MetricsRegistry& reg) const {
  reg.set("fault.pe_stalls", static_cast<double>(stats_.pe_stalls));
  reg.set("fault.pe_kills", static_cast<double>(stats_.pe_kills));
  reg.set("fault.queue_rejects", static_cast<double>(stats_.queue_rejects));
  reg.set("fault.iommu_faults", static_cast<double>(stats_.iommu_faults));
  reg.set("fault.dma_errors", static_cast<double>(stats_.dma_errors));
  reg.set("fault.degraded_transfers",
          static_cast<double>(stats_.degraded_transfers));
  reg.set("fault.stall_time_ps", static_cast<double>(stats_.stall_time));
  reg.set("fault.dma_penalty_ps", static_cast<double>(stats_.dma_penalty));
}

FaultInjector::Checkpoint FaultInjector::checkpoint() const {
  Checkpoint c;
  // Site-major, unit-minor: ascending stream keys, so the checkpoint
  // itself is comparable across runs.
  for (std::size_t site = 0; site < kNumFaultSites; ++site) {
    for (std::size_t u = 0; u < streams_[site].size(); ++u) {
      const Stream& s = streams_[site][u];
      if (!s.touched) continue;
      c.streams.emplace_back(
          stream_key(static_cast<FaultSite>(site), static_cast<int>(u)),
          s.rng.state());
    }
  }
  c.stats = stats_;
  return c;
}

void FaultInjector::restore(const Checkpoint& c) {
  // Streams first touched after the checkpoint fall back to untouched:
  // their next draw re-seeds them exactly as the first one did.
  for (std::vector<Stream>& row : streams_) {
    for (Stream& s : row) s.touched = false;
  }
  for (const auto& [key, state] : c.streams) {
    std::vector<Stream>& row = streams_[key >> 32];
    const auto u = static_cast<std::size_t>(key & 0xFFFFFFFFu);
    if (u >= row.size()) row.resize(u + 1);
    row[u].rng.set_state(state);
    row[u].touched = true;
  }
  stats_ = c.stats;
}

}  // namespace accelflow::fault
