#include "mem/iommu.h"

namespace accelflow::mem {

Iommu::Iommu(sim::Simulator& sim, MemorySystem& mem, const WalkParams& params,
             std::size_t concurrent_walkers, std::uint64_t seed)
    : mem_(mem),
      params_(params),
      walkers_(sim, concurrent_walkers),
      s_{sim::Rng(seed), {}} {}

Iommu::Result Iommu::translate(std::uint32_t /*process_id*/, PageNum /*vpn*/) {
  ++s_.stats.translations;
  ++s_.stats.walks;
  // A radix walk is `levels` dependent accesses; sample them up front and
  // occupy one walker for the whole duration.
  sim::TimePs walk = 0;
  for (int i = 0; i < params_.levels; ++i) {
    walk += mem_.dependent_access_latency(params_.ptw_llc_hit_prob);
  }
  Result out;
  out.faulted = s_.rng.bernoulli(params_.page_fault_prob);
  // Injected translation fault: same service path as an organic one.
  if (fault_hooks_ != nullptr && fault_hooks_->iommu_fault(0)) {
    out.faulted = true;
  }
  if (out.faulted) ++s_.stats.faults;
  out.complete_at = walkers_.submit(walk);
  return out;
}

}  // namespace accelflow::mem
