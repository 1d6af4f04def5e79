#include "mem/memory_system.h"

#include <algorithm>

namespace accelflow::mem {

MemorySystem::MemorySystem(sim::Simulator& sim, const MemParams& params,
                           std::uint64_t seed)
    : sim_(sim),
      params_(params),
      clock_(params.core_ghz),
      s_{sim::Rng(seed), {}},
      llc_(sim, params.llc_bandwidth_gbps * 1e9,
           clock_.cycles_to_ps(params.llc_round_trip_cycles)) {
  controllers_.reserve(static_cast<std::size_t>(params.num_controllers));
  for (int i = 0; i < params.num_controllers; ++i) {
    controllers_.emplace_back(sim, params.controller_bandwidth_gbps * 1e9,
                              sim::nanoseconds(params.dram_latency_ns));
  }
}

MemAccess MemorySystem::transfer(std::uint64_t bytes, double llc_hit_prob,
                                 bool is_read) {
  MemAccess out;
  out.llc_hit = s_.rng.bernoulli(llc_hit_prob);
  if (is_read) {
    ++s_.stats.reads;
  } else {
    ++s_.stats.writes;
  }
  if (out.llc_hit) {
    ++s_.stats.llc_hits;
    out.complete_at = llc_.transfer(bytes);
    return out;
  }
  ++s_.stats.llc_misses;
  s_.stats.bytes_from_dram += bytes;
  // LLC lookup happens first, then the miss goes to the least-busy
  // controller (approximating address interleaving under load).
  const sim::TimePs llc_lookup =
      clock_.cycles_to_ps(params_.llc_round_trip_cycles);
  auto it = std::min_element(
      controllers_.begin(), controllers_.end(),
      [](const sim::Channel& a, const sim::Channel& b) {
        return a.busy_until() < b.busy_until();
      });
  out.complete_at = llc_lookup + it->transfer(bytes);
  return out;
}

MemAccess MemorySystem::read(std::uint64_t bytes, double llc_hit_prob) {
  return transfer(bytes, llc_hit_prob, /*is_read=*/true);
}

MemAccess MemorySystem::write(std::uint64_t bytes, double llc_hit_prob) {
  return transfer(bytes, llc_hit_prob, /*is_read=*/false);
}

sim::TimePs MemorySystem::dependent_access_latency(double llc_hit_prob) {
  const sim::TimePs llc_lat =
      clock_.cycles_to_ps(params_.llc_round_trip_cycles);
  if (s_.rng.bernoulli(llc_hit_prob)) {
    ++s_.stats.llc_hits;
    return llc_lat;
  }
  ++s_.stats.llc_misses;
  return llc_lat + sim::nanoseconds(params_.dram_latency_ns);
}

double MemorySystem::dram_utilization() const {
  double total = 0.0;
  for (const auto& c : controllers_) total += c.utilization();
  return controllers_.empty() ? 0.0 : total / static_cast<double>(controllers_.size());
}

}  // namespace accelflow::mem
