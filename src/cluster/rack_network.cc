#include "cluster/rack_network.h"

#include <cassert>
#include <cmath>

namespace accelflow::cluster {

RackNetwork::RackNetwork(const RackParams& params, std::size_t shards)
    : params_(params), shards_(shards), s_{sim::Rng(params.seed), {}} {
  assert(params_.machines_per_rack > 0);
  assert(params_.intra_rack_hop_us > 0.0);
  assert(params_.inter_rack_hop_us >= params_.intra_rack_hop_us);
  assert(params_.line_gbps > 0.0);
  assert(params_.retransmit_factor >= 1.0);
  lookahead_ = static_cast<sim::TimePs>(
      sim::microseconds(params_.intra_rack_hop_us));
  assert(lookahead_ > 0);
}

sim::TimePs RackNetwork::hop_latency(std::size_t src, std::size_t dst,
                                     std::uint64_t bytes) {
  assert(src < shards_ && dst < shards_ && src != dst);
  const bool intra = same_rack(src, dst);
  const double base_us =
      intra ? params_.intra_rack_hop_us : params_.inter_rack_hop_us;
  // Serialization: bytes * 8 bits at line_gbps Gbit/s = ns per byte*8/G.
  const double wire_us =
      static_cast<double>(bytes) * 8.0 / (params_.line_gbps * 1000.0);
  double latency_us = base_us + wire_us;
  if (params_.link_fault_prob > 0.0 &&
      s_.rng.bernoulli(params_.link_fault_prob)) {
    latency_us *= params_.retransmit_factor;
    ++s_.stats.retransmits;
  }
  const auto latency =
      static_cast<sim::TimePs>(sim::microseconds(latency_us));
  assert(latency >= lookahead_ &&
         "hop latency below the conservative-lookahead window");
  ++s_.stats.messages;
  s_.stats.bytes += bytes;
  if (intra) {
    ++s_.stats.intra_rack;
  } else {
    ++s_.stats.inter_rack;
  }
  s_.stats.total_latency += latency;
  return latency;
}

}  // namespace accelflow::cluster
