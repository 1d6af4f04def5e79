#include "noc/mesh.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace accelflow::noc {

Mesh::Mesh(sim::Simulator& sim, const MeshParams& params)
    : sim_(sim),
      params_(params),
      clock_(params.clock_ghz),
      hop_latency_(clock_.cycles_to_ps(params.hop_cycles)),
      link_bytes_per_ps_(params.link_bytes_per_cycle * params.clock_ghz /
                         1000.0) {
  s_.link_free_at.assign(
      static_cast<std::size_t>(params_.width) * params_.height * 4, 0);
}

std::size_t Mesh::link_index(Coord from, Direction d) const {
  return (static_cast<std::size_t>(from.y) * params_.width + from.x) * 4 + d;
}

void Mesh::route(Coord src, Coord dst, std::vector<std::size_t>& out) const {
  // XY routing: first along X, then along Y.
  Coord cur = src;
  while (cur.x != dst.x) {
    const Direction d = dst.x > cur.x ? kEast : kWest;
    out.push_back(link_index(cur, d));
    cur.x += dst.x > cur.x ? 1 : -1;
  }
  while (cur.y != dst.y) {
    const Direction d = dst.y > cur.y ? kNorth : kSouth;
    out.push_back(link_index(cur, d));
    cur.y += dst.y > cur.y ? 1 : -1;
  }
}

int Mesh::hops(Coord src, Coord dst) const {
  return std::abs(src.x - dst.x) + std::abs(src.y - dst.y);
}

sim::TimePs Mesh::zero_load_latency(Coord src, Coord dst,
                                    std::uint64_t bytes) const {
  const int h = hops(src, dst);
  const auto ser =
      static_cast<sim::TimePs>(static_cast<double>(bytes) / link_bytes_per_ps_ + 0.5);
  return static_cast<sim::TimePs>(h) * hop_latency_ + ser;
}

sim::TimePs Mesh::transfer(Coord src, Coord dst, std::uint64_t bytes,
                           sim::TimePs ready_at) {
  assert(contains(src) && contains(dst));
  ++s_.stats.transfers;
  s_.stats.bytes += bytes;
  const sim::TimePs ready = std::max(sim_.now(), ready_at);
  const int h = hops(src, dst);
  if (h == 0) return ready;  // Same node: local queue move, free.

  route_scratch_.clear();
  route(src, dst, route_scratch_);

  // The message can start once every link on the path is free (wormhole
  // approximation: the worm occupies the whole path while serializing).
  sim::TimePs start = ready;
  for (const std::size_t li : route_scratch_) {
    start = std::max(start, s_.link_free_at[li]);
  }
  s_.stats.contention_time += start - ready;

  const auto ser =
      static_cast<sim::TimePs>(static_cast<double>(bytes) / link_bytes_per_ps_ + 0.5);
  for (const std::size_t li : route_scratch_) {
    s_.link_free_at[li] = start + ser;
  }
  return start + static_cast<sim::TimePs>(h) * hop_latency_ + ser;
}

}  // namespace accelflow::noc
