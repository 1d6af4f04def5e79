#include "noc/interconnect.h"

#include <algorithm>
#include <cassert>

namespace accelflow::noc {

namespace {
/** Index of the unordered pair (a, b), a != b, in a triangular layout. */
std::size_t pair_index(int a, int b, int n) {
  // The diagonal has no link: pair_index(a, a, n) would silently alias a
  // neighboring pair's channel (and a == n - 1 would index out of range).
  assert(a != b && "no inter-chiplet link from a chiplet to itself");
  assert(a >= 0 && b >= 0 && a < n && b < n && "chiplet index out of range");
  if (a > b) std::swap(a, b);
  // Row-major upper triangle without diagonal.
  return static_cast<std::size_t>(a * n + b - (a + 1) * (a + 2) / 2);
}
}  // namespace

Interconnect::Interconnect(sim::Simulator& sim,
                           const InterconnectParams& params)
    : sim_(sim), params_(params) {
  assert(!params_.chiplet_meshes.empty());
  for (const auto& mp : params_.chiplet_meshes) {
    meshes_.push_back(std::make_unique<Mesh>(sim_, mp));
  }
  const int n = num_chiplets();
  const sim::Clock clock(params_.clock_ghz);
  const sim::TimePs lat = clock.cycles_to_ps(params_.inter_chiplet_cycles);
  const std::size_t num_links = static_cast<std::size_t>(n) * (n - 1) / 2;
  links_.reserve(num_links);
  for (std::size_t i = 0; i < num_links; ++i) {
    links_.emplace_back(sim_, params_.inter_chiplet_gbps * 1e9, lat);
  }
}

sim::Channel& Interconnect::link(int a, int b) {
  assert(a != b && "intra-chiplet traffic rides the mesh, not a link");
  return links_[pair_index(a, b, num_chiplets())];
}

const sim::Channel& Interconnect::link(int a, int b) const {
  assert(a != b && "intra-chiplet traffic rides the mesh, not a link");
  return links_[pair_index(a, b, num_chiplets())];
}

sim::TimePs Interconnect::transfer(Location src, Location dst,
                                   std::uint64_t bytes,
                                   sim::TimePs ready_at, obs::FlowId flow) {
  const sim::TimePs start = std::max(ready_at, sim_.now());
  if (src.chiplet == dst.chiplet) {
    ++s_.stats.intra_transfers;
    const auto hops =
        static_cast<std::uint64_t>(mesh(src.chiplet).hops(src.coord, dst.coord));
    s_.stats.hops += hops;
    sim::TimePs done =
        mesh(src.chiplet).transfer(src.coord, dst.coord, bytes, ready_at);
    done = apply_degradation(src.chiplet, start, done);
    if (tracer_ != nullptr) {
      tracer_->complete(obs::Subsys::kNoc, obs::SpanKind::kNocTransfer,
                        static_cast<std::uint32_t>(src.chiplet), start, done,
                        hops, flow);
    }
    return done;
  }
  ++s_.stats.inter_transfers;
  s_.stats.inter_bytes += bytes;
  // Source mesh to the chiplet edge router at (0, 0), then across the
  // package link, then edge router to destination on the target mesh.
  const Coord edge{0, 0};
  const sim::TimePs at_edge =
      mesh(src.chiplet).transfer(src.coord, edge, bytes, ready_at);
  const sim::TimePs crossed =
      link(src.chiplet, dst.chiplet).transfer(bytes, at_edge);
  sim::TimePs done =
      mesh(dst.chiplet).transfer(edge, dst.coord, bytes, crossed);
  done = apply_degradation(src.chiplet, start, done);
  const std::uint64_t hops =
      static_cast<std::uint64_t>(mesh(src.chiplet).hops(src.coord, edge) +
                                 mesh(dst.chiplet).hops(edge, dst.coord));
  s_.stats.hops += hops;
  if (tracer_ != nullptr) {
    tracer_->complete(obs::Subsys::kNoc, obs::SpanKind::kNocTransfer,
                      static_cast<std::uint32_t>(src.chiplet), start, done,
                      hops, flow);
    tracer_->complete(obs::Subsys::kNoc, obs::SpanKind::kNocLink,
                      kLinkTid, at_edge, crossed, bytes, flow);
  }
  return done;
}

sim::TimePs Interconnect::apply_degradation(int chiplet, sim::TimePs start,
                                            sim::TimePs done) {
  if (fault_hooks_ == nullptr) return done;
  const double factor = fault_hooks_->link_degradation(chiplet);
  if (factor <= 1.0) return done;
  // The message is stretched in flight (CRC retries); router/link
  // occupancy bookkeeping is untouched — only this message is delayed.
  ++s_.stats.degraded_transfers;
  return start + static_cast<sim::TimePs>(
                     static_cast<double>(done - start) * factor + 0.5);
}

sim::TimePs Interconnect::zero_load_latency(Location src, Location dst,
                                            std::uint64_t bytes) const {
  if (src.chiplet == dst.chiplet) {
    return meshes_[static_cast<std::size_t>(src.chiplet)]->zero_load_latency(
        src.coord, dst.coord, bytes);
  }
  const Coord edge{0, 0};
  const auto& l = link(src.chiplet, dst.chiplet);
  return meshes_[static_cast<std::size_t>(src.chiplet)]->zero_load_latency(
             src.coord, edge, bytes) +
         l.fixed_latency() + l.serialization_time(bytes) +
         meshes_[static_cast<std::size_t>(dst.chiplet)]->zero_load_latency(
             edge, dst.coord, bytes);
}

}  // namespace accelflow::noc
