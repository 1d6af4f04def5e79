#include "accel/dma.h"

#include <algorithm>

namespace accelflow::accel {

DmaPool::DmaPool(sim::Simulator& sim, noc::Interconnect& net,
                 const DmaParams& p)
    : sim_(sim),
      net_(net),
      params_(p),
      latency_(sim::nanoseconds(p.latency_ns)),
      bytes_per_ps_(p.bandwidth_gbps * 1e9 / 1e12),
      s_{std::vector<sim::TimePs>(static_cast<std::size_t>(p.num_engines), 0),
         {}} {}

sim::TimePs DmaPool::transfer(noc::Location src, noc::Location dst,
                              std::uint64_t bytes, sim::TimePs ready_at,
                              obs::FlowId flow) {
  ++s_.stats.transfers;
  s_.stats.bytes += bytes;

  // The earliest-free engine; ties go to the lowest index.
  const auto engine = static_cast<std::uint32_t>(
      std::min_element(s_.engine_free_at.begin(), s_.engine_free_at.end()) -
      s_.engine_free_at.begin());
  const sim::TimePs ready = std::max(sim_.now(), ready_at);
  const sim::TimePs start = std::max(ready, s_.engine_free_at[engine]);
  s_.stats.engine_wait += start - ready;

  const auto ser = static_cast<sim::TimePs>(
      static_cast<double>(bytes) / bytes_per_ps_ + 0.5);
  sim::TimePs occupied = latency_ + ser;
  if (fault_hooks_ != nullptr) {
    // Injected transfer error: the engine detects the corruption and
    // replays the descriptor, occupying itself for the penalty too.
    const sim::TimePs penalty =
        fault_hooks_->dma_error_penalty(static_cast<int>(engine));
    if (penalty > 0) {
      ++s_.stats.injected_errors;
      occupied += penalty;
    }
  }
  const sim::TimePs engine_done = start + occupied;
  s_.engine_free_at[engine] = engine_done;
  s_.stats.busy_time += occupied;
  if (tracer_ != nullptr) {
    tracer_->complete(obs::Subsys::kDma, obs::SpanKind::kDmaTransfer, engine,
                      start, engine_done, bytes, flow);
  }

  // The engine streams the data through the package network; the network
  // transfer starts as soon as the engine starts pushing.
  const sim::TimePs net_done = net_.transfer(src, dst, bytes, start, flow);
  return std::max(engine_done, net_done);
}

double DmaPool::utilization() const {
  const sim::TimePs elapsed = sim_.now();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(s_.stats.busy_time) /
         (static_cast<double>(elapsed) *
          static_cast<double>(s_.engine_free_at.size()));
}

}  // namespace accelflow::accel
