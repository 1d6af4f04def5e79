#ifndef ACCELFLOW_ACCEL_DMA_H_
#define ACCELFLOW_ACCEL_DMA_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "noc/interconnect.h"
#include "obs/tracer.h"
#include "sim/fault_hooks.h"
#include "sim/simulator.h"
#include "sim/time.h"

/**
 * @file
 * The A-DMA engines (Figure 6): a shared pool of on-package DMA engines
 * that move queue entries and payloads between accelerators, cores and
 * memory. Table III: 10 engines, 10ns latency, 100 GB/s for 1KB messages.
 */

namespace accelflow::accel {

/** A-DMA pool parameters. */
struct DmaParams {
  int num_engines = 10;
  double latency_ns = 10.0;
  double bandwidth_gbps = 100.0;
};

/** A-DMA statistics. */
struct DmaStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  sim::TimePs engine_wait = 0;  ///< Time spent waiting for a free engine.
  sim::TimePs busy_time = 0;
  std::uint64_t injected_errors = 0;  ///< Transfers hit by a fault window.
};

/**
 * Pool of identical A-DMA engines.
 *
 * A transfer occupies the earliest-free engine (the lowest index on a tie)
 * for its programming latency plus serialization time, and moves the data
 * across the package interconnect (which adds its own latency and link
 * contention).
 */
class DmaPool {
 public:
  DmaPool(sim::Simulator& sim, noc::Interconnect& net, const DmaParams& p);

  /**
   * Moves `bytes` from `src` to `dst` for chain `flow`.
   *
   * @param ready_at earliest time the source data is available.
   * @param flow the chain whose spans (DMA, NoC, link) this transfer
   *        records; 0 for a transfer that serves no chain.
   * @return completion time at the destination.
   */
  sim::TimePs transfer(noc::Location src, noc::Location dst,
                       std::uint64_t bytes, sim::TimePs ready_at,
                       obs::FlowId flow);

  /** Engine-pool utilization over [0, now]. */
  double utilization() const;

  /** Transfer counters. */
  const DmaStats& stats() const { return s_.stats; }
  /** Number of engines in the pool. */
  int num_engines() const { return static_cast<int>(s_.engine_free_at.size()); }

  /**
   * Re-sizes the engine pool (A-DMA sensitivity sweeps and the
   * auto-tuner's DMA knob). All engines come up free; call only at a
   * quiescent fork point (no transfer in flight), like the other
   * divergence knobs. A restore() undoes it — engine count is implied by
   * the captured per-engine occupancy vector.
   */
  void set_num_engines(int n) {
    assert(n > 0);
    s_.engine_free_at.assign(static_cast<std::size_t>(n), 0);
    params_.num_engines = n;
  }

  /**
   * Attaches the span tracer: each transfer emits an
   * obs::SpanKind::kDmaTransfer span on the occupied engine's track
   * (engine index = tid), attributed to the transfer's flow. Pass
   * nullptr to detach. Recording never perturbs engine selection or
   * timing (see obs/tracer.h).
   */
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /**
   * Attaches (nullptr: detaches) the fault-injection sink. Each transfer
   * consults it for a retry penalty — modelling a corrupted descriptor
   * re-fetched and replayed — keyed by the occupied engine's index
   * (DESIGN.md §14). Perturbs simulated time, unlike the tracer.
   */
  void set_fault_hooks(sim::FaultHooks* hooks) { fault_hooks_ = hooks; }

  /** Engine occupancy and counters, copied whole by checkpoint()
   *  (DESIGN.md §13). */
  struct State {
    /** Per-engine next-free time; transfer() takes the first minimum. */
    std::vector<sim::TimePs> engine_free_at;
    DmaStats stats;  ///< Counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  sim::Simulator& sim_;
  noc::Interconnect& net_;
  DmaParams params_;
  sim::TimePs latency_;
  double bytes_per_ps_;
  State s_;
  obs::Tracer* tracer_ = nullptr;
  sim::FaultHooks* fault_hooks_ = nullptr;  ///< Null: fault-free run.
};

}  // namespace accelflow::accel

#endif  // ACCELFLOW_ACCEL_DMA_H_
