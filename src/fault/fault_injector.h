#ifndef ACCELFLOW_FAULT_FAULT_INJECTOR_H_
#define ACCELFLOW_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sim/fault_hooks.h"
#include "sim/random.h"
#include "sim/simulator.h"

/**
 * @file
 * The deterministic fault injector (DESIGN.md §14): evaluates a FaultPlan
 * at every sim::FaultHooks consultation point. Each (site, unit) pair owns
 * an independent sim::Rng stream seeded from the plan seed, so injecting
 * faults into one component never shifts another component's draws, and
 * the same plan + seed reproduces the same fault sequence bit-for-bit on
 * any thread count. The injector perturbs simulated time, so it is part
 * of the deterministic state and checkpoints/restores with the run
 * (workload::SweepSession captures it in its fork).
 */

namespace accelflow::fault {

/** Counters of every fault actually injected. */
struct FaultStats {
  std::uint64_t pe_stalls = 0;           ///< kPeStall firings.
  std::uint64_t pe_kills = 0;            ///< kPeKill firings.
  std::uint64_t queue_rejects = 0;       ///< kQueueReject firings.
  std::uint64_t iommu_faults = 0;        ///< kIommuFault firings.
  std::uint64_t dma_errors = 0;          ///< kDmaError firings.
  std::uint64_t degraded_transfers = 0;  ///< kLinkDegrade firings.
  sim::TimePs stall_time = 0;    ///< Total injected PE stall latency.
  sim::TimePs dma_penalty = 0;   ///< Total injected DMA retry latency.

  /** Sum of all six firing counters. */
  std::uint64_t total() const {
    return pe_stalls + pe_kills + queue_rejects + iommu_faults + dma_errors +
           degraded_transfers;
  }
};

/** Evaluates a FaultPlan at the hardware's FaultHooks consultation points. */
class FaultInjector final : public sim::FaultHooks {
 public:
  /** The simulator provides the clock for scheduled fault windows. */
  FaultInjector(sim::Simulator& sim, FaultPlan plan);

  /** The plan this injector evaluates. */
  const FaultPlan& plan() const { return plan_; }
  /** Counters of every fault injected so far. */
  const FaultStats& stats() const { return s_.stats; }

  /** Zeroes the injection counters (end of warmup). */
  void reset_stats() { s_.stats = FaultStats{}; }

  /** Exports injection counters under "fault.*" dotted names. */
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

  // --- sim::FaultHooks ---------------------------------------------------
  sim::TimePs pe_stall(int unit) override;
  bool pe_kill(int unit) override;
  bool queue_reject(int unit) override;
  bool iommu_fault(int unit) override;
  sim::TimePs dma_error_penalty(int unit) override;
  double link_degradation(int unit) override;

  // --- Checkpoint / fork (DESIGN.md §13) ---------------------------------

  /** One (site, unit) stream slot. Untouched slots are seeded on first
   *  use, so a slot reset to untouched re-seeds identically. */
  struct Stream {
    sim::Rng rng;          ///< The stream (valid once touched).
    bool touched = false;  ///< Seeded and drawn from since the last reset.
  };

  /**
   * The injector's deterministic state, copied whole by checkpoint(): the
   * stream table plus the counters. A stream first touched *after* a
   * checkpoint is untouched (or absent) in it, so after restore() its
   * next draw re-seeds it exactly as the first one did and forked
   * timelines stay bit-exact.
   */
  struct State {
    FaultStats stats;  ///< Injection counters.
    /** Dense stream table: one row per FaultSite, indexed by unit and
     *  grown on first touch. Units are small: accelerator, DMA-engine
     *  and chiplet indices. */
    std::array<std::vector<Stream>, kNumFaultSites> streams;
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  /** The lazily seeded random stream of one (site, unit) pair. */
  sim::Rng& stream(FaultSite site, int unit);

  /** True if a scheduled window for (site, unit) covers the current time;
   *  `param` receives the window magnitude. */
  bool window_active(FaultSite site, int unit, double* param) const;

  sim::Simulator& sim_;
  FaultPlan plan_;
  State s_;
};

}  // namespace accelflow::fault

#endif  // ACCELFLOW_FAULT_FAULT_INJECTOR_H_
