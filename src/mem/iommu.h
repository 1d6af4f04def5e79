#ifndef ACCELFLOW_MEM_IOMMU_H_
#define ACCELFLOW_MEM_IOMMU_H_

#include <cstdint>
#include <functional>

#include "mem/address.h"
#include "mem/memory_system.h"
#include "mem/tlb.h"
#include "sim/fault_hooks.h"
#include "sim/server.h"
#include "sim/simulator.h"

/**
 * @file
 * IOMMU + radix page-table walker servicing PCIe ATS requests from the
 * accelerators' translation caches (paper Sections IV-A and V.3).
 */

namespace accelflow::mem {

/** Page-walk parameters. */
struct WalkParams {
  int levels = 4;                ///< Radix levels (x86-64 style).
  double ptw_llc_hit_prob = 0.85;///< Page-table entries are warm in the LLC.
  double page_fault_prob = 0.0;  ///< Injected minor-fault probability.
};

/** IOMMU statistics. */
struct IommuStats {
  std::uint64_t translations = 0;
  std::uint64_t walks = 0;
  std::uint64_t faults = 0;
};

/**
 * The IOMMU shared by the accelerators of a chiplet.
 *
 * ATS requests serialize on the walker (a small number of concurrent walk
 * state machines); each walk is `levels` dependent memory accesses. On a
 * page fault the accelerator stops and the CPU is interrupted — the caller
 * receives `faulted = true` and models the OS round trip.
 */
class Iommu {
 public:
  struct Result {
    sim::TimePs complete_at = 0;
    bool faulted = false;
  };

  /**
   * @param concurrent_walkers number of parallel walk state machines.
   */
  Iommu(sim::Simulator& sim, MemorySystem& mem, const WalkParams& params,
        std::size_t concurrent_walkers = 4, std::uint64_t seed = 0x10AA);

  /**
   * Translates one page. The returned time includes queueing on the walker.
   */
  Result translate(std::uint32_t process_id, PageNum vpn);

  /** Translation/walk/fault counters. */
  const IommuStats& stats() const { return s_.stats; }
  /** The configured walk parameters. */
  const WalkParams& params() const { return params_; }

  /**
   * Attaches (nullptr: detaches) the fault-injection sink: a translation
   * it flags takes the fault-service path exactly like an organic minor
   * fault (DESIGN.md §14). The sink's draws are separate from this
   * component's own page_fault_prob stream, so attaching it never shifts
   * the organic fault sequence.
   */
  void set_fault_hooks(sim::FaultHooks* hooks) { fault_hooks_ = hooks; }

  /** The IOMMU's own mutable state, copied whole by checkpoint()
   *  (DESIGN.md §13). */
  struct State {
    sim::Rng rng;       ///< Fault/LLC draw stream.
    IommuStats stats;   ///< Counters.
  };

  /** State plus the walkers' checkpoint. */
  struct Checkpoint : State {
    sim::FifoServer::Checkpoint walkers;  ///< Walk state machines.
  };

  Checkpoint checkpoint() const { return {s_, walkers_.checkpoint()}; }

  void restore(const Checkpoint& c) {
    s_ = c;
    walkers_.restore(c.walkers);
  }

 private:
  MemorySystem& mem_;
  WalkParams params_;
  sim::FifoServer walkers_;
  State s_;
  sim::FaultHooks* fault_hooks_ = nullptr;  ///< Null: fault-free run.
};

}  // namespace accelflow::mem

#endif  // ACCELFLOW_MEM_IOMMU_H_
