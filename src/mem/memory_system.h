#ifndef ACCELFLOW_MEM_MEMORY_SYSTEM_H_
#define ACCELFLOW_MEM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <vector>

#include "sim/random.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "sim/time.h"

/**
 * @file
 * Timing model of the shared memory system: distributed LLC plus DDR main
 * memory behind 4 controllers x 4 channels (Table III).
 *
 * The model is probabilistic at the LLC (callers state the expected
 * residency of what they touch) and contention-accurate at the memory
 * controllers: bulk transfers serialize on per-controller channels.
 */

namespace accelflow::mem {

/** Memory-system parameters (defaults follow Table III). */
struct MemParams {
  double core_ghz = 2.4;            ///< Clock for cycle-denominated latencies.
  double llc_round_trip_cycles = 36;///< LLC slice round trip.
  double llc_bandwidth_gbps = 400;  ///< Aggregate LLC read bandwidth.
  double dram_latency_ns = 80;      ///< Row access latency after the LLC miss.
  int num_controllers = 4;
  double controller_bandwidth_gbps = 102.4;
  std::uint64_t dram_bytes = 128ull << 30;
};

/** Completion info for a memory access. */
struct MemAccess {
  sim::TimePs complete_at = 0;
  bool llc_hit = false;
};

/** Running counters. */
struct MemStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t bytes_from_dram = 0;
};

/**
 * The shared LLC + DRAM timing model.
 *
 * Accelerators read/write the LLC coherently (Sapphire-Rapids-style, paper
 * Section IV-A); on a miss the access falls through to a memory controller
 * channel with bandwidth contention.
 */
class MemorySystem {
 public:
  MemorySystem(sim::Simulator& sim, const MemParams& params,
               std::uint64_t seed = 0xA17C);

  /**
   * Models a coherent read of `bytes`.
   *
   * @param llc_hit_prob caller's estimate of LLC residency (e.g. ~0.9 for a
   *        just-produced RPC payload, ~0.3 for a cold overflow area).
   */
  MemAccess read(std::uint64_t bytes, double llc_hit_prob);

  /** Models a coherent write (invalidating private caches). */
  MemAccess write(std::uint64_t bytes, double llc_hit_prob);

  /** Latency of one dependent (pointer-chase) access, e.g. a PTW level. */
  sim::TimePs dependent_access_latency(double llc_hit_prob);

  const MemStats& stats() const { return s_.stats; }
  const MemParams& params() const { return params_; }

  /** Aggregate DRAM bandwidth utilization in [0,1]. */
  double dram_utilization() const;

  /** The system's own mutable state, copied whole by checkpoint()
   *  (DESIGN.md §13). */
  struct State {
    sim::Rng rng;    ///< Hit-draw stream.
    MemStats stats;  ///< Counters.
  };

  /** State plus the channels' checkpoints. */
  struct Checkpoint : State {
    std::vector<sim::Channel::Checkpoint> controllers;  ///< Per controller.
    sim::Channel::Checkpoint llc;                       ///< LLC channel.
  };

  Checkpoint checkpoint() const {
    Checkpoint c{s_, {}, llc_.checkpoint()};
    for (const auto& ch : controllers_) c.controllers.push_back(ch.checkpoint());
    return c;
  }

  void restore(const Checkpoint& c) {
    s_ = c;
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
      controllers_[i].restore(c.controllers[i]);
    }
    llc_.restore(c.llc);
  }

 private:
  MemAccess transfer(std::uint64_t bytes, double llc_hit_prob, bool is_read);

  sim::Simulator& sim_;
  MemParams params_;
  sim::Clock clock_;
  State s_;
  std::vector<sim::Channel> controllers_;
  sim::Channel llc_;
};

}  // namespace accelflow::mem

#endif  // ACCELFLOW_MEM_MEMORY_SYSTEM_H_
