#ifndef ACCELFLOW_CLUSTER_RACK_NETWORK_H_
#define ACCELFLOW_CLUSTER_RACK_NETWORK_H_

#include <cstdint>
#include <vector>

#include "sim/random.h"
#include "sim/time.h"

/**
 * @file
 * The rack/network hop model between machine shards (DESIGN.md §17).
 *
 * Shards are placed into racks round-robin-contiguously
 * (machines_per_rack per rack); a cross-shard RPC pays a base hop latency
 * (intra- or inter-rack) plus wire serialization at the configured line
 * rate, following RPCAcc's cross-host RPC decomposition (PAPERS.md):
 * propagation + switching dominates small RPCs, serialization dominates
 * bulk. Link faults model tail-inflating retransmits: with the configured
 * probability a message pays a multiplied latency (the TCP RTO/ECN
 * recovery shape), drawn from the model's own seeded stream.
 *
 * The *minimum* possible hop latency is the conservative-lookahead window
 * of the parallel cluster simulation (cluster::Datacenter): any message
 * sent in window k arrives no earlier than window k+1's start, so
 * delivering merged messages at the barrier between windows is always
 * causally safe. hop_latency() is therefore required (and asserted) to
 * never return less than lookahead().
 *
 * Latency draws happen at the window barrier on the coordinator thread
 * (messages are processed in deterministic shard/push order), so one RNG
 * stream and one Stats block suffice without races.
 */

namespace accelflow::cluster {

/** Rack/network topology and cost parameters. */
struct RackParams {
  /** Shards per rack: shard s sits in rack s / machines_per_rack. */
  int machines_per_rack = 4;
  /** Base one-way hop inside a rack (ToR switch only). */
  double intra_rack_hop_us = 6.0;
  /** Base one-way hop across racks (ToR + aggregation + ToR). */
  double inter_rack_hop_us = 18.0;
  /** Line rate for wire serialization, Gbit/s. */
  double line_gbps = 40.0;
  /** Modeled wire size of an RPC request (the response carries the
   *  callee's sampled payload). */
  std::uint64_t request_bytes = 1024;
  /** Per-message retransmit probability (link fault injection). */
  double link_fault_prob = 0.0;
  /** Latency multiplier a retransmitted message pays. */
  double retransmit_factor = 3.0;
  /** Seed of the link-fault stream. */
  std::uint64_t seed = 0x5ACC2026;
};

/** Latency model + fault stream for cross-shard messages. */
class RackNetwork {
 public:
  /** Link activity counters. */
  struct Stats {
    std::uint64_t messages = 0;       ///< Hops taken (requests + replies).
    std::uint64_t bytes = 0;          ///< Wire bytes serialized.
    std::uint64_t intra_rack = 0;     ///< Hops within one rack.
    std::uint64_t inter_rack = 0;     ///< Hops crossing racks.
    std::uint64_t retransmits = 0;    ///< Link-fault retransmissions.
    sim::TimePs total_latency = 0;    ///< Summed hop latency.
  };

  RackNetwork(const RackParams& params, std::size_t shards);

  const RackParams& params() const { return params_; }
  std::size_t shards() const { return shards_; }

  /** Rack index hosting shard `s`. */
  int rack_of(std::size_t s) const {
    return static_cast<int>(s) / params_.machines_per_rack;
  }

  /** True when both shards share a rack (pay the intra-rack base). */
  bool same_rack(std::size_t a, std::size_t b) const {
    return rack_of(a) == rack_of(b);
  }

  /**
   * The conservative-lookahead window: the minimum latency any message
   * can have (intra-rack base + zero serialization). Every hop_latency()
   * result is >= this by construction.
   */
  sim::TimePs lookahead() const { return lookahead_; }

  /**
   * One-way latency of a `bytes`-sized message from shard `src` to shard
   * `dst`, advancing the link-fault stream. Updates stats. Call only from
   * the window barrier (single-threaded, deterministic message order).
   */
  sim::TimePs hop_latency(std::size_t src, std::size_t dst,
                          std::uint64_t bytes);

  const Stats& stats() const { return s_.stats; }
  void reset_stats() { s_.stats = Stats{}; }

  /** The deterministic link state, copied whole by checkpoint() (fork
   *  support, DESIGN.md §13). */
  struct State {
    sim::Rng rng;  ///< Link-fault stream.
    Stats stats;   ///< Counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  RackParams params_;
  std::size_t shards_;
  sim::TimePs lookahead_;
  State s_;
};

}  // namespace accelflow::cluster

#endif  // ACCELFLOW_CLUSTER_RACK_NETWORK_H_
