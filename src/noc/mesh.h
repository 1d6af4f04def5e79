#ifndef ACCELFLOW_NOC_MESH_H_
#define ACCELFLOW_NOC_MESH_H_

#include <cstdint>
#include <vector>

#include "sim/server.h"
#include "sim/simulator.h"
#include "sim/time.h"

/**
 * @file
 * 2-D mesh on-chip network with XY dimension-ordered routing.
 *
 * Table III: 3 cycles/hop, 16-byte links. Transfers reserve every link on
 * the route for the message's serialization time (a wormhole-like
 * approximation), so both latency and bandwidth contention are modeled.
 */

namespace accelflow::noc {

/** Coordinates of a mesh node. */
struct Coord {
  int x = 0;
  int y = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

/** Mesh parameters. */
struct MeshParams {
  int width = 6;
  int height = 6;
  double hop_cycles = 3.0;
  double link_bytes_per_cycle = 16.0;
  double clock_ghz = 2.4;
};

/** Mesh statistics. */
struct MeshStats {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  sim::TimePs contention_time = 0;  ///< Waiting for busy links.
};

/** A width x height mesh. */
class Mesh {
 public:
  Mesh(sim::Simulator& sim, const MeshParams& params);

  /**
   * Transfers `bytes` from `src` to `dst`.
   *
   * @param ready_at earliest time the data is available at `src` (for
   *        chaining across network segments); defaults to now.
   * @return completion time (head latency + serialization + contention).
   */
  sim::TimePs transfer(Coord src, Coord dst, std::uint64_t bytes,
                       sim::TimePs ready_at = 0);

  /** Zero-load latency between two nodes for a message of `bytes`. */
  sim::TimePs zero_load_latency(Coord src, Coord dst,
                                std::uint64_t bytes) const;

  int hops(Coord src, Coord dst) const;
  const MeshParams& params() const { return params_; }
  const MeshStats& stats() const { return s_.stats; }
  bool contains(Coord c) const {
    return c.x >= 0 && c.x < params_.width && c.y >= 0 && c.y < params_.height;
  }

  /** Link occupancy and counters, copied whole by checkpoint() (route
   *  scratch excluded; DESIGN.md §13). */
  struct State {
    std::vector<sim::TimePs> link_free_at;  ///< Per-directional-link times.
    MeshStats stats;                        ///< Counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  // Links are directional; index encodes (node, direction).
  enum Direction { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };
  std::size_t link_index(Coord from, Direction d) const;
  /** Appends the XY route's link indices from src to dst to `out`. */
  void route(Coord src, Coord dst, std::vector<std::size_t>& out) const;

  sim::Simulator& sim_;
  MeshParams params_;
  sim::Clock clock_;
  sim::TimePs hop_latency_;
  double link_bytes_per_ps_;
  State s_;
  std::vector<std::size_t> route_scratch_;
};

}  // namespace accelflow::noc

#endif  // ACCELFLOW_NOC_MESH_H_
