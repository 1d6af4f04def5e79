#ifndef ACCELFLOW_NOC_INTERCONNECT_H_
#define ACCELFLOW_NOC_INTERCONNECT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "noc/mesh.h"
#include "obs/tracer.h"
#include "sim/fault_hooks.h"
#include "sim/server.h"
#include "sim/simulator.h"

/**
 * @file
 * The full package interconnect: one mesh per chiplet plus a fully
 * connected inter-chiplet network (Table III: 60-cycle links).
 *
 * Note on inter-chiplet bandwidth: Table III lists "1Gb/s/link", which is
 * inconsistent with the paper's own data-movement volumes (a single 2KB
 * payload would serialize for 16us, dwarfing every other latency the paper
 * reports). We treat that as a typo for a UCIe-class link and default to
 * 128 GB/s, configurable for sensitivity studies.
 */

namespace accelflow::noc {

/** A position in the package: which chiplet, and where on its mesh. */
struct Location {
  int chiplet = 0;
  Coord coord;
  friend bool operator==(const Location&, const Location&) = default;
};

/** Interconnect parameters. */
struct InterconnectParams {
  std::vector<MeshParams> chiplet_meshes;  ///< One entry per chiplet.
  double inter_chiplet_cycles = 60.0;      ///< Per-crossing latency.
  double inter_chiplet_gbps = 8.0;         ///< Per-link bandwidth (see note).
  double clock_ghz = 2.4;
};

/** Interconnect statistics. */
struct InterconnectStats {
  std::uint64_t intra_transfers = 0;
  std::uint64_t inter_transfers = 0;
  std::uint64_t inter_bytes = 0;
  std::uint64_t hops = 0;  ///< Total mesh hops routed (all transfers).
  std::uint64_t degraded_transfers = 0;  ///< Stretched by injected faults.
};

/**
 * Package-level network facade.
 *
 * A cross-chiplet transfer is modeled as: source mesh to the chiplet edge
 * router (at mesh coordinate (0,0)), the inter-chiplet link, then edge
 * router to destination on the target mesh.
 */
class Interconnect {
 public:
  /** Trace track carrying inter-chiplet link legs (obs::SpanKind::kNocLink);
   *  mesh-transfer spans use the source chiplet index as their track. */
  static constexpr std::uint32_t kLinkTid = 1000;

  Interconnect(sim::Simulator& sim, const InterconnectParams& params);

  /**
   * Transfers `bytes` for chain `flow`; returns the completion time.
   * @param ready_at earliest time the data is available at `src`.
   * @param flow the chain the transfer's spans are attributed to; 0 for
   *        a transfer that serves no chain.
   */
  sim::TimePs transfer(Location src, Location dst, std::uint64_t bytes,
                       sim::TimePs ready_at, obs::FlowId flow);

  /** Zero-load latency (no contention) for planning/validation. */
  sim::TimePs zero_load_latency(Location src, Location dst,
                                std::uint64_t bytes) const;

  /** Number of chiplets in the package. */
  int num_chiplets() const { return static_cast<int>(meshes_.size()); }
  /** The mesh of `chiplet`. */
  Mesh& mesh(int chiplet) { return *meshes_[static_cast<std::size_t>(chiplet)]; }
  /** Transfer counters. */
  const InterconnectStats& stats() const { return s_.stats; }
  /** The configured parameters. */
  const InterconnectParams& params() const { return params_; }

  /**
   * Attaches the span tracer: each transfer emits an
   * obs::SpanKind::kNocTransfer span on the source chiplet's track (with
   * the routed hop count as its arg) and cross-chiplet transfers add a
   * kNocLink span for the package-link leg. Pass nullptr to detach.
   * Recording never perturbs routing or timing (see obs/tracer.h).
   */
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /**
   * Attaches (nullptr: detaches) the fault-injection sink: each transfer
   * consults it (keyed by the source chiplet) for a duration multiplier
   * modelling a degraded link — CRC retries stretching the effective
   * transfer time (DESIGN.md §14). Perturbs simulated time.
   */
  void set_fault_hooks(sim::FaultHooks* hooks) { fault_hooks_ = hooks; }

  /** The interconnect's own counters, copied whole by checkpoint()
   *  (DESIGN.md §13). */
  struct State {
    InterconnectStats stats;  ///< Counters.
  };

  /** State plus every mesh's and link's checkpoint. */
  struct Checkpoint : State {
    std::vector<Mesh::Checkpoint> meshes;        ///< Per-chiplet meshes.
    std::vector<sim::Channel::Checkpoint> links; ///< Inter-chiplet links.
  };

  Checkpoint checkpoint() const {
    Checkpoint c{s_, {}, {}};
    for (const auto& m : meshes_) c.meshes.push_back(m->checkpoint());
    for (const auto& l : links_) c.links.push_back(l.checkpoint());
    return c;
  }

  void restore(const Checkpoint& c) {
    s_ = c;
    for (std::size_t i = 0; i < meshes_.size(); ++i) {
      meshes_[i]->restore(c.meshes[i]);
    }
    for (std::size_t i = 0; i < links_.size(); ++i) {
      links_[i].restore(c.links[i]);
    }
  }

  /**
   * The inter-chiplet channel carrying the unordered pair (a, b).
   * Requires a != b (a chiplet has no link to itself — intra-chiplet
   * traffic rides the mesh; debug builds assert) and both in
   * [0, num_chiplets()). Exposed read-only so tests can pin the
   * triangular pair indexing (symmetry, distinctness).
   */
  const sim::Channel& link(int a, int b) const;

 private:
  sim::Channel& link(int a, int b);

  /** Stretches [start, done] by the injected degradation factor, if any. */
  sim::TimePs apply_degradation(int chiplet, sim::TimePs start,
                                sim::TimePs done);

  sim::Simulator& sim_;
  InterconnectParams params_;
  std::vector<std::unique_ptr<Mesh>> meshes_;
  // Fully connected: one channel per unordered chiplet pair.
  std::vector<sim::Channel> links_;
  State s_;
  obs::Tracer* tracer_ = nullptr;
  sim::FaultHooks* fault_hooks_ = nullptr;  ///< Null: fault-free run.
};

}  // namespace accelflow::noc

#endif  // ACCELFLOW_NOC_INTERCONNECT_H_
