#ifndef ACCELFLOW_CLUSTER_DATACENTER_H_
#define ACCELFLOW_CLUSTER_DATACENTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/balancer.h"
#include "cluster/rack_network.h"
#include "workload/experiment.h"

/**
 * @file
 * Cluster-scale sharded serving (DESIGN.md §17): N `core::Machine` shards
 * behind a load-balancer tier, cross-shard RPCs over a rack/network
 * model, and parallel per-shard event-kernel advancement with
 * conservative-lookahead synchronization.
 *
 * ## Replicated arrival streams
 *
 * Every shard runs identical LoadGenerators (same seeds, same models);
 * the Balancer — a pure function consulted through
 * workload::ArrivalRouter — decides which shard owns each arrival. The
 * owner injects it, everyone else drops it. No arrival crosses a thread
 * boundary, and a 1-shard Datacenter degenerates *exactly* into
 * workload::run_experiment(): every shard is a workload::Deployment, and
 * shard 0's is built from the unmodified config — same RNG streams, same
 * calendar — the conformance oracle (tests/test_cluster.cc).
 *
 * ## Conservative-lookahead windows
 *
 * Shards advance in lockstep windows of L = RackNetwork::lookahead() (the
 * minimum cross-shard hop latency). Within a window each shard's
 * single-threaded simulator runs independently on the worker pool;
 * cross-shard messages accumulate in per-shard outboxes. At the barrier
 * the coordinator merges outboxes in (source shard, push order) — a fixed
 * total order — draws each message's hop latency, and schedules delivery
 * into the destination calendar. A message sent at t > W pays >= L of
 * wire time, so it arrives at > W + L: never inside the window being
 * computed, which is what makes barrier delivery causally safe and the
 * whole simulation bit-deterministic regardless of thread count (the
 * PR 1 ParallelRunner guarantee, extended to coupled simulations).
 *
 * ## Fork/checkpoint
 *
 * ClusterSession is workload::SweepSession at cluster scope: warmup once,
 * drain every shard to global quiescence (empty calendars, empty
 * outboxes, no pending RPCs), capture whole-cluster state (every shard's
 * Deployment checkpoint and remote-RPC stream plus the rack's link-fault
 * stream), then fork measurement points from it.
 */

namespace accelflow::cluster {

/** Full description of one cluster run. */
struct ClusterConfig {
  /**
   * The per-shard workload: machine, engine, suite, rates, windows and
   * seed, exactly as one run_experiment() point. Rates are the rates of
   * the *replicated* stream, i.e. the whole cluster's offered load — each
   * shard owns ~1/N of it. tracer/metrics/checker attach to shard 0
   * (single-simulation observers); under AF_CHECK every shard gets its
   * own internal checker.
   */
  workload::ExperimentConfig experiment;
  /** Machine shard count; must be >= 1. */
  std::size_t shards = 1;
  /** Load-balancer tier policy. */
  BalancePolicy policy = BalancePolicy::kConsistentHash;
  /** Rack/network topology and hop costs. */
  RackParams rack;
  /**
   * Fraction of nested RPCs (ServiceSpec::rpc_callees) that execute on a
   * remote shard instead of locally, exercising the rack network. Drawn
   * from a per-shard stream independent of the workload's RNGs. Must be
   * finite and in [0, 1].
   */
  double remote_rpc_fraction = 0.25;
  /**
   * Worker threads advancing shards in parallel; 0 picks
   * min(shards, ParallelRunner::default_threads()). Results are
   * bit-identical for every value (AF_BENCH_THREADS=1 forces serial).
   */
  unsigned threads = 0;
  /**
   * run() only: after the nominal warmup+measure+drain horizon, keep
   * advancing windows until the whole cluster is quiescent (empty
   * calendars, outboxes and pending-RPC maps). A fixed horizon can leave
   * a fault-retried chain — or a cross-shard reply sent inside the final
   * lookahead window — undelivered; the soak harness (tools/cluster_soak)
   * needs true quiescence to assert zero lost chains.
   */
  bool drain_to_quiescence = false;
};

/** Aggregate outcome of one cluster run. */
struct ClusterResult {
  /** Per-shard results, harvested by workload::harvest_result — shard
   *  entries are byte-compatible with bare run_experiment() output. */
  std::vector<workload::ExperimentResult> shards;
  /** Arrivals each shard owned (injected) over the measured window. */
  std::vector<std::uint64_t> admitted;
  /** Rack-network activity (cross-shard hops). */
  RackNetwork::Stats network;
  /** Nested RPCs that crossed shards. */
  std::uint64_t remote_rpcs = 0;
  /** Routing decisions the LB tier executed (0 for a single shard). */
  std::uint64_t balancer_decisions = 0;
  /** Modeled LdB occupancy of the tier: decisions x decision cost. */
  sim::TimePs balancer_busy = 0;
  /** Simulated end time of the run. */
  sim::TimePs elapsed = 0;

  /** Requests completed across all shards. */
  std::uint64_t total_completed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s.total_completed();
    return n;
  }
};

/** The sharded datacenter: N machines + LB tier + rack network. */
class Datacenter {
 public:
  /**
   * Builds every shard (a workload::Deployment with replicated
   * generators) plus the balancer and rack model. Throws
   * std::invalid_argument for shards == 0, or a remote_rpc_fraction that
   * is not finite and in [0, 1].
   *
   * @param fork_mode when true, warmup generators and governors stop at
   *        experiment.warmup so prepare() can drain to quiescence (the
   *        ClusterSession protocol); when false, run() drives the
   *        straight-through run_experiment() protocol.
   */
  explicit Datacenter(const ClusterConfig& config, bool fork_mode = false);
  Datacenter(const Datacenter&) = delete;
  Datacenter& operator=(const Datacenter&) = delete;
  ~Datacenter();

  /**
   * Straight-through protocol (fork_mode == false), the cluster analog of
   * run_experiment(): advance to warmup, reset recorders, advance to
   * warmup + measure + drain, harvest, run final audits (per-shard
   * checker + critpath conservation under AF_CHECK).
   */
  ClusterResult run();

  // --- Fork protocol (fork_mode == true, used via ClusterSession) -------

  /** Warmup + drain to global quiescence + capture the fork checkpoint. */
  void prepare();

  /** True once prepare() captured the checkpoint. */
  bool prepared() const;

  /** Simulated time of the fork point (>= experiment.warmup). */
  sim::TimePs fork_time() const { return t_fork_; }

  /**
   * Restores the whole-cluster checkpoint, scales every generator rate by
   * `rate_factor`, simulates a fresh measurement window + drain, and
   * harvests. Callable any number of times; bit-identical per factor.
   */
  ClusterResult run_point(double rate_factor = 1.0);

  // --- Introspection (tests, benches) -----------------------------------

  const ClusterConfig& config() const { return config_; }
  std::size_t shards() const;
  sim::TimePs now() const { return now_; }
  Balancer& balancer() { return *balancer_; }
  RackNetwork& rack() { return *rack_; }
  core::Machine& machine(std::size_t shard);
  workload::RequestEngine& engine(std::size_t shard);
  /** Worker threads the window engine uses (after clamping). */
  unsigned threads() const { return threads_; }

 private:
  struct Shard;     // One deployment + its RPC state (datacenter.cc).
  struct Message;   // A cross-shard RPC hop (datacenter.cc).
  class ShardPool;  // Persistent window workers (datacenter.cc).

  /** Advances the whole cluster to `target` in lookahead windows. */
  void advance_to(sim::TimePs target);
  /** Runs one window on every shard (parallel when pool_ exists). */
  void run_window(sim::TimePs horizon);
  /** Merges outboxes + refreshes the load snapshot (the barrier). */
  void barrier_sync();
  /** Schedules one merged message into its destination calendar. */
  void deliver_message(const Message& m);
  /** Cross-shard nested-RPC entry, called from shard `src`'s thread. */
  void route_nested(std::size_t src, double rtt_us, core::ChainContext& ctx,
                    std::size_t callee,
                    std::function<void(std::uint64_t)> deliver);
  /** True when every calendar, outbox and pending-RPC map is empty. */
  bool quiescent() const;
  /**
   * Advances windows until quiescent(). Idle gaps fast-forward straight
   * to the earliest pending event across all calendars (causally safe
   * with every outbox empty: nothing is on the wire, so no event can
   * appear before it). One shard just runs its calendar empty.
   */
  void drain_quiescent();
  /** Per-shard harvest and checker audit + cluster aggregates. */
  ClusterResult harvest();
  /** Zeroes measurement recorders (end of warmup / point start). */
  void reset_stats();

  ClusterConfig config_;
  bool fork_mode_;
  unsigned threads_ = 1;
  std::unique_ptr<Balancer> balancer_;
  std::unique_ptr<RackNetwork> rack_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ShardPool> pool_;
  RackNetwork::Checkpoint fork_rack_;  ///< The rack half of the fork.
  sim::TimePs now_ = 0;
  sim::TimePs t_fork_ = 0;
  bool ran_ = false;
};

/**
 * SweepSession-style fork engine over whole-cluster snapshots: one warmup
 * simulation shared by any number of measurement points (load scaling,
 * policy A/B at identical warm state). Determinism contract matches
 * SweepSession: run_point(f) is bit-identical no matter how many points
 * ran before it, and identical to a fresh session running only f.
 */
class ClusterSession {
 public:
  explicit ClusterSession(const ClusterConfig& config)
      : dc_(config, /*fork_mode=*/true) {}

  /** Simulates warmup, drains to quiescence, captures the checkpoint. */
  void prepare() { dc_.prepare(); }
  bool prepared() const { return dc_.prepared(); }
  sim::TimePs fork_time() const { return dc_.fork_time(); }

  /** Forks one measurement point at `rate_factor` x configured rates. */
  ClusterResult run_point(double rate_factor = 1.0) {
    return dc_.run_point(rate_factor);
  }

  Datacenter& datacenter() { return dc_; }

 private:
  Datacenter dc_;
};

}  // namespace accelflow::cluster

#endif  // ACCELFLOW_CLUSTER_DATACENTER_H_
