/**
 * @file
 * Cluster conformance and determinism (TESTING.md):
 *
 *  - a 1-shard cluster::Datacenter must be *byte-identical* to the bare
 *    run_experiment() harness — same per-service stats, same machine
 *    activity, same exported trace — with and without fault injection.
 *    This is the conformance oracle that pins the cluster layer to the
 *    single-machine semantics everything else validates;
 *  - a multi-shard run must be bit-identical regardless of worker-thread
 *    count (the conservative-lookahead determinism argument, DESIGN.md
 *    §17), must route every arrival to exactly one shard, and must lose
 *    no chains across shard boundaries (cross-shard RPCs all resolve);
 *  - ClusterSession fork points must be bit-identical no matter how many
 *    points ran before them, matching a fresh session (the SweepSession
 *    contract at cluster scope);
 *  - a bad ClusterConfig, or a per_service_rps of the wrong size at any
 *    entry point, is rejected by name at construction.
 *
 * The suite runs under AF_CHECK=1, so every shard of every run carries an
 * invariant checker that aborts on any violation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/datacenter.h"
#include "fault/fault_plan.h"
#include "obs/tracer.h"
#include "qos/policy.h"
#include "workload/experiment.h"
#include "workload/suites.h"
#include "workload/sweep.h"

namespace accelflow::cluster {
namespace {

workload::ExperimentConfig small_experiment() {
  workload::ExperimentConfig cfg;
  cfg.specs = workload::social_network_specs();
  cfg.rps_per_service = 2500.0;
  cfg.warmup = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(8);
  cfg.drain = sim::milliseconds(4);
  cfg.seed = 1234;
  return cfg;
}

/** small_experiment() under the tenant-isolation QoS defaults and a
 *  120 W package cap: the admission controller and the power governor
 *  are both attached. */
workload::ExperimentConfig qos_power_experiment() {
  workload::ExperimentConfig cfg = small_experiment();
  cfg.qos = qos::QosPolicy::isolation_defaults(cfg.specs.size());
  cfg.power.budget_w = 120.0;
  return cfg;
}

/** Every field that could diverge, compared exactly: conformance means
 *  bit-identical, not statistically close. */
void expect_identical(const workload::ExperimentResult& a,
                      const workload::ExperimentResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.services.size(), b.services.size()) << what;
  for (std::size_t s = 0; s < a.services.size(); ++s) {
    EXPECT_EQ(a.services[s].completed, b.services[s].completed) << what;
    EXPECT_EQ(a.services[s].failed, b.services[s].failed) << what;
    EXPECT_EQ(a.services[s].fallbacks, b.services[s].fallbacks) << what;
    EXPECT_EQ(a.services[s].faulted, b.services[s].faulted) << what;
    EXPECT_EQ(a.services[s].mean_us, b.services[s].mean_us) << what;
    EXPECT_EQ(a.services[s].p50_us, b.services[s].p50_us) << what;
    EXPECT_EQ(a.services[s].p99_us, b.services[s].p99_us) << what;
  }
  EXPECT_EQ(a.elapsed, b.elapsed) << what;
  EXPECT_EQ(a.core_busy, b.core_busy) << what;
  EXPECT_EQ(a.accel_busy, b.accel_busy) << what;
  EXPECT_EQ(a.dma_busy, b.dma_busy) << what;
  EXPECT_EQ(a.dispatcher_busy, b.dispatcher_busy) << what;
  EXPECT_EQ(a.accel_invocations, b.accel_invocations) << what;
  EXPECT_EQ(a.interrupts, b.interrupts) << what;
  EXPECT_EQ(a.overflow_enqueues, b.overflow_enqueues) << what;
  EXPECT_EQ(a.tlb_lookups, b.tlb_lookups) << what;
  EXPECT_EQ(a.faults.total(), b.faults.total()) << what;
}

void expect_identical(const ClusterResult& a, const ClusterResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.shards.size(), b.shards.size()) << what;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    expect_identical(a.shards[s], b.shards[s],
                     what + " shard " + std::to_string(s));
  }
  EXPECT_EQ(a.admitted, b.admitted) << what;
  EXPECT_EQ(a.remote_rpcs, b.remote_rpcs) << what;
  EXPECT_EQ(a.balancer_decisions, b.balancer_decisions) << what;
  EXPECT_EQ(a.network.messages, b.network.messages) << what;
  EXPECT_EQ(a.network.bytes, b.network.bytes) << what;
  EXPECT_EQ(a.network.retransmits, b.network.retransmits) << what;
  EXPECT_EQ(a.network.total_latency, b.network.total_latency) << what;
}

TEST(ClusterConformance, OneShardMatchesBareExperiment) {
  // The cluster layer sits entirely above the engine, so one shard must
  // not observe a difference — with or without the QoS boundary and the
  // power governor attached.
  for (const auto& [what, cfg] :
       {std::pair{"one shard", small_experiment()},
        std::pair{"one shard, qos + power cap", qos_power_experiment()}}) {
    const workload::ExperimentResult bare = workload::run_experiment(cfg);

    ClusterConfig cluster;
    cluster.experiment = cfg;
    cluster.shards = 1;
    Datacenter dc(cluster);
    const ClusterResult res = dc.run();

    ASSERT_EQ(res.shards.size(), 1u) << what;
    expect_identical(bare, res.shards[0], what);
    // One shard routes nothing and sends nothing.
    EXPECT_EQ(res.balancer_decisions, 0u) << what;
    EXPECT_EQ(res.remote_rpcs, 0u) << what;
    EXPECT_EQ(res.network.messages, 0u) << what;
  }
}

TEST(ClusterConformance, OneShardTraceIsByteIdentical) {
  // The strongest oracle: the exported Chrome trace — every span of every
  // subsystem, in emission order — must match byte for byte.
  workload::ExperimentConfig cfg = small_experiment();
  obs::Tracer bare_tracer(1u << 18);
  cfg.tracer = &bare_tracer;
  workload::run_experiment(cfg);

  obs::Tracer cluster_tracer(1u << 18);
  ClusterConfig cluster;
  cluster.experiment = cfg;
  cluster.experiment.tracer = &cluster_tracer;
  cluster.shards = 1;
  Datacenter dc(cluster);
  dc.run();

  std::ostringstream bare_json, cluster_json;
  bare_tracer.export_chrome_json(bare_json);
  cluster_tracer.export_chrome_json(cluster_json);
  EXPECT_EQ(bare_json.str(), cluster_json.str());
}

TEST(ClusterConformance, OneShardMatchesUnderFaultInjection) {
  // The injector is run-owned state with its own RNG streams; shard 0
  // must wire it with the plan's unperturbed seed.
  workload::ExperimentConfig cfg = small_experiment();
  cfg.faults = fault::FaultPlan::uniform(0.02);
  const workload::ExperimentResult bare = workload::run_experiment(cfg);
  EXPECT_GT(bare.faults.total(), 0u);

  ClusterConfig cluster;
  cluster.experiment = cfg;
  cluster.shards = 1;
  Datacenter dc(cluster);
  const ClusterResult res = dc.run();
  ASSERT_EQ(res.shards.size(), 1u);
  expect_identical(bare, res.shards[0], "faulted");
}

TEST(Cluster, EveryArrivalOwnedByExactlyOneShard) {
  for (const BalancePolicy policy :
       {BalancePolicy::kRoundRobin, BalancePolicy::kLeastLoaded,
        BalancePolicy::kConsistentHash}) {
    ClusterConfig cluster;
    cluster.experiment = small_experiment();
    cluster.shards = 4;
    cluster.policy = policy;
    Datacenter dc(cluster);
    const ClusterResult res = dc.run();
    // The replicated streams agree on the arrival count; the router
    // partitions it: sum of owned arrivals == routing decisions.
    std::uint64_t owned = 0;
    for (const std::uint64_t a : res.admitted) owned += a;
    EXPECT_EQ(owned, res.balancer_decisions)
        << std::string(name_of(policy));
    EXPECT_GT(res.balancer_decisions, 0u);
    EXPECT_GT(res.total_completed(), 0u);
    EXPECT_GT(res.balancer_busy, 0u);
  }
}

TEST(Cluster, CrossShardRpcsAllResolve) {
  ClusterConfig cluster;
  cluster.experiment = small_experiment();
  cluster.shards = 4;
  cluster.remote_rpc_fraction = 0.5;
  Datacenter dc(cluster);
  const ClusterResult res = dc.run();
  // Remote sub-requests actually crossed the rack...
  EXPECT_GT(res.remote_rpcs, 0u);
  EXPECT_GT(res.network.messages, 0u);
  EXPECT_GT(res.network.bytes, 0u);
  // ...across rack boundaries too (4 shards, 4 per rack would be one
  // rack; the default topology keeps them together, so force two racks).
  // And every chain came home: no shard holds an unresolved request.
  for (std::size_t s = 0; s < dc.shards(); ++s) {
    EXPECT_EQ(dc.engine(s).in_flight(), 0u) << "shard " << s;
  }
}

TEST(Cluster, InterRackHopsPayTheHigherBase) {
  ClusterConfig cluster;
  cluster.experiment = small_experiment();
  cluster.shards = 4;
  cluster.rack.machines_per_rack = 2;  // Shards {0,1} and {2,3}.
  cluster.remote_rpc_fraction = 0.5;
  Datacenter dc(cluster);
  const ClusterResult res = dc.run();
  EXPECT_GT(res.network.intra_rack, 0u);
  EXPECT_GT(res.network.inter_rack, 0u);
  EXPECT_EQ(res.network.intra_rack + res.network.inter_rack,
            res.network.messages);
}

TEST(Cluster, BitIdenticalAcrossThreadCounts) {
  // The conservative-lookahead determinism claim: window horizons and
  // barrier merge order depend only on simulated state, so 1, 2 and 5
  // worker threads replay the identical cluster timeline.
  auto run_with = [](unsigned threads) {
    ClusterConfig cluster;
    cluster.experiment = small_experiment();
    cluster.shards = 4;
    cluster.remote_rpc_fraction = 0.4;
    cluster.rack.link_fault_prob = 0.05;
    cluster.threads = threads;
    Datacenter dc(cluster);
    return dc.run();
  };
  const ClusterResult serial = run_with(1);
  for (const unsigned threads : {2u, 5u}) {
    const ClusterResult parallel = run_with(threads);
    expect_identical(serial, parallel,
                     "threads=" + std::to_string(threads));
  }
}

TEST(Cluster, ShardAndLinkFaultsStayRecoverable) {
  // Shard-level chain faults (per-shard injector streams) and link-level
  // retransmits (rack stream) together, under the checker: recovery must
  // account for every chain, and the tail pays for retransmits.
  ClusterConfig cluster;
  cluster.experiment = small_experiment();
  cluster.experiment.faults = fault::FaultPlan::uniform(0.02);
  cluster.shards = 2;
  cluster.remote_rpc_fraction = 0.5;
  cluster.rack.link_fault_prob = 0.2;
  Datacenter dc(cluster);
  const ClusterResult res = dc.run();
  std::uint64_t injected = 0;
  for (const auto& s : res.shards) injected += s.faults.total();
  EXPECT_GT(injected, 0u);
  EXPECT_GT(res.network.retransmits, 0u);
  for (std::size_t s = 0; s < dc.shards(); ++s) {
    EXPECT_EQ(dc.engine(s).in_flight(), 0u) << "shard " << s;
    EXPECT_GT(res.shards[s].total_completed(), 0u) << "shard " << s;
  }
}

/** The std::invalid_argument message `fn` throws, or "(no exception)". */
template <typename Fn>
std::string what_of(Fn fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no exception)";
}

TEST(Cluster, RejectsInvalidShardCountAndRemoteFraction) {
  ClusterConfig cluster;
  cluster.experiment = small_experiment();
  cluster.shards = 0;
  EXPECT_NE(what_of([&] { Datacenter dc(cluster); }).find("shards"),
            std::string::npos);
  EXPECT_NE(what_of([&] { ClusterSession s(cluster); }).find("shards"),
            std::string::npos);

  // bernoulli(NaN) is always false: a NaN fraction would silently route
  // nothing remote.
  cluster.shards = 2;
  for (const double f : {std::nan(""),
                         std::numeric_limits<double>::infinity(), -0.1,
                         1.5}) {
    cluster.remote_rpc_fraction = f;
    EXPECT_NE(what_of([&] { Datacenter dc(cluster); })
                  .find("remote_rpc_fraction"),
              std::string::npos)
        << f;
  }
  for (const double f : {0.0, 1.0}) {
    cluster.remote_rpc_fraction = f;
    EXPECT_EQ(what_of([&] { Datacenter dc(cluster); }), "(no exception)")
        << f;
  }
}

TEST(ClusterSession, ForkPointsAreBitIdentical) {
  ClusterConfig cluster;
  cluster.experiment = small_experiment();
  cluster.shards = 2;
  cluster.remote_rpc_fraction = 0.4;

  ClusterSession session(cluster);
  session.prepare();
  ASSERT_TRUE(session.prepared());
  EXPECT_GE(session.fork_time(), cluster.experiment.warmup);

  const ClusterResult first = session.run_point(1.0);
  // An interleaved point at another rate must not disturb the next one:
  // every point restores the whole-cluster snapshot.
  const ClusterResult scaled = session.run_point(1.5);
  const ClusterResult again = session.run_point(1.0);
  expect_identical(first, again, "repeat point");
  EXPECT_GE(scaled.balancer_decisions, first.balancer_decisions);

  // And a fresh session forks the identical timeline.
  ClusterSession fresh(cluster);
  fresh.prepare();
  EXPECT_EQ(fresh.fork_time(), session.fork_time());
  const ClusterResult fresh_point = fresh.run_point(1.0);
  expect_identical(first, fresh_point, "fresh session");
}

TEST(ClusterSession, OneShardSessionConformsToSweepSession) {
  // The cluster fork engine at one shard degenerates into SweepSession:
  // same fork time, same measured stats for the same rate factor.
  for (const auto& [what, cfg] :
       {std::pair{"sweep conformance", small_experiment()},
        std::pair{"sweep conformance, qos + power cap",
                  qos_power_experiment()}}) {
    workload::SweepSession sweep(cfg);
    sweep.prepare();
    const workload::ExperimentResult bare = sweep.run_point({1.0, {}});

    ClusterConfig cluster;
    cluster.experiment = cfg;
    cluster.shards = 1;
    ClusterSession session(cluster);
    session.prepare();
    EXPECT_EQ(session.fork_time(), sweep.fork_time()) << what;
    const ClusterResult res = session.run_point(1.0);
    ASSERT_EQ(res.shards.size(), 1u) << what;
    expect_identical(bare, res.shards[0], what);
  }
}

TEST(ClusterSession, PowerCappedForkMatchesRecordedValues) {
  // Values recorded from the SweepSession and ClusterSession that built
  // their stacks by hand, before both moved onto workload::Deployment.
  // The governor and the generators both post calendar events while the
  // stack is assembled, and the hand-built SweepSession started the
  // governor first: this pins the forked timeline of a power-capped run
  // across that change. The explicit fault plan makes the test immune to
  // AF_FAULTS (an enabled plan wins over the environment knob).
  workload::ExperimentConfig cfg = qos_power_experiment();
  cfg.power.budget_w = 90.0;
  cfg.faults = fault::FaultPlan::uniform(0.01);

  workload::SweepSession sweep(cfg);
  sweep.prepare();
  const workload::ExperimentResult bare = sweep.run_point({1.3, {}});

  ClusterConfig cluster;
  cluster.experiment = cfg;
  cluster.shards = 1;
  ClusterSession session(cluster);
  session.prepare();
  const ClusterResult res = session.run_point(1.3);
  ASSERT_EQ(res.shards.size(), 1u);

  for (const auto& [what, r, fork] :
       {std::tuple{"sweep", &bare, sweep.fork_time()},
        std::tuple{"cluster", &res.shards[0], session.fork_time()}}) {
    EXPECT_EQ(fork, sim::TimePs{2548724261}) << what;
    std::vector<std::uint64_t> completed;
    for (const auto& s : r->services) completed.push_back(s.completed);
    EXPECT_EQ(completed,
              (std::vector<std::uint64_t>{17, 58, 118, 56, 49, 50, 97, 28}))
        << what;
    EXPECT_EQ(r->avg_p99_us, 363.46265499999998) << what;
    EXPECT_EQ(r->avg_mean_us, 246.42943750000001) << what;
    EXPECT_EQ(r->elapsed, sim::TimePs{14548724261}) << what;
    EXPECT_EQ(r->accel_busy, sim::TimePs{41761839838}) << what;
    EXPECT_EQ(r->core_busy, sim::TimePs{21384183302}) << what;
    EXPECT_EQ(r->faults.total(), 594u) << what;
    EXPECT_EQ(r->qos_shed_total, 0u) << what;
    EXPECT_EQ(r->power.epochs, 120u) << what;
    EXPECT_EQ(r->power.steps_down, 1u) << what;
    EXPECT_EQ(r->power.steps_up, 5u) << what;
    EXPECT_EQ(r->power.capped_epochs, 86u) << what;
    EXPECT_EQ(r->power.sum_power_w, 11390.729347480124) << what;
    EXPECT_EQ(r->power.max_power_w, 125.87743693385519) << what;
  }
}

TEST(Experiment, RejectsMismatchedPerServiceRps) {
  // Every entry point indexes per_service_rps by service: a vector of the
  // wrong size must be rejected by name, not read past its end.
  for (const std::size_t n : {std::size_t{2}, std::size_t{9}}) {
    workload::ExperimentConfig cfg = small_experiment();
    cfg.per_service_rps.assign(n, 1000.0);
    ASSERT_NE(n, cfg.specs.size());
    EXPECT_NE(what_of([&] { workload::run_experiment(cfg); })
                  .find("per_service_rps"),
              std::string::npos)
        << n;
    EXPECT_NE(what_of([&] { workload::SweepSession s(cfg); })
                  .find("per_service_rps"),
              std::string::npos)
        << n;
    ClusterConfig cluster;
    cluster.experiment = cfg;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      cluster.shards = shards;
      EXPECT_NE(what_of([&] { Datacenter dc(cluster); })
                    .find("per_service_rps"),
                std::string::npos)
          << n << " rates, " << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace accelflow::cluster
