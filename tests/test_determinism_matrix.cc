/**
 * @file
 * Determinism matrix (TESTING.md): the same seeded sweep must produce
 * bit-identical results across worker-thread counts {1, 2, 8} and with
 * the invariant checker attached or not. This pins down the two contracts
 * everything else in the validation subsystem leans on: ParallelRunner's
 * "results independent of thread count" and the checker's "observing
 * never perturbs".
 *
 * A third axis covers cluster-scale sharded serving (DESIGN.md §17):
 * shard count x worker-thread count x checker attachment. The
 * conservative-lookahead window engine must replay the identical cluster
 * timeline no matter how many threads advance the shards, and observing
 * it must not perturb a bit.
 *
 * A fourth axis covers the multi-tenant QoS layer (DESIGN.md §19): a run
 * carrying a QoS policy and a power budget (ExperimentConfig::qos/power)
 * must stay bit-identical across worker-thread counts.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "cluster/datacenter.h"
#include "qos/policy.h"
#include "workload/experiment.h"
#include "workload/parallel_runner.h"
#include "workload/suites.h"

namespace accelflow::workload {
namespace {

/** A small but non-trivial sweep: two architectures x two load points. */
std::vector<ExperimentConfig> matrix_configs() {
  std::vector<ExperimentConfig> configs;
  for (const core::OrchKind kind :
       {core::OrchKind::kAccelFlow, core::OrchKind::kCpuCentric}) {
    for (const double rps : {1500.0, 4000.0}) {
      ExperimentConfig cfg;
      cfg.kind = kind;
      cfg.specs = social_network_specs();
      cfg.rps_per_service = rps;
      cfg.warmup = sim::milliseconds(2);
      cfg.measure = sim::milliseconds(8);
      cfg.drain = sim::milliseconds(4);
      cfg.seed = 99;
      configs.push_back(cfg);
    }
  }
  return configs;
}

/** The stats that must match bit for bit. */
void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.services.size(), b.services.size()) << what;
  for (std::size_t s = 0; s < a.services.size(); ++s) {
    EXPECT_EQ(a.services[s].completed, b.services[s].completed) << what;
    EXPECT_EQ(a.services[s].failed, b.services[s].failed) << what;
    EXPECT_EQ(a.services[s].fallbacks, b.services[s].fallbacks) << what;
    // Doubles compared exactly: determinism means bit-identical.
    EXPECT_EQ(a.services[s].mean_us, b.services[s].mean_us) << what;
    EXPECT_EQ(a.services[s].p99_us, b.services[s].p99_us) << what;
  }
  EXPECT_EQ(a.elapsed, b.elapsed) << what;
  EXPECT_EQ(a.core_busy, b.core_busy) << what;
  EXPECT_EQ(a.accel_busy, b.accel_busy) << what;
  EXPECT_EQ(a.dispatcher_busy, b.dispatcher_busy) << what;
  EXPECT_EQ(a.accel_invocations, b.accel_invocations) << what;
  EXPECT_EQ(a.interrupts, b.interrupts) << what;
  EXPECT_EQ(a.overflow_enqueues, b.overflow_enqueues) << what;
  // QoS/power accounting (all zero/empty when the run carries no policy).
  EXPECT_EQ(a.engine.quota_throttled, b.engine.quota_throttled) << what;
  EXPECT_EQ(a.qos_shed_total, b.qos_shed_total) << what;
  ASSERT_EQ(a.qos_tenants.size(), b.qos_tenants.size()) << what;
  for (std::size_t t = 0; t < a.qos_tenants.size(); ++t) {
    EXPECT_EQ(a.qos_tenants[t].offered, b.qos_tenants[t].offered) << what;
    EXPECT_EQ(a.qos_tenants[t].admitted, b.qos_tenants[t].admitted) << what;
    EXPECT_EQ(a.qos_tenants[t].shed, b.qos_tenants[t].shed) << what;
  }
  EXPECT_EQ(a.power.epochs, b.power.epochs) << what;
  EXPECT_EQ(a.power.sum_power_w, b.power.sum_power_w) << what;
}

TEST(DeterminismMatrix, IdenticalAcrossThreadCounts) {
  const std::vector<ExperimentConfig> configs = matrix_configs();
  const std::vector<ExperimentResult> serial =
      ParallelRunner(1).run(configs);
  for (const unsigned threads : {2u, 8u}) {
    const std::vector<ExperimentResult> parallel =
        ParallelRunner(threads).run(configs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], parallel[i],
                       "threads=" + std::to_string(threads) + " config " +
                           std::to_string(i));
    }
  }
}

TEST(DeterminismMatrix, CheckerDoesNotPerturbResults) {
  // The invariant checker is a pure observer: a checked run must be
  // bit-identical to an unchecked run of the same config. The suite runs
  // under AF_CHECK=1 (which would silently check the "plain" runs too),
  // so drop it for the duration of this test.
  const char* af_check = std::getenv("AF_CHECK");
  const std::string saved = af_check != nullptr ? af_check : "";
  unsetenv("AF_CHECK");
  const std::vector<ExperimentConfig> configs = matrix_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ExperimentConfig with = configs[i];
    check::InvariantChecker checker;
    with.checker = &checker;
    const ExperimentResult checked = run_experiment(with);
    const ExperimentResult plain = run_experiment(configs[i]);
    expect_identical(checked, plain, "config " + std::to_string(i));
    EXPECT_TRUE(checker.ok()) << checker.report();
    EXPECT_GT(checker.stats().chains_started, 0u);
  }
  if (af_check != nullptr) setenv("AF_CHECK", saved.c_str(), 1);
}

/** A matrix config carrying the full QoS bundle: isolation defaults plus
 *  an SLO'd latency-sensitive tenant, a quota'd tenant, and a power cap —
 *  every feedback loop (latency EWMA, token buckets, DVFS ladder) live. */
ExperimentConfig qos_matrix_config() {
  ExperimentConfig cfg = matrix_configs()[0];
  cfg.qos = qos::QosPolicy::isolation_defaults(cfg.specs.size());
  cfg.qos.tenants[0].cls = qos::TenantClass::kLatencySensitive;
  cfg.qos.tenants[0].p99_target = sim::microseconds(400);
  cfg.qos.tenants[1].quota_rps = 800.0;
  cfg.power.budget_w = 120.0;
  return cfg;
}

TEST(DeterminismMatrix, QosPolicyIdenticalAcrossThreadCounts) {
  std::vector<ExperimentConfig> configs = matrix_configs();
  for (ExperimentConfig& cfg : configs) {
    cfg.qos = qos_matrix_config().qos;
    cfg.power = qos_matrix_config().power;
  }
  const std::vector<ExperimentResult> serial =
      ParallelRunner(1).run(configs);
  EXPECT_GT(serial[0].qos_tenants.size(), 0u);
  EXPECT_GT(serial[0].power.epochs, 0u);
  for (const unsigned threads : {2u, 8u}) {
    const std::vector<ExperimentResult> parallel =
        ParallelRunner(threads).run(configs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_identical(serial[i], parallel[i],
                       "qos threads=" + std::to_string(threads) +
                           " config " + std::to_string(i));
    }
  }
}

/** Cluster results that must match bit for bit across the axes. */
void expect_identical(const cluster::ClusterResult& a,
                      const cluster::ClusterResult& b,
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
  EXPECT_EQ(a.network.total_latency, b.network.total_latency) << what;
}

TEST(DeterminismMatrix, ClusterShardThreadCheckerAxes) {
  // AF_CHECK would silently attach checkers to the "plain" runs too, so
  // the checker axis drops it and attaches one explicitly instead.
  const char* af_check = std::getenv("AF_CHECK");
  const std::string saved = af_check != nullptr ? af_check : "";
  unsetenv("AF_CHECK");
  const ExperimentConfig base = matrix_configs()[0];
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    auto run_cluster = [&](unsigned threads,
                           check::InvariantChecker* checker) {
      cluster::ClusterConfig cfg;
      cfg.experiment = base;
      cfg.experiment.checker = checker;
      cfg.shards = shards;
      cfg.remote_rpc_fraction = 0.4;
      cfg.threads = threads;
      cluster::Datacenter dc(cfg);
      return dc.run();
    };
    const cluster::ClusterResult serial = run_cluster(1, nullptr);
    const std::string tag = "shards=" + std::to_string(shards);
    for (const unsigned threads : {2u, 8u}) {
      expect_identical(serial, run_cluster(threads, nullptr),
                       tag + " threads=" + std::to_string(threads));
    }
    check::InvariantChecker checker;
    expect_identical(serial, run_cluster(4, &checker), tag + " checked");
    EXPECT_TRUE(checker.ok()) << checker.report();
  }
  if (af_check != nullptr) setenv("AF_CHECK", saved.c_str(), 1);
}

}  // namespace
}  // namespace accelflow::workload
