/**
 * @file
 * Multi-tenant QoS tests (DESIGN.md §19, TESTING.md):
 *
 *  - AdmissionController unit behavior: quota/floor token buckets, the
 *    work-conserving over-quota admit, the shed hysteresis (enter high,
 *    exit low), and checkpoint/restore fork equivalence.
 *  - SramQueue reserved headroom: priority-0 entries refused the last
 *    reserved slots, prioritized and bypass_reserve admits, counters.
 *  - Engine integration: per-tenant active-chain quotas throttle without
 *    losing work; an all-defaults policy is a behavioral no-op next to no
 *    policy at all; priority aging keeps best-effort tenants live under a
 *    saturating prioritized antagonist.
 *  - Tenant-tag integrity: every per-tenant counter lands on the one
 *    driven tenant across fault recovery, CPU-fallback re-routing, and
 *    cross-shard nested RPCs.
 *  - Power-capped operation: the DVFS governor holds the ladder below
 *    nominal under a tight budget, stretches PE service (visible to the
 *    critical-path profiler), stays fully inert at budget <= 0, and forks
 *    bit-identically through SweepSession.
 *  - The chaos drill (the PR's acceptance scenario): a latency-sensitive
 *    victim plus a bursty best-effort antagonist at 3x quota under 1%
 *    faults — the victim holds its SLO and shedding confines itself to
 *    the antagonist.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "accel/sram_queue.h"
#include "check/invariant_checker.h"
#include "cluster/datacenter.h"
#include "critpath/critpath.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "qos/admission.h"
#include "qos/policy.h"
#include "qos/power.h"
#include "sim/simulator.h"
#include "workload/experiment.h"
#include "workload/parallel_runner.h"
#include "workload/suites.h"
#include "workload/sweep.h"

namespace accelflow::workload {
namespace {

ExperimentConfig qos_base(double rps = 2500.0, std::uint64_t seed = 17) {
  ExperimentConfig cfg;
  cfg.kind = core::OrchKind::kAccelFlow;
  cfg.specs = social_network_specs();
  cfg.load_model = LoadGenerator::Model::kPoisson;
  cfg.per_service_rps.assign(cfg.specs.size(), rps);
  cfg.warmup = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(8);
  cfg.drain = sim::milliseconds(6);
  cfg.seed = seed;
  return cfg;
}

/** The simulated timeline's stats, which must match bit for bit even when
 *  only one side carries QoS *accounting* (the no-op policy A/B test). */
void expect_identical_timeline(const ExperimentResult& a,
                               const ExperimentResult& b,
                               const std::string& what) {
  ASSERT_EQ(a.services.size(), b.services.size()) << what;
  for (std::size_t s = 0; s < a.services.size(); ++s) {
    EXPECT_EQ(a.services[s].completed, b.services[s].completed) << what;
    EXPECT_EQ(a.services[s].failed, b.services[s].failed) << what;
    EXPECT_EQ(a.services[s].fallbacks, b.services[s].fallbacks) << what;
    EXPECT_EQ(a.services[s].faulted, b.services[s].faulted) << what;
    EXPECT_EQ(a.services[s].mean_us, b.services[s].mean_us) << what;
    EXPECT_EQ(a.services[s].p99_us, b.services[s].p99_us) << what;
  }
  EXPECT_EQ(a.elapsed, b.elapsed) << what;
  EXPECT_EQ(a.core_busy, b.core_busy) << what;
  EXPECT_EQ(a.accel_busy, b.accel_busy) << what;
  EXPECT_EQ(a.accel_invocations, b.accel_invocations) << what;
  EXPECT_EQ(a.engine.chains_completed, b.engine.chains_completed) << what;
  EXPECT_EQ(a.engine.tenant_throttled, b.engine.tenant_throttled) << what;
  EXPECT_EQ(a.engine.quota_throttled, b.engine.quota_throttled) << what;
  EXPECT_EQ(a.engine.completed_by_tenant, b.engine.completed_by_tenant)
      << what;
}

/** Timeline plus the QoS accounting itself (determinism tests). */
void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& what) {
  expect_identical_timeline(a, b, what);
  EXPECT_EQ(a.qos_shed_total, b.qos_shed_total) << what;
  ASSERT_EQ(a.qos_tenants.size(), b.qos_tenants.size()) << what;
  for (std::size_t t = 0; t < a.qos_tenants.size(); ++t) {
    EXPECT_EQ(a.qos_tenants[t].offered, b.qos_tenants[t].offered) << what;
    EXPECT_EQ(a.qos_tenants[t].admitted, b.qos_tenants[t].admitted) << what;
    EXPECT_EQ(a.qos_tenants[t].shed, b.qos_tenants[t].shed) << what;
    EXPECT_EQ(a.qos_tenants[t].over_quota, b.qos_tenants[t].over_quota)
        << what;
  }
  EXPECT_EQ(a.power.epochs, b.power.epochs) << what;
  EXPECT_EQ(a.power.capped_epochs, b.power.capped_epochs) << what;
  EXPECT_EQ(a.power.min_scale, b.power.min_scale) << what;
  EXPECT_EQ(a.power.sum_power_w, b.power.sum_power_w) << what;
}

std::uint64_t at_or_zero(const std::vector<std::uint64_t>& v,
                         std::size_t i) {
  return i < v.size() ? v[i] : 0;
}

std::uint64_t vec_sum(const std::vector<std::uint64_t>& v) {
  std::uint64_t n = 0;
  for (const std::uint64_t x : v) n += x;
  return n;
}

// --- AdmissionController unit behavior -----------------------------------

TEST(AdmissionUnit, NoQuotaTenantIsNeverShed) {
  sim::Simulator sim;
  qos::QosPolicy p;
  p.tenants.resize(1);  // All defaults: no quota, no SLO.
  qos::AdmissionController ac(sim, p);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(ac.admit(0));
  EXPECT_FALSE(ac.shedding());
  EXPECT_EQ(ac.stats(0).offered, 1000u);
  EXPECT_EQ(ac.stats(0).admitted, 1000u);
  EXPECT_EQ(ac.stats(0).over_quota, 0u);
  EXPECT_EQ(ac.total_shed(), 0u);
}

TEST(AdmissionUnit, WorkConservingUntilPressureThenQuotaBinds) {
  sim::Simulator sim;
  qos::QosPolicy p;
  p.tenants.resize(3);
  // Tenant 0: the latency-sensitive sentinel whose EWMA gates shedding.
  p.tenants[0].cls = qos::TenantClass::kLatencySensitive;
  p.tenants[0].p99_target = sim::microseconds(100);
  // Tenant 1: best-effort with a quota of 500 rps (burst 0.02s -> 10
  // tokens at t=0, no refill while time stands still).
  p.tenants[1].quota_rps = 500.0;
  // Tenant 2: quota 500 rps but a guaranteed floor of 250 rps.
  p.tenants[2].quota_rps = 500.0;
  p.tenants[2].min_rps = 250.0;
  qos::AdmissionController ac(sim, p);

  // Drain tenant 1's burst; over-quota arrivals still admit while no
  // latency-sensitive tenant is hurting (work conservation).
  for (int i = 0; i < 30; ++i) EXPECT_TRUE(ac.admit(1));
  EXPECT_EQ(ac.stats(1).admitted, 30u);
  EXPECT_GT(ac.stats(1).over_quota, 0u);
  EXPECT_EQ(ac.stats(1).shed, 0u);

  // Three SLO violations push the EWMA over shed_enter = 0.10
  // (alpha 0.05: 0.05, 0.0975, 0.1426).
  for (int i = 0; i < 3; ++i) {
    ac.record_latency(0, sim::microseconds(500));
  }
  ASSERT_TRUE(ac.shedding());

  // Now the over-quota arrivals of tenant 1 are shed...
  EXPECT_FALSE(ac.admit(1));
  EXPECT_EQ(ac.stats(1).shed, 1u);
  // ...while tenant 0 (no quota configured) always admits...
  EXPECT_TRUE(ac.admit(0));
  // ...and tenant 2's guaranteed floor admits past its drained quota.
  int admitted2 = 0;
  for (int i = 0; i < 12; ++i) admitted2 += ac.admit(2) ? 1 : 0;
  // 10 quota tokens + 5 floor tokens at t=0: the first 12 arrivals all
  // land within one allowance or the other.
  EXPECT_EQ(admitted2, 12);
  EXPECT_GT(ac.stats(2).over_quota, 0u);
  EXPECT_EQ(ac.stats(2).shed, 0u);
}

TEST(AdmissionUnit, HysteresisExitsOnlyBelowTheLowWatermark) {
  sim::Simulator sim;
  qos::QosPolicy p;
  p.tenants.resize(1);
  p.tenants[0].cls = qos::TenantClass::kLatencySensitive;
  p.tenants[0].p99_target = sim::microseconds(100);
  qos::AdmissionController ac(sim, p);

  for (int i = 0; i < 4; ++i) ac.record_latency(0, sim::microseconds(500));
  ASSERT_TRUE(ac.shedding());
  EXPECT_EQ(ac.checkpoint().shed_entries, 1u);

  // A single good completion decays the EWMA below shed_enter but not
  // below shed_exit: still shedding (no flapping).
  ac.record_latency(0, sim::microseconds(10));
  EXPECT_TRUE(ac.shedding());

  // Keep feeding good latencies until the EWMA decays below shed_exit.
  for (int i = 0; i < 200 && ac.shedding(); ++i) {
    ac.record_latency(0, sim::microseconds(10));
  }
  EXPECT_FALSE(ac.shedding());
  EXPECT_EQ(ac.checkpoint().shed_entries, 1u);

  // Re-entry counts a second shedding episode.
  for (int i = 0; i < 4; ++i) ac.record_latency(0, sim::microseconds(500));
  EXPECT_TRUE(ac.shedding());
  EXPECT_EQ(ac.checkpoint().shed_entries, 2u);
}

TEST(AdmissionUnit, CheckpointForkReplaysDecisionsExactly) {
  sim::Simulator sim;
  qos::QosPolicy p;
  p.tenants.resize(2);
  p.tenants[0].cls = qos::TenantClass::kLatencySensitive;
  p.tenants[0].p99_target = sim::microseconds(50);
  p.tenants[1].quota_rps = 2000.0;
  qos::AdmissionController ac(sim, p);

  // Mixed traffic, with time advancing so the buckets partially refill.
  for (int i = 0; i < 25; ++i) (void)ac.admit(1);
  ac.record_latency(0, sim::microseconds(200));
  sim.schedule_at(sim::microseconds(700), [] {});
  sim.run();
  for (int i = 0; i < 5; ++i) (void)ac.admit(1);

  const auto fork = ac.checkpoint();
  const auto replay = [&] {
    std::vector<bool> d;
    for (int i = 0; i < 40; ++i) {
      if (i % 7 == 0) ac.record_latency(0, sim::microseconds(200));
      d.push_back(ac.admit(1));
    }
    return d;
  };
  const std::vector<bool> first = replay();
  const std::uint64_t shed_first = ac.total_shed();
  ac.restore(fork);
  const std::vector<bool> second = replay();
  EXPECT_EQ(first, second);
  EXPECT_EQ(ac.total_shed(), shed_first);
}

TEST(AdmissionUnit, StatsSentinelIsZeroedForUnknownTenants) {
  sim::Simulator sim;
  qos::QosPolicy p;
  p.tenants.resize(1);
  const qos::AdmissionController ac(sim, p);
  EXPECT_EQ(ac.stats(42).offered, 0u);
  EXPECT_EQ(ac.stats(42).shed, 0u);
  EXPECT_EQ(ac.tenant_stats().size(), 1u);
}

// --- SramQueue reserved headroom -----------------------------------------

TEST(ReservedSlots, BestEffortRefusedTheReservedHeadroom) {
  accel::SramQueue q(4);
  q.set_reserved(2);

  const auto entry = [](std::uint8_t prio) {
    accel::QueueEntry e;
    e.priority = prio;
    return e;
  };

  // Two best-effort entries fit (free stays above the headroom)...
  ASSERT_NE(q.allocate(entry(0)), accel::kInvalidSlot);
  ASSERT_NE(q.allocate(entry(0)), accel::kInvalidSlot);
  // ...the third hits the reserved headroom and is refused.
  EXPECT_EQ(q.allocate(entry(0)), accel::kInvalidSlot);
  EXPECT_EQ(q.stats().reserved_denials, 1u);
  EXPECT_EQ(q.stats().alloc_failures, 1u);
  EXPECT_EQ(q.occupancy(), 2u);

  // A prioritized entry takes a reserved slot.
  ASSERT_NE(q.allocate(entry(1)), accel::kInvalidSlot);
  // Best-effort is still refused at one free slot...
  EXPECT_EQ(q.allocate(entry(0)), accel::kInvalidSlot);
  EXPECT_EQ(q.stats().reserved_denials, 2u);
  // ...but a re-admission path (the overflow drain) bypasses the check.
  ASSERT_NE(q.allocate(entry(0), /*bypass_reserve=*/true),
            accel::kInvalidSlot);
  EXPECT_TRUE(q.full());

  // A genuinely full queue refuses everyone, and that is not a
  // reserved denial.
  EXPECT_EQ(q.allocate(entry(3)), accel::kInvalidSlot);
  EXPECT_EQ(q.stats().reserved_denials, 2u);
  EXPECT_EQ(q.stats().alloc_failures, 3u);
}

TEST(ReservedSlots, ZeroReservedIsThePlainQueue) {
  accel::SramQueue q(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(q.allocate(accel::QueueEntry{}), accel::kInvalidSlot);
  }
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.stats().reserved_denials, 0u);
}

// --- Engine integration ---------------------------------------------------

TEST(EngineQos, PerTenantActiveCapThrottlesWithoutLosingWork) {
  ExperimentConfig cfg = qos_base(3000.0, 19);
  qos::QosPolicy p;
  p.tenants.resize(cfg.specs.size());
  for (auto& t : p.tenants) t.max_active_chains = 1;
  cfg.qos = p;
  check::InvariantChecker checker;
  cfg.checker = &checker;

  const ExperimentResult out = run_experiment(cfg);

  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(out.total_completed(), 0u);
  // The per-tenant quota (not the global tenant_max_active knob, which is
  // unset here) was the binding cap.
  EXPECT_GT(out.engine.tenant_throttled, 0u);
  EXPECT_EQ(out.engine.quota_throttled, out.engine.tenant_throttled);
  // Chain conservation: every started chain completed, and the per-tenant
  // split sums back to the total.
  EXPECT_EQ(vec_sum(out.engine.completed_by_tenant),
            out.engine.chains_completed);
}

TEST(EngineQos, AllDefaultsPolicyIsABehavioralNoop) {
  // A policy whose every TenantSlo is default (no quotas, no SLOs,
  // priority 0) attaches the whole QoS plumbing — admission consults,
  // latency feedback, engine caps — and must not move a single bit next
  // to a run with no policy at all.
  const ExperimentConfig plain = qos_base(2500.0, 23);
  ExperimentConfig noop = plain;
  noop.qos.tenants.resize(noop.specs.size());

  const ExperimentResult a = run_experiment(noop);
  const ExperimentResult b = run_experiment(plain);
  // Timeline-only: the no-op side carries QoS *accounting* (per-tenant
  // offered/admitted counters) that the plain side doesn't, by design.
  expect_identical_timeline(a, b, "all-defaults policy vs no policy");
  EXPECT_EQ(a.qos_shed_total, b.qos_shed_total);
  // The no-op policy still accounts its boundary traffic.
  ASSERT_EQ(a.qos_tenants.size(), plain.specs.size());
  EXPECT_GT(a.qos_tenants[0].offered, 0u);
  EXPECT_EQ(a.qos_shed_total, 0u);
}

TEST(EngineQos, AgingKeepsBestEffortTenantsLiveUnderPriorityPolicy) {
  // A prioritized antagonist saturates the ensemble under strict-priority
  // dispatch; the aging quantum guarantees the best-effort tenants still
  // make progress (effective priority grows with waiting time).
  ExperimentConfig cfg = qos_base(800.0, 29);
  cfg.machine.policy = accel::SchedPolicy::kPriority;
  cfg.machine.pes_per_accel = 2;  // Small ensemble: contention is real.
  cfg.per_service_rps[0] = 9000.0;  // The prioritized antagonist.
  qos::QosPolicy p;
  p.tenants.resize(cfg.specs.size());
  p.tenants[0].priority = 3;
  p.aging_quantum_us = 25.0;
  cfg.qos = p;
  check::InvariantChecker checker;
  cfg.checker = &checker;

  const ExperimentResult out = run_experiment(cfg);

  EXPECT_TRUE(checker.ok()) << checker.report();
  for (std::size_t s = 0; s < out.services.size(); ++s) {
    EXPECT_GT(out.services[s].completed, 0u)
        << "service " << s << " starved";
  }
}

// --- Tenant-tag integrity -------------------------------------------------

TEST(TenantTag, SurvivesFaultsAndCpuFallbackReRouting) {
  // Drive exactly one tenant (one with no nested-RPC callees) through a
  // fault storm tuned to force CPU fallbacks. Every per-tenant counter —
  // completions, faults, fallbacks — must land on that tenant and no
  // other: the tag survives retry, quarantine re-route, and fallback.
  ExperimentConfig cfg = qos_base(4000.0, 31);
  std::size_t solo = cfg.specs.size();
  for (std::size_t s = 0; s < cfg.specs.size(); ++s) {
    if (cfg.specs[s].rpc_callees.empty()) {
      solo = s;
      break;
    }
  }
  ASSERT_LT(solo, cfg.specs.size());
  cfg.per_service_rps.assign(cfg.specs.size(), 0.0);
  cfg.per_service_rps[solo] = 6000.0;
  cfg.machine.accel_queue_entries = 2;  // Reject storms overflow quickly.
  cfg.machine.overflow_capacity = 2;
  cfg.faults = fault::FaultPlan::uniform(0.01);
  for (auto& r : cfg.faults.accel) r.queue_reject_prob = 0.4;
  check::InvariantChecker checker;
  cfg.checker = &checker;

  const ExperimentResult out = run_experiment(cfg);

  EXPECT_TRUE(checker.ok()) << checker.report();
  ASSERT_GT(out.services[solo].completed, 0u);
  // The storm must actually have re-routed work.
  EXPECT_GT(out.engine.enqueue_fallbacks + out.engine.overflow_fallbacks,
            0u);
  EXPECT_GT(out.engine.chains_faulted, 0u);
  // Conservation and purity: every per-tenant count sits at `solo`.
  EXPECT_EQ(vec_sum(out.engine.completed_by_tenant),
            out.engine.chains_completed);
  EXPECT_EQ(at_or_zero(out.engine.completed_by_tenant, solo),
            out.engine.chains_completed);
  EXPECT_EQ(vec_sum(out.engine.faulted_by_tenant),
            out.engine.chains_faulted);
  EXPECT_EQ(at_or_zero(out.engine.faulted_by_tenant, solo),
            out.engine.chains_faulted);
  EXPECT_EQ(at_or_zero(out.engine.fallback_by_tenant, solo),
            vec_sum(out.engine.fallback_by_tenant));
  EXPECT_GT(at_or_zero(out.engine.fallback_by_tenant, solo), 0u);
}

TEST(TenantTag, CrossShardNestedRpcsKeepTheCalleeTenant) {
  // Drive one caller service (with nested-RPC callees) on a 2-shard
  // cluster where every nested RPC executes remotely. On both shards the
  // per-tenant completions may only land on the caller or its callees —
  // a tag lost in the cross-shard path would surface elsewhere.
  ExperimentConfig base = qos_base(0.0, 37);
  std::size_t caller = base.specs.size();
  for (std::size_t s = 0; s < base.specs.size(); ++s) {
    if (!base.specs[s].rpc_callees.empty()) {
      caller = s;
      break;
    }
  }
  ASSERT_LT(caller, base.specs.size());
  std::vector<std::size_t> allowed{caller};
  for (const std::string& name : base.specs[caller].rpc_callees) {
    for (std::size_t t = 0; t < base.specs.size(); ++t) {
      if (base.specs[t].name == name) allowed.push_back(t);
    }
  }
  base.per_service_rps.assign(base.specs.size(), 0.0);
  base.per_service_rps[caller] = 4000.0;

  cluster::ClusterConfig cc;
  cc.experiment = base;
  cc.shards = 2;
  cc.remote_rpc_fraction = 1.0;
  const cluster::ClusterResult out = cluster::Datacenter(cc).run();

  EXPECT_GT(out.remote_rpcs, 0u);
  EXPECT_GT(out.total_completed(), 0u);
  for (std::size_t sh = 0; sh < out.shards.size(); ++sh) {
    const auto& by_tenant = out.shards[sh].engine.completed_by_tenant;
    std::uint64_t on_allowed = 0;
    for (const std::size_t t : allowed) on_allowed += at_or_zero(by_tenant, t);
    EXPECT_EQ(on_allowed, vec_sum(by_tenant)) << "shard " << sh;
    EXPECT_EQ(vec_sum(by_tenant), out.shards[sh].engine.chains_completed)
        << "shard " << sh;
  }
}

// --- Power-capped operation ----------------------------------------------

TEST(PowerCap, TightBudgetCapsTheLadderAndStretchesLatency) {
  const ExperimentConfig base = qos_base(1500.0, 41);
  ExperimentConfig capped = base;
  // Below the package's idle floor: the governor must descend the ladder
  // and stay there.
  capped.power.budget_w = 50.0;

  const ExperimentResult fast = run_experiment(base);
  const ExperimentResult slow = run_experiment(capped);

  EXPECT_EQ(fast.power.epochs, 0u);  // No governor without a budget.
  EXPECT_GT(slow.power.epochs, 0u);
  EXPECT_GT(slow.power.capped_epochs, 0u);
  // The ladder descends during warmup (the stats reset keeps the level),
  // so the measured window sees the floor, not the steps.
  EXPECT_LT(slow.power.min_scale, 1.0);
  EXPECT_LE(slow.power.min_scale, 0.55);
  EXPECT_GT(slow.power.avg_power_w(), 0.0);
  // DVFS-slowed PEs stretch end-to-end latency.
  EXPECT_GT(slow.total_completed(), 0u);
  EXPECT_GT(slow.avg_p99_us, fast.avg_p99_us);
}

TEST(PowerCap, GenerousBudgetStaysAtNominal) {
  ExperimentConfig cfg = qos_base(1500.0, 41);
  cfg.power.budget_w = 10000.0;  // Far above the server's max draw.

  const ExperimentResult out = run_experiment(cfg);
  EXPECT_GT(out.power.epochs, 0u);
  EXPECT_EQ(out.power.capped_epochs, 0u);
  EXPECT_EQ(out.power.steps_down, 0u);
  EXPECT_EQ(out.power.min_scale, 1.0);
}

TEST(PowerCap, NonPositiveBudgetIsFullyInert) {
  const ExperimentConfig plain = qos_base(2000.0, 43);
  ExperimentConfig zero = plain;
  zero.power.budget_w = 0.0;
  ExperimentConfig negative = plain;
  negative.power.budget_w = -25.0;
  // A positive budget with an epoch that cannot be cast to picoseconds.
  ExperimentConfig inf_epoch = plain;
  inf_epoch.power.budget_w = 50.0;
  inf_epoch.power.epoch_us = std::numeric_limits<double>::infinity();

  const ExperimentResult a = run_experiment(plain);
  const ExperimentResult b = run_experiment(zero);
  const ExperimentResult c = run_experiment(negative);
  const ExperimentResult d = run_experiment(inf_epoch);
  expect_identical(a, b, "budget 0 vs no power config");
  expect_identical(a, c, "negative budget vs no power config");
  expect_identical(a, d, "infinite epoch vs no power config");
  EXPECT_EQ(b.power.epochs, 0u);
  EXPECT_EQ(c.power.epochs, 0u);
  EXPECT_EQ(d.power.epochs, 0u);
}

TEST(PowerCap, CritpathAttributesLongerPeServiceUnderTheCap) {
  // The cap's PE slowdown must be *observable*: the critical-path
  // profiler attributes more pe_service time per chain when the governor
  // holds the ladder below nominal.
  const auto pe_service_per_chain = [](double budget_w) {
    obs::Tracer tracer(1u << 18);
    ExperimentConfig cfg;
    cfg.kind = core::OrchKind::kAccelFlow;
    cfg.specs = social_network_specs();
    cfg.rps_per_service = 1200.0;
    cfg.warmup = sim::milliseconds(2);
    cfg.measure = sim::milliseconds(8);
    cfg.drain = sim::milliseconds(5);
    cfg.seed = 47;
    cfg.power.budget_w = budget_w;
    cfg.tracer = &tracer;
    const ExperimentResult res = run_experiment(cfg);
    EXPECT_GT(res.total_completed(), 0u);
    critpath::Analyzer a;
    a.analyze(tracer);
    EXPECT_GT(a.total().chains, 0u);
    EXPECT_TRUE(a.violations().empty());
    const auto pe = a.total().by_category[static_cast<std::size_t>(
        critpath::Category::kPeService)];
    return sim::to_microseconds(pe) /
           static_cast<double>(a.total().chains);
  };

  const double nominal = pe_service_per_chain(0.0);
  const double capped = pe_service_per_chain(50.0);
  EXPECT_GT(nominal, 0.0);
  EXPECT_GT(capped, nominal * 1.2);
}

TEST(PowerCap, ForkedPointMatchesFreshSessionBitForBit) {
  // The full QoS bundle — admission buckets, hysteresis, the governor's
  // ladder level and busy-time anchors — forks with the machine: a point
  // re-run after divergence, and the same point in a fresh session, must
  // replay bit for bit.
  ExperimentConfig cfg = qos_base(2500.0, 53);
  qos::QosPolicy p = qos::QosPolicy::isolation_defaults(cfg.specs.size());
  p.tenants[0].cls = qos::TenantClass::kLatencySensitive;
  p.tenants[0].p99_target = sim::microseconds(400);
  p.tenants[1].quota_rps = 1200.0;
  cfg.qos = p;
  cfg.power.budget_w = 50.0;
  cfg.faults = fault::FaultPlan::uniform(0.01);
  const SweepPoint x{1.0, {}};
  const SweepPoint y{2.0, {}};

  SweepSession a(cfg);
  a.prepare();
  const ExperimentResult ax1 = a.run_point(x);
  const ExperimentResult ay = a.run_point(y);
  const ExperimentResult ax2 = a.run_point(x);

  SweepSession b(cfg);
  b.prepare();
  const ExperimentResult bx = b.run_point(x);

  expect_identical(ax1, ax2, "same session, point re-run after divergence");
  expect_identical(ax1, bx, "forked vs fresh session");
  EXPECT_GT(ax1.power.epochs, 0u);
  EXPECT_GT(ay.power.epochs, ax1.power.epochs / 2);
}

// --- Metrics export -------------------------------------------------------

TEST(QosMetrics, PerTenantFamiliesAreExported) {
  ExperimentConfig cfg = qos_base(2000.0, 59);
  qos::QosPolicy p;
  p.tenants.resize(cfg.specs.size());
  p.tenants[1].quota_rps = 500.0;
  cfg.qos = p;
  cfg.power.budget_w = 120.0;
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;

  const ExperimentResult out = run_experiment(cfg);
  ASSERT_GT(out.total_completed(), 0u);

  EXPECT_TRUE(reg.contains("qos.admission.shedding"));
  EXPECT_TRUE(reg.contains("qos.tenant.0.offered"));
  EXPECT_TRUE(reg.contains("qos.tenant.1.over_quota"));
  EXPECT_TRUE(reg.contains("qos.power.epochs"));
  EXPECT_TRUE(reg.contains("qos.power.scale"));
  EXPECT_TRUE(reg.contains("engine.quota_throttled"));
  EXPECT_TRUE(reg.contains("engine.tenant.0.completed"));
  EXPECT_GT(reg.get("qos.tenant.0.offered"), 0.0);
  EXPECT_GT(reg.get("qos.power.epochs"), 0.0);
  EXPECT_EQ(reg.get("engine.tenant.0.completed"),
            static_cast<double>(
                at_or_zero(out.engine.completed_by_tenant, 0)));
}

// --- The chaos drill ------------------------------------------------------

constexpr std::size_t kVictim = 1;      // ReadHomeTimeline-like.
constexpr std::size_t kAntagonist = 0;  // ComposePost-like (heavy).
constexpr double kVictimRps = 4000.0;
constexpr double kAntagonistQuota = 6000.0;
constexpr double kVictimSloUs = 600.0;

/** The ISSUE's acceptance scenario: a latency-sensitive victim against a
 *  bursty best-effort antagonist offered at 3x its quota, under a 1%
 *  uniform fault storm, on a deliberately small (2 PEs/accel) ensemble. */
ExperimentConfig drill_config(std::uint64_t seed = 61) {
  ExperimentConfig cfg;
  cfg.kind = core::OrchKind::kAccelFlow;
  cfg.specs = social_network_specs();
  cfg.load_model = LoadGenerator::Model::kPoisson;
  cfg.per_service_rps.assign(cfg.specs.size(), 0.0);
  cfg.per_service_rps[kVictim] = kVictimRps;
  cfg.per_service_rps[kAntagonist] = 3.0 * kAntagonistQuota;
  cfg.machine.pes_per_accel = 2;
  // A long warmup lets the shed hysteresis reach its operating point
  // before the measured window (reset_stats() keeps the EWMA state).
  cfg.warmup = sim::milliseconds(10);
  cfg.measure = sim::milliseconds(15);
  cfg.drain = sim::milliseconds(10);
  cfg.seed = seed;
  cfg.faults = fault::FaultPlan::uniform(0.01);

  qos::QosPolicy p;
  p.tenants.resize(cfg.specs.size());
  qos::TenantSlo& victim = p.tenants[kVictim];
  victim.cls = qos::TenantClass::kLatencySensitive;
  victim.p99_target = sim::microseconds(kVictimSloUs);
  victim.min_rps = 1.5 * kVictimRps;  // Floor above offer: never shed.
  victim.priority = 2;
  qos::TenantSlo& ant = p.tenants[kAntagonist];
  ant.quota_rps = kAntagonistQuota;
  p.reserved_input_slots = 4;
  p.aging_quantum_us = 25.0;
  cfg.qos = p;
  return cfg;
}

TEST(ChaosDrill, VictimHoldsSloAndSheddingConfinesToAntagonist) {
  ExperimentConfig cfg = drill_config();
  check::InvariantChecker checker;
  cfg.checker = &checker;

  const ExperimentResult out = run_experiment(cfg);

  EXPECT_TRUE(checker.ok()) << checker.report();
  // The storm fired and was survived.
  EXPECT_GT(out.faults.total(), 0u);
  ASSERT_GT(out.services[kVictim].completed, 0u);
  ASSERT_GT(out.services[kAntagonist].completed, 0u);

  // Shedding engaged against the antagonist's 3x-quota burst...
  ASSERT_GT(out.qos_shed_total, 0u);
  ASSERT_GT(out.qos_tenants.size(), kAntagonist);
  const double antagonist_share =
      static_cast<double>(out.qos_tenants[kAntagonist].shed) /
      static_cast<double>(out.qos_shed_total);
  EXPECT_GE(antagonist_share, 0.95);
  // ...and never touched the victim (its floor covers its whole offer).
  EXPECT_EQ(out.qos_tenants[kVictim].shed, 0u);

  // The victim holds its SLO through the storm.
  EXPECT_LE(out.services[kVictim].p99_us, kVictimSloUs);
}

TEST(ChaosDrill, WithoutAdmissionControlTheVictimBlowsItsSlo) {
  // The counterfactual that gives the drill its teeth: the identical
  // antagonist burst with the QoS layer off drives the victim's p99 past
  // the target the controlled run holds.
  ExperimentConfig cfg = drill_config();
  cfg.qos = qos::QosPolicy{};  // Same storm, no admission control.

  const ExperimentResult out = run_experiment(cfg);
  ASSERT_GT(out.services[kVictim].completed, 0u);
  EXPECT_GT(out.services[kVictim].p99_us, kVictimSloUs);
}

TEST(ChaosDrill, ReplaysBitIdentically) {
  const ExperimentResult a = run_experiment(drill_config());
  const ExperimentResult b = run_experiment(drill_config());
  expect_identical(a, b, "chaos drill replay");
  EXPECT_GT(a.qos_shed_total, 0u);
}

}  // namespace
}  // namespace accelflow::workload
