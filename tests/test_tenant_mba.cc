/**
 * @file
 * Tests for the MBA-style per-tenant bandwidth limiter (Section IV-D).
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine.h"
#include "core/machine.h"
#include "core/tenant_mba.h"
#include "core/trace_templates.h"

namespace accelflow::core {
namespace {

TEST(TenantMba, UnthrottledTenantsPassThrough) {
  sim::Simulator sim;
  TenantBandwidthLimiter mba(sim, MbaConfig{});
  EXPECT_FALSE(mba.throttles(1));
  EXPECT_EQ(mba.acquire(1, 1 << 20), sim.now());
}

TEST(TenantMba, BurstThenThrottle) {
  sim::Simulator sim;
  MbaConfig cfg;
  cfg.limit_bytes_per_sec[7] = 1e9;  // 1 GB/s.
  cfg.burst_seconds = 0.0011;        // ~1.1MB of burst credit.
  TenantBandwidthLimiter mba(sim, cfg);
  EXPECT_TRUE(mba.throttles(7));
  // Within the burst: immediate.
  EXPECT_EQ(mba.acquire(7, 1 << 20), sim.now());
  // Past the burst: delayed by deficit / rate.
  const sim::TimePs start = mba.acquire(7, 1 << 20);
  EXPECT_GT(start, sim.now());
  // 1MB at 1GB/s ~ 1.05ms.
  EXPECT_NEAR(sim::to_milliseconds(start - sim.now()), 1.0, 0.1);
  EXPECT_GT(mba.stats(7).throttle_delay, 0u);
}

TEST(TenantMba, NonPositiveRatesAreInert) {
  // A configured rate of zero (or below, or NaN) cannot refill a bucket,
  // and an infinite rate with no burst would start with inf * 0 = NaN
  // tokens; dividing by either casts an inf/NaN start time into
  // picoseconds. Such entries behave exactly like unthrottled tenants: an
  // infinite rate means "no limit".
  sim::Simulator sim;
  MbaConfig cfg;
  cfg.limit_bytes_per_sec[3] = 0.0;
  cfg.limit_bytes_per_sec[4] = -1e9;
  cfg.limit_bytes_per_sec[5] = std::numeric_limits<double>::quiet_NaN();
  cfg.limit_bytes_per_sec[6] = std::numeric_limits<double>::infinity();
  cfg.burst_seconds = 0;
  TenantBandwidthLimiter mba(sim, cfg);
  for (const accel::TenantId t : {3, 4, 5, 6}) {
    EXPECT_FALSE(mba.throttles(t)) << t;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(mba.acquire(t, 1 << 20), sim.now()) << t;
    }
    // Inert entries never accumulate accounting or delay.
    EXPECT_EQ(mba.stats(t).transfers, 0u) << t;
    EXPECT_EQ(mba.stats(t).throttle_delay, 0u) << t;
  }
}

TEST(TenantMba, RejectsInvalidBurst) {
  // A NaN burst made acquire() cast a NaN wait into picoseconds; an
  // infinite or negative one is no credit allowance at all.
  sim::Simulator sim;
  for (const double burst : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1e-3}) {
    MbaConfig cfg;
    cfg.limit_bytes_per_sec[1] = 1e9;
    cfg.burst_seconds = burst;
    try {
      TenantBandwidthLimiter mba(sim, cfg);
      ADD_FAILURE() << "burst " << burst << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("MbaConfig::burst_seconds"),
                std::string::npos)
          << e.what();
    }
  }
  MbaConfig zero;
  zero.burst_seconds = 0.0;
  EXPECT_NO_THROW({ TenantBandwidthLimiter ok(sim, zero); });
}

TEST(TenantMba, StatsQueryIsReadOnlyAcrossFork) {
  // Regression: stats() used to default-insert a bucket for a tenant that
  // had never acquired, so merely *observing* stats between checkpoint()
  // and restore() grew the tenant map and diverged forked timelines.
  sim::Simulator sim;
  MbaConfig cfg;
  cfg.limit_bytes_per_sec[2] = 1e9;
  TenantBandwidthLimiter mba(sim, cfg);
  (void)mba.acquire(2, 4096);

  const auto before = mba.checkpoint();
  // Query tenants never seen (including an unconfigured one): must return
  // the zeroed sentinel and leave no trace in the bucket map.
  EXPECT_EQ(mba.stats(7).transfers, 0u);
  EXPECT_EQ(mba.stats(7).bytes, 0u);
  EXPECT_EQ(mba.stats(7).throttle_delay, 0u);
  EXPECT_EQ(mba.stats(99).transfers, 0u);
  const auto after = mba.checkpoint();
  EXPECT_EQ(before.tenants.size(), after.tenants.size());
  EXPECT_EQ(after.tenants.count(7), 0u);
  EXPECT_EQ(after.tenants.count(99), 0u);

  // Fork equivalence: a timeline that observed stats and one that did not
  // behave identically after restore.
  mba.restore(before);
  const sim::TimePs a = mba.acquire(2, 1 << 20);
  mba.restore(before);
  (void)mba.stats(2);
  (void)mba.stats(50);
  const sim::TimePs b = mba.acquire(2, 1 << 20);
  EXPECT_EQ(a, b);
}

TEST(TenantMba, RefillClampsExactlyAtBurstAcrossIdleGaps) {
  // Satellite fix: the refill used to compute tokens + elapsed_s * rate
  // and clamp the *product*, so a long idle gap pushed a huge intermediate
  // through double precision. The clamp now compares elapsed time against
  // the time-to-fill, which is exact for arbitrarily long gaps. Boundary
  // gaps: zero, a quarter second (2^38 ps), and hours.
  const double rate = 1e9;        // 1 GB/s.
  const double burst_s = 0.0011;  // ~1.1 MB of credit.
  const auto run_gap = [&](sim::TimePs gap) {
    sim::Simulator sim;
    MbaConfig cfg;
    cfg.limit_bytes_per_sec[5] = rate;
    cfg.burst_seconds = burst_s;
    TenantBandwidthLimiter mba(sim, cfg);
    (void)mba.acquire(5, 1 << 20);  // Drain most of the burst.
    if (gap > 0) {
      sim.schedule_at(sim.now() + gap, [] {});
      sim.run();
    }
    // After any full-refill gap the bucket holds exactly the burst: one
    // 1MB transfer is immediate, and the next is delayed by the deficit.
    const sim::TimePs first = mba.acquire(5, 1 << 20);
    const sim::TimePs second = mba.acquire(5, 1 << 20);
    return std::pair<sim::TimePs, sim::TimePs>(first - sim.now(),
                                               second - sim.now());
  };

  // gap = 0: no refill — the second acquire of the pair pays ~2MB-burst.
  {
    sim::Simulator sim;
    MbaConfig cfg;
    cfg.limit_bytes_per_sec[5] = rate;
    cfg.burst_seconds = burst_s;
    TenantBandwidthLimiter mba(sim, cfg);
    const sim::TimePs t0 = mba.acquire(5, 1 << 20);
    EXPECT_EQ(t0, sim.now());  // Within burst.
    const sim::TimePs t1 = mba.acquire(5, 1 << 20);
    EXPECT_GT(t1, sim.now());  // Past it, with zero elapsed time.
  }

  // gap = 2^38 ps (~0.275s) and gap ~ 3 hours: both refill to exactly
  // the burst — identical post-gap behavior.
  const auto quarter = run_gap(sim::TimePs{1} << 38);
  const auto hours = run_gap(sim::seconds(3.0 * 3600.0));
  EXPECT_EQ(quarter.first, 0);  // Burst covers the first MB.
  EXPECT_EQ(hours.first, 0);
  EXPECT_GT(quarter.second, 0);  // Deficit delays the second.
  EXPECT_EQ(quarter.second, hours.second);  // Clamp is exact, not gap-sized.
  // The deficit is (2MB - burst) / rate.
  const double expect_s = (2.0 * (1 << 20) - rate * burst_s) / rate;
  EXPECT_NEAR(sim::to_seconds(quarter.second), expect_s, 1e-6);
}

TEST(TenantMba, BucketRefillsOverTime) {
  sim::Simulator sim;
  MbaConfig cfg;
  cfg.limit_bytes_per_sec[7] = 1e9;
  cfg.burst_seconds = 0.0011;
  TenantBandwidthLimiter mba(sim, cfg);
  (void)mba.acquire(7, 1 << 20);  // Drain the burst.
  EXPECT_GT(mba.acquire(7, 1 << 20), sim.now());
  // After 10ms the bucket is full again.
  sim.schedule_at(sim::milliseconds(10), [] {});
  sim.run();
  EXPECT_EQ(mba.acquire(7, 1 << 20), sim.now());
}

TEST(TenantMba, ThrottledChainSlowsOnlyThatTenant) {
  TraceLibrary lib;
  const auto tt = register_templates(lib);

  class Env : public ChainEnv {
   public:
    sim::TimePs op_cpu_cost(ChainContext&, accel::AccelType,
                            std::uint64_t) override {
      return sim::microseconds(1);
    }
    std::uint64_t transformed_size(accel::AccelType,
                                   std::uint64_t b) override {
      return b;
    }
    sim::TimePs remote_latency(ChainContext&, RemoteKind) override {
      return sim::microseconds(5);
    }
    std::uint64_t response_size(ChainContext&, RemoteKind) override {
      return 1024;
    }
  } env;

  auto run_tenant = [&](accel::TenantId tenant, bool throttle) {
    Machine machine{MachineConfig{}};
    EngineConfig cfg;
    if (throttle) {
      cfg.mba.limit_bytes_per_sec[tenant] = 5e7;  // 50 MB/s: tight.
      cfg.mba.burst_seconds = 1e-5;
    }
    AccelFlowEngine engine(machine, lib, cfg);
    ChainContext ctx;
    ctx.tenant = tenant;
    ctx.core = 0;
    ctx.initial_bytes = 2048;
    ctx.env = &env;
    ctx.rng.reseed(3);
    sim::TimePs done_at = 0;
    ctx.on_done = [&](const ChainResult&) {
      done_at = machine.sim().now();
    };
    engine.start_chain(&ctx, tt.t2);
    machine.sim().run();
    return done_at;
  };

  const sim::TimePs free_run = run_tenant(1, false);
  const sim::TimePs throttled = run_tenant(1, true);
  EXPECT_GT(throttled, 2 * free_run);
  // An unthrottled tenant on a machine with MBA configured for another
  // tenant is unaffected.
  Machine machine{MachineConfig{}};
  EngineConfig cfg;
  cfg.mba.limit_bytes_per_sec[9] = 5e7;
  AccelFlowEngine engine(machine, lib, cfg);
  ChainContext ctx;
  ctx.tenant = 1;
  ctx.core = 0;
  ctx.initial_bytes = 2048;
  ctx.env = &env;
  ctx.rng.reseed(3);
  sim::TimePs done_at = 0;
  ctx.on_done = [&](const ChainResult&) { done_at = machine.sim().now(); };
  engine.start_chain(&ctx, tt.t2);
  machine.sim().run();
  EXPECT_EQ(done_at, free_run);
}

}  // namespace
}  // namespace accelflow::core
