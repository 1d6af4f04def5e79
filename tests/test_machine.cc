/**
 * @file
 * Tests for the machine composition: chiplet organizations, placement,
 * ATM behavior, trace loading, and the Non-acc baseline's run of a chain
 * on a core (core::price_cpu_segment, shared with every CPU fallback).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/machine.h"
#include "core/orch_baselines.h"
#include "core/trace_templates.h"

namespace accelflow::core {
namespace {

using accel::AccelType;

TEST(ChipletAssignment, BaseDesignSplitsLdbFromTheRest) {
  const auto m = accel_chiplet_assignment(2);
  EXPECT_EQ(m[accel::index_of(AccelType::kLdb)], 0);
  for (const auto t : accel::kAllAccelTypes) {
    if (t == AccelType::kLdb) continue;
    EXPECT_EQ(m[accel::index_of(t)], 1) << name_of(t);
  }
}

TEST(ChipletAssignment, AllOrganizationsKeepLdbWithCores) {
  for (const int n : {1, 2, 3, 4, 6}) {
    const auto m = accel_chiplet_assignment(n);
    EXPECT_EQ(m[accel::index_of(AccelType::kLdb)], 0) << n;
    for (const auto t : accel::kAllAccelTypes) {
      EXPECT_LT(m[accel::index_of(t)], n) << n << " " << name_of(t);
    }
  }
}

TEST(ChipletAssignment, SixChipletsMatchPaperGrouping) {
  // TCP | (De)Encr | RPC | (De)Ser | (De)Cmp in separate chiplets.
  const auto m = accel_chiplet_assignment(6);
  EXPECT_EQ(m[accel::index_of(AccelType::kEncr)],
            m[accel::index_of(AccelType::kDecr)]);
  EXPECT_EQ(m[accel::index_of(AccelType::kSer)],
            m[accel::index_of(AccelType::kDser)]);
  EXPECT_EQ(m[accel::index_of(AccelType::kCmp)],
            m[accel::index_of(AccelType::kDcmp)]);
  EXPECT_NE(m[accel::index_of(AccelType::kTcp)],
            m[accel::index_of(AccelType::kEncr)]);
  EXPECT_NE(m[accel::index_of(AccelType::kRpc)],
            m[accel::index_of(AccelType::kSer)]);
}

TEST(ChipletAssignment, RejectsUnsupportedCounts) {
  EXPECT_THROW(accel_chiplet_assignment(5), std::invalid_argument);
  EXPECT_THROW(accel_chiplet_assignment(0), std::invalid_argument);
}

TEST(Machine, PlacesAcceleratorsOnTheirChiplets) {
  for (const int n : {1, 2, 3, 4, 6}) {
    MachineConfig cfg;
    cfg.num_chiplets = n;
    Machine m(cfg);
    const auto assignment = accel_chiplet_assignment(n);
    for (const auto t : accel::kAllAccelTypes) {
      EXPECT_EQ(m.accel(t).location().chiplet,
                assignment[accel::index_of(t)])
          << n << " " << name_of(t);
    }
  }
}

TEST(Machine, CoreLocationsAreDistinct) {
  Machine m{MachineConfig{}};
  std::set<std::pair<int, int>> seen;
  for (int c = 0; c < 36; ++c) {
    const auto loc = m.core_location(c);
    EXPECT_EQ(loc.chiplet, 0);
    EXPECT_TRUE(seen.insert({loc.coord.x, loc.coord.y}).second) << c;
  }
}

/** Runs `f` and returns the std::invalid_argument message it throws. */
template <typename F>
std::string invalid_argument_of(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no exception)";
}

TEST(Machine, RejectsInvalidCountsAndRates) {
  // A machine without PEs, queue slots, cores or DMA engines would
  // complete zero requests silently (or index an empty engine pool), and a
  // zero or non-finite rate casts an infinite time into picoseconds; the
  // constructor and the sweep setters name the bad field.
  for (const int pes : {0, -3}) {
    MachineConfig cfg;
    cfg.pes_per_accel = pes;
    EXPECT_NE(invalid_argument_of([&] { Machine m(cfg); })
                  .find("pes_per_accel"),
              std::string::npos)
        << pes;
  }
  MachineConfig cfg;
  cfg.accel_queue_entries = 0;
  EXPECT_NE(invalid_argument_of([&] { Machine m(cfg); })
                .find("accel_queue_entries"),
            std::string::npos);
  const double bad_rates[] = {0.0, -1.0, std::nan(""),
                              std::numeric_limits<double>::infinity()};
  for (const double rate : bad_rates) {
    MachineConfig speed;
    speed.speedup_scale = rate;
    EXPECT_NE(invalid_argument_of([&] { Machine m(speed); })
                  .find("speedup_scale"),
              std::string::npos)
        << rate;
    MachineConfig link;
    link.inter_chiplet_gbps = rate;
    EXPECT_NE(invalid_argument_of([&] { Machine m(link); })
                  .find("inter_chiplet_gbps"),
              std::string::npos)
        << rate;
    MachineConfig clock;
    clock.cpu.clock_ghz = rate;
    EXPECT_NE(invalid_argument_of([&] { Machine m(clock); })
                  .find("cpu.clock_ghz"),
              std::string::npos)
        << rate;
    MachineConfig tax;
    tax.cpu.tax_speed = rate;
    EXPECT_NE(invalid_argument_of([&] { Machine m(tax); })
                  .find("cpu.tax_speed"),
              std::string::npos)
        << rate;
    MachineConfig app;
    app.cpu.app_speed = rate;
    EXPECT_NE(invalid_argument_of([&] { Machine m(app); })
                  .find("cpu.app_speed"),
              std::string::npos)
        << rate;
  }
  for (const int count : {0, -1}) {
    MachineConfig cores;
    cores.cpu.num_cores = count;
    EXPECT_NE(invalid_argument_of([&] { Machine m(cores); })
                  .find("cpu.num_cores"),
              std::string::npos)
        << count;
    MachineConfig engines;
    engines.dma.num_engines = count;
    EXPECT_NE(invalid_argument_of([&] { Machine m(engines); })
                  .find("dma.num_engines"),
              std::string::npos)
        << count;
  }

  Machine m{MachineConfig{}};
  EXPECT_NE(invalid_argument_of([&] { m.set_pes_per_accel(0); })
                .find("pes_per_accel"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([&] { m.set_pes_for(AccelType::kTcp, 0); })
                .find("pes"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([&] { m.set_accel_queue_entries(0); })
                .find("accel_queue_entries"),
            std::string::npos);
  EXPECT_NE(invalid_argument_of([&] { m.set_dma_engines(0); })
                .find("dma.num_engines"),
            std::string::npos);
  for (const double rate : bad_rates) {
    EXPECT_NE(invalid_argument_of([&] { m.set_speedup_scale(rate); })
                  .find("speedup_scale"),
              std::string::npos)
        << rate;
  }
  // A rejected setter leaves the machine as it was.
  EXPECT_EQ(m.config().pes_per_accel, MachineConfig{}.pes_per_accel);
  EXPECT_EQ(m.config().accel_queue_entries,
            MachineConfig{}.accel_queue_entries);
  EXPECT_EQ(m.config().speedup_scale, MachineConfig{}.speedup_scale);
  EXPECT_EQ(m.config().dma.num_engines, MachineConfig{}.dma.num_engines);
  EXPECT_EQ(m.dma().num_engines(), MachineConfig{}.dma.num_engines);
}

TEST(Machine, GenerationScalingIsMonotone) {
  MachineConfig cfg;
  cfg.apply_generation(Generation::kHaswell);
  const double hw = cfg.cpu.app_speed;
  cfg.apply_generation(Generation::kEmeraldRapids);
  EXPECT_GT(cfg.cpu.app_speed, hw);
  // Tax speeds compress toward 1 (memory-bound code barely scales).
  EXPECT_LT(std::abs(cfg.cpu.tax_speed - 1.0),
            std::abs(cfg.cpu.app_speed - 1.0));
}

TEST(Atm, StoreLoadRoundTrip) {
  Atm atm(2.4, 20.0, noc::Location{1, {2, 2}});
  Trace t;
  append_invoke(t, AccelType::kSer);
  append_end_notify(t);
  EXPECT_FALSE(atm.contains(5));
  atm.store(5, t);
  EXPECT_TRUE(atm.contains(5));
  EXPECT_EQ(atm.load(5).word, t.word);
  EXPECT_EQ(atm.stats().reads, 1u);
  EXPECT_EQ(atm.stats().writes, 1u);
  // 20 cycles at 2.4GHz ~ 8.3ns.
  EXPECT_NEAR(sim::to_nanoseconds(atm.read_latency()), 8.33, 0.1);
}

TEST(Machine, LoadTracesInstallsTemplates) {
  Machine m{MachineConfig{}};
  TraceLibrary lib;
  const auto tt = register_templates(lib);
  m.load_traces(lib);
  EXPECT_TRUE(m.atm().contains(tt.t1));
  EXPECT_TRUE(m.atm().contains(tt.t12));
  EXPECT_EQ(m.atm().load(tt.t2).word, lib.get(tt.t2).word);
}

class FixedEnv : public ChainEnv {
 public:
  sim::TimePs op_cpu_cost(ChainContext&, accel::AccelType,
                          std::uint64_t) override {
    return sim::microseconds(3);
  }
  std::uint64_t transformed_size(accel::AccelType,
                                 std::uint64_t b) override {
    return b;
  }
  sim::TimePs remote_latency(ChainContext&, RemoteKind) override {
    return sim::microseconds(20);
  }
  std::uint64_t response_size(ChainContext&, RemoteKind) override {
    return 1024;
  }
};

/** Runs `first` under the Non-acc baseline: every op on ctx's core. */
ChainResult run_non_acc(Machine& m, const TraceLibrary& lib, AtmAddr first,
                        ChainContext& ctx, BaselineCosts costs = {},
                        BaselineStats* stats = nullptr) {
  BaselineOrchestrator orch(BaselineMode::kNonAcc, m, lib,
                            /*relief_central_queue=*/false, costs);
  ChainResult result;
  bool done = false;
  ctx.on_done = [&](const ChainResult& r) {
    done = true;
    result = r;
  };
  orch.run_chain(&ctx, first);
  m.sim().run();
  EXPECT_TRUE(done);
  if (stats != nullptr) *stats = orch.stats();
  return result;
}

TEST(NonAccBaseline, RunsOpsOnTheCore) {
  Machine m{MachineConfig{}};
  TraceLibrary lib;
  const auto tt = register_templates(lib);
  FixedEnv env;
  ChainContext ctx;
  ctx.core = 3;
  ctx.env = &env;
  ctx.rng.reseed(1);
  BaselineStats stats;
  const ChainResult r = run_non_acc(m, lib, tt.t2, ctx, {}, &stats);
  EXPECT_FALSE(r.timeout);
  // 4 ops x 3us on the core.
  EXPECT_GE(m.cores().stats().busy_time, sim::microseconds(12));
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(ctx.accel_invocations, 4u);
}

TEST(NonAccBaseline, WaitsReleaseTheCore) {
  Machine m{MachineConfig{}};
  TraceLibrary lib;
  const auto tt = register_templates(lib);
  FixedEnv env;
  ChainContext ctx;
  ctx.core = 0;
  ctx.flags.hit = true;
  ctx.env = &env;
  ctx.rng.reseed(1);
  run_non_acc(m, lib, tt.t4, ctx);
  // Elapsed includes the 20us remote wait; core busy time does not.
  EXPECT_GE(m.sim().now(), sim::microseconds(20 + 7 * 3));
  EXPECT_LT(m.cores().stats().busy_time, sim::microseconds(20 + 7 * 3));
}

TEST(NonAccBaseline, TimesOutOnSlowRemotes) {
  Machine m{MachineConfig{}};
  TraceLibrary lib;
  const auto tt = register_templates(lib);
  FixedEnv env;
  ChainContext ctx;
  ctx.core = 0;
  ctx.env = &env;
  ctx.rng.reseed(1);
  BaselineCosts costs;
  costs.response_timeout_ms = 0.005;  // 5us: tighter than the remote.
  BaselineStats stats;
  const ChainResult r = run_non_acc(m, lib, tt.t4, ctx, costs, &stats);
  EXPECT_TRUE(r.timeout);
  EXPECT_EQ(stats.timeouts, 1u);
}

TEST(NonAccBaseline, TaxSpeedScalesCpuTime) {
  MachineConfig slow_cfg;
  slow_cfg.cpu.tax_speed = 0.5;
  Machine slow(slow_cfg);
  Machine fast{MachineConfig{}};
  TraceLibrary lib;
  const auto tt = register_templates(lib);
  FixedEnv env;
  for (Machine* m : {&slow, &fast}) {
    ChainContext ctx;
    ctx.core = 0;
    ctx.env = &env;
    ctx.rng.reseed(1);
    run_non_acc(*m, lib, tt.t2, ctx);
  }
  EXPECT_NEAR(static_cast<double>(slow.cores().stats().busy_time),
              2.0 * static_cast<double>(fast.cores().stats().busy_time),
              1e7);
}

}  // namespace
}  // namespace accelflow::core
