/**
 * @file
 * Exactness tests for the deferred calendar events (DESIGN.md §10, §14).
 *
 * Output-slot releases are reclaimed lazily and the hop watchdog keeps one
 * timer per chain; both give each deferred event the (time, seq) stamp its
 * eager calendar event would have had, so every timeline must stay bit-
 * identical to the eager implementation. The pinned values below were
 * recorded at commit c09f850, the last one that posted a calendar event
 * per output-slot release and cancelled/re-posted the watchdog on every
 * hop, before any of this code changed. ChaosDrill.ReplaysBitIdentically
 * compares one binary against itself and cannot catch a stamp change;
 * these tests can.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/invariant_checker.h"
#include "core/engine.h"
#include "core/machine.h"
#include "core/trace_templates.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "sim/arena.h"
#include "workload/experiment.h"
#include "workload/suites.h"

namespace accelflow::core {
namespace {

using accel::AccelType;

/** FNV-1a over 64-bit words: a compact digest of a completion timeline. */
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

/** Deterministic environment: fixed costs and latencies. */
class FixedEnv : public ChainEnv {
 public:
  sim::TimePs op_cpu_cost(ChainContext&, AccelType, std::uint64_t) override {
    return op_cost;
  }
  std::uint64_t transformed_size(AccelType, std::uint64_t bytes) override {
    return bytes;
  }
  sim::TimePs remote_latency(ChainContext&, RemoteKind) override {
    return sim::microseconds(10);
  }
  std::uint64_t response_size(ChainContext&, RemoteKind) override {
    return 1024;
  }

  sim::TimePs op_cost = sim::microseconds(2);
};

/** Fills the fields every test chain shares. */
void init_ctx(ChainContext& ctx, accel::RequestId id, ChainEnv* env) {
  ctx.request = id;
  ctx.tenant = 1;
  ctx.core = static_cast<int>(id % 4);
  ctx.initial_bytes = 1024;
  ctx.env = env;
  ctx.rng.reseed(id);
}

/** Sums the output-queue release counters and PE blocked time. */
struct AccelTotals {
  std::uint64_t releases = 0;
  std::uint64_t occupancy = 0;
  sim::TimePs blocked = 0;
};

AccelTotals accel_totals(Machine& machine) {
  AccelTotals t;
  for (const AccelType a : accel::kAllAccelTypes) {
    t.releases += machine.accel(a).output_stats().releases;
    t.occupancy += machine.accel(a).output_occupancy();
    t.blocked += machine.accel(a).stats().pe_blocked_time;
  }
  return t;
}

// --- Blocked deposits: the only path that posts release events ----------

TEST(EventExactness, BlockedDepositRunMatchesEagerImplementation) {
  // One PE and two output slots per accelerator, with branch resolution
  // round-tripping to the manager (the Fig. 13 "Direct" ablation): every
  // Dser output holds its slot for microseconds, so completing PEs find
  // the output queue full and block. Blocked PEs wake only through posted
  // release events; this pins the whole timeline they drive.
  MachineConfig mc;
  mc.pes_per_accel = 1;
  mc.accel_queue_entries = 2;
  Machine machine(mc);
  TraceLibrary lib;
  const TraceTemplates tt = register_templates(lib);
  FixedEnv env;
  env.op_cost = sim::nanoseconds(400);
  EngineConfig ec;
  ec.dispatcher_branches = false;
  AccelFlowEngine engine(machine, lib, ec);

  constexpr int kChains = 300;
  std::vector<std::unique_ptr<ChainContext>> ctxs;
  Digest digest;
  int completed = 0;
  for (int i = 0; i < kChains; ++i) {
    auto ctx = std::make_unique<ChainContext>();
    init_ctx(*ctx, static_cast<accel::RequestId>(i + 1), &env);
    ctx->flags.compressed = (i % 3) == 0;
    ctx->on_done = [&digest, &completed, i](const ChainResult& r) {
      ++completed;
      digest.add(static_cast<std::uint64_t>(i));
      digest.add(r.completed_at);
      digest.add(r.cpu_fallback);
    };
    ChainContext* raw = ctx.get();
    const AtmAddr first = (i % 2) == 0 ? tt.t1 : tt.t2;
    machine.sim().schedule_at(sim::nanoseconds(150) * i,
                              [&engine, raw, first] {
                                engine.start_chain(raw, first);
                              });
    ctxs.push_back(std::move(ctx));
  }
  machine.sim().run();

  const AccelTotals totals = accel_totals(machine);
  EXPECT_EQ(completed, kChains);
  ASSERT_GT(totals.blocked, 0u) << "no PE ever blocked on output space";
  EXPECT_EQ(totals.occupancy, 0u);
  // Recorded with the eager implementation (see the file comment).
  EXPECT_EQ(digest.h, 13857634692910682312ull);
  EXPECT_EQ(totals.releases, 1068u);
  EXPECT_EQ(totals.blocked, 246799168u);
  EXPECT_EQ(machine.sim().now(), 265101054u);
}

TEST(EventExactness, UnblockedReleasesNeverReachTheCalendar) {
  Machine machine{MachineConfig{}};
  TraceLibrary lib;
  const TraceTemplates tt = register_templates(lib);
  FixedEnv env;
  AccelFlowEngine engine(machine, lib, EngineConfig{});
  ChainContext ctx;
  init_ctx(ctx, 1, &env);
  engine.start_chain(&ctx, tt.t2);  // Ser RPC Encr TCP END.
  machine.sim().run();

  obs::MetricsRegistry reg;
  machine.snapshot_metrics(reg);
  const std::uint64_t scheduled = machine.sim().kernel_stats().scheduled;
  EXPECT_EQ(reg.get("sim.scheduled"), static_cast<double>(scheduled));
  EXPECT_EQ(reg.get("sim.cancelled"), 0.0);
  EXPECT_EQ(accel_totals(machine).releases, 4u);
  // At c09f850 this chain scheduled 14 events; its four output-slot
  // releases now only reserve stamps.
  EXPECT_EQ(scheduled, 14u - 4u);
}

// --- Fault-injected run: watchdog decisions at the exact eager stamps ---

TEST(EventExactness, FaultInjectedRunMatchesEagerImplementation) {
  workload::ExperimentConfig cfg;
  cfg.kind = OrchKind::kAccelFlow;
  cfg.specs = workload::social_network_specs();
  cfg.load_model = workload::LoadGenerator::Model::kPoisson;
  cfg.per_service_rps.assign(cfg.specs.size(), 8000.0);
  cfg.warmup = sim::milliseconds(1);
  cfg.measure = sim::milliseconds(10);
  cfg.drain = sim::milliseconds(6);
  cfg.seed = 5;
  // Kills dense enough that losses run three deep: quarantine, probation
  // and recovery all happen, each decided at a watchdog stamp.
  cfg.faults = fault::FaultPlan::uniform(0.03);
  for (auto& r : cfg.faults.accel) r.pe_kill_prob = 0.2;

  const workload::ExperimentResult out = workload::run_experiment(cfg);

  double p99 = 0.0;
  for (const auto& s : out.services) p99 = std::max(p99, s.p99_us);
  EXPECT_GT(out.engine.hop_timeouts, 0u);
  EXPECT_GT(out.engine.unhealthy_transitions, 0u);
  EXPECT_GT(out.engine.probation_recoveries, 0u);
  // Recorded with the eager implementation (see the file comment).
  EXPECT_EQ(out.engine.hop_probes, 710u);
  EXPECT_EQ(out.engine.hop_timeouts, 5293u);
  EXPECT_EQ(out.engine.hop_retries, 5272u);
  EXPECT_EQ(out.engine.unhealthy_transitions, 138u);
  EXPECT_EQ(out.engine.probation_recoveries, 119u);
  EXPECT_EQ(p99, 2181.0380789999999);
}

// --- Edge: the final chain leaves through the quarantine fallback -------

TEST(EventExactness, QuarantineFallbackOnFinalChainDrainsAtEagerTime) {
  // Every TCP job is killed, so the first chains lose their TCP hop until
  // TCP is quarantined. The final chain then reaches forward() towards
  // the quarantined TCP from Encr's output dispatcher: the CPU runs the
  // last op and the chain ends before the dispatcher's launch time. Its
  // output-slot release is the last event of the run; sim.run() must
  // drain to it, as it did when every release was a calendar event.
  Machine machine{MachineConfig{}};
  TraceLibrary lib;
  const TraceTemplates tt = register_templates(lib);
  FixedEnv env;
  env.op_cost = 1;
  fault::FaultPlan plan;
  const auto tcp = static_cast<int>(accel::index_of(AccelType::kTcp));
  plan.windows.push_back(fault::FaultWindow{fault::FaultSite::kPeKill, tcp,
                                            0, sim::kTimeNever, 1.0});
  fault::FaultInjector injector(machine.sim(), plan);
  machine.set_fault_hooks(&injector);
  AccelFlowEngine engine(machine, lib, EngineConfig{});
  check::InvariantChecker checker;
  checker.attach(machine, lib);

  constexpr int kEarly = 3;
  std::vector<std::unique_ptr<ChainContext>> ctxs;
  int early_done = 0;
  sim::TimePs final_completed_at = 0;
  auto final_ctx = std::make_unique<ChainContext>();
  init_ctx(*final_ctx, 100, &env);
  final_ctx->on_done = [&final_completed_at](const ChainResult& r) {
    final_completed_at = r.completed_at;
  };
  for (int i = 0; i < kEarly; ++i) {
    auto ctx = std::make_unique<ChainContext>();
    init_ctx(*ctx, static_cast<accel::RequestId>(i + 1), &env);
    ctx->on_done = [&](const ChainResult&) {
      if (++early_done == kEarly) engine.start_chain(final_ctx.get(), tt.t2);
    };
    engine.start_chain(ctx.get(), tt.t2);  // Ser RPC Encr TCP END.
    ctxs.push_back(std::move(ctx));
  }
  machine.sim().run();
  checker.final_audit();

  EXPECT_EQ(early_done, kEarly);
  ASSERT_GT(final_completed_at, 0u) << "final chain never finished";
  EXPECT_EQ(engine.health(AccelType::kTcp).state,
            AccelFlowEngine::Health::State::kUnhealthy);
  EXPECT_GE(engine.stats().health_fallbacks, 1u);
  // The run ends at the release, after the chain itself finished.
  EXPECT_GT(machine.sim().now(), final_completed_at);
  EXPECT_EQ(accel_totals(machine).occupancy, 0u);
  EXPECT_TRUE(checker.ok()) << checker.report();
  // Recorded with the eager implementation (see the file comment).
  EXPECT_EQ(machine.sim().now(), 55958772u);
  checker.detach();
}

// --- Lifetime: stale watchdog timers and recycled contexts --------------

/** What a watchdog-heavy run produced; compared across context owners. */
struct LifetimeRun {
  std::uint64_t digest = 0;
  std::uint64_t probes = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  int completed = 0;
  bool checker_ok = false;
  std::size_t pending = 0;
  sim::TimePs tail = 0;  ///< Run end minus the last chain completion.
};

/**
 * Runs waves of short chains under injected stalls and kills. With
 * `reuse`, contexts come from an arena and each completion immediately
 * hands its storage to the next chain; otherwise every context is heap-
 * allocated and freed at completion, so a watchdog timer outliving its
 * chain is a use-after-free the sanitizers report.
 */
LifetimeRun run_lifetime(bool reuse) {
  Machine machine{MachineConfig{}};
  TraceLibrary lib;
  const TraceTemplates tt = register_templates(lib);
  FixedEnv env;
  env.op_cost = sim::nanoseconds(500);
  fault::FaultPlan plan = fault::FaultPlan::uniform(0.05, 0xBEEF);
  // Stalls outlast the 50 us watchdog: probes, doubled timeouts, resets.
  for (auto& r : plan.accel) r.pe_stall_us = 80.0;
  fault::FaultInjector injector(machine.sim(), plan);
  machine.set_fault_hooks(&injector);
  AccelFlowEngine engine(machine, lib, EngineConfig{});
  check::InvariantChecker checker;
  checker.attach(machine, lib);

  sim::Arena<ChainContext> arena;
  LifetimeRun run;
  Digest digest;
  constexpr int kChains = 400;
  int started = 0;
  sim::TimePs last_completed_at = 0;
  std::function<void()> start_next = [&] {
    const int i = started++;
    ChainContext* ctx = reuse ? arena.create() : new ChainContext();
    init_ctx(*ctx, static_cast<accel::RequestId>(i + 1), &env);
    ctx->on_done = [&, ctx, i](const ChainResult& r) {
      ++run.completed;
      digest.add(static_cast<std::uint64_t>(i));
      digest.add(r.completed_at);
      last_completed_at = r.completed_at;
      // The context dies here, with its first hop's watchdog timer (long
      // superseded, never fired) still on the calendar unless completion
      // cancelled it.
      if (reuse) {
        arena.destroy(ctx);
      } else {
        delete ctx;
      }
      if (started < kChains) start_next();
    };
    engine.start_chain(ctx, (i % 2) == 0 ? tt.t2 : tt.t3);
  };
  for (int i = 0; i < 8; ++i) start_next();  // Eight chains in flight.
  machine.sim().run();
  checker.final_audit();
  checker.detach();

  run.digest = digest.h;
  run.probes = engine.stats().hop_probes;
  run.timeouts = engine.stats().hop_timeouts;
  run.retries = engine.stats().hop_retries;
  run.checker_ok = checker.ok();
  run.pending = machine.sim().pending_events();
  run.tail = machine.sim().now() - last_completed_at;
  return run;
}

TEST(EventExactness, StaleWatchdogTimersDieWithTheirChain) {
  const LifetimeRun fresh = run_lifetime(/*reuse=*/false);
  const LifetimeRun reused = run_lifetime(/*reuse=*/true);
  EXPECT_EQ(fresh.completed, 400);
  EXPECT_TRUE(fresh.checker_ok);
  EXPECT_EQ(fresh.pending, 0u);
  // Nothing of a finished chain runs on: the calendar drains within the
  // last dispatcher's FSM time, not at some dead chain's watchdog.
  EXPECT_LT(fresh.tail, sim::microseconds(1));
  // The run really exercised the watchdog, not just its arming.
  EXPECT_GT(fresh.probes, 0u);
  EXPECT_GT(fresh.timeouts, 0u);
  // Recycled storage must not inherit a dead chain's timer.
  EXPECT_EQ(reused.completed, fresh.completed);
  EXPECT_EQ(reused.digest, fresh.digest);
  EXPECT_EQ(reused.probes, fresh.probes);
  EXPECT_EQ(reused.timeouts, fresh.timeouts);
  EXPECT_EQ(reused.retries, fresh.retries);
  EXPECT_TRUE(reused.checker_ok);
  EXPECT_EQ(reused.pending, 0u);
  EXPECT_EQ(reused.tail, fresh.tail);
}

}  // namespace
}  // namespace accelflow::core
