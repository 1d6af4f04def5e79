/**
 * @file
 * Tests for the checkpoint-and-fork machinery (DESIGN.md §13): the arena
 * allocator, SweepSession's bit-equality contract (a forked point must
 * match a fresh straight-through session of the same point, with and
 * without a tracer, across thread counts), and the invariant checker's
 * state surviving a fork — including the negative case where forking the
 * machine *without* forking the checker rewinds simulated time under it,
 * which the checker must catch.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant_checker.h"
#include "core/engine.h"
#include "core/machine.h"
#include "core/trace_templates.h"
#include "obs/tracer.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "workload/experiment.h"
#include "workload/suites.h"
#include "workload/sweep.h"

namespace accelflow::workload {
namespace {

// ---------------------------------------------------------------------------
// Arena

struct Probe {
  int value = 0;
  int* dtor_count = nullptr;
  Probe(int v, int* d) : value(v), dtor_count(d) {}
  ~Probe() {
    if (dtor_count != nullptr) ++*dtor_count;
  }
};

TEST(Arena, CreateDestroyTracksLiveCount) {
  sim::Arena<Probe> arena;
  int dtors = 0;
  Probe* a = arena.create(1, &dtors);
  Probe* b = arena.create(2, &dtors);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(a->value, 1);
  EXPECT_EQ(b->value, 2);
  arena.destroy(a);
  EXPECT_EQ(dtors, 1);
  EXPECT_EQ(arena.live(), 1u);
  arena.destroy(b);
  EXPECT_EQ(dtors, 2);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(Arena, ClearDestroysLeftovers) {
  sim::Arena<Probe> arena;
  int dtors = 0;
  for (int i = 0; i < 100; ++i) arena.create(i, &dtors);
  EXPECT_EQ(arena.live(), 100u);
  EXPECT_GE(arena.capacity(), 100u);
  arena.clear();
  EXPECT_EQ(dtors, 100);
  EXPECT_EQ(arena.live(), 0u);
  // Slabs are retained: capacity does not shrink.
  EXPECT_GE(arena.capacity(), 100u);
}

TEST(Arena, ClearRestoresDeterministicAddressSequence) {
  // The determinism contract: after clear(), the same create/destroy
  // sequence hands out the same addresses — forked runs see identical
  // pointer values, so even pointer-keyed containers iterate identically.
  sim::Arena<Probe> arena;
  std::vector<Probe*> first;
  for (int i = 0; i < 150; ++i) first.push_back(arena.create(i, nullptr));
  arena.destroy(first[7]);
  arena.destroy(first[140]);
  Probe* reused = arena.create(7, nullptr);  // LIFO: first[140]'s slot.
  EXPECT_EQ(reused, first[140]);
  arena.clear();
  std::vector<Probe*> second;
  for (int i = 0; i < 150; ++i) second.push_back(arena.create(i, nullptr));
  for (int i = 0; i < 150; ++i) EXPECT_EQ(second[i], first[i]) << i;
}

// ---------------------------------------------------------------------------
// SweepSession bit-equality

/** Small but non-trivial config, sized like the determinism matrix. */
ExperimentConfig fork_config(core::OrchKind kind = core::OrchKind::kAccelFlow) {
  ExperimentConfig cfg;
  cfg.kind = kind;
  cfg.specs = social_network_specs();
  cfg.rps_per_service = 3000.0;
  cfg.warmup = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(3);
  cfg.drain = sim::milliseconds(2);
  cfg.seed = 42;
  return cfg;
}

/** The stats that must match bit for bit across fork and straight-through. */
void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.services.size(), b.services.size()) << what;
  for (std::size_t s = 0; s < a.services.size(); ++s) {
    EXPECT_EQ(a.services[s].completed, b.services[s].completed) << what;
    EXPECT_EQ(a.services[s].failed, b.services[s].failed) << what;
    EXPECT_EQ(a.services[s].fallbacks, b.services[s].fallbacks) << what;
    // Doubles compared exactly: bit-identical, not approximately equal.
    EXPECT_EQ(a.services[s].mean_us, b.services[s].mean_us) << what;
    EXPECT_EQ(a.services[s].p50_us, b.services[s].p50_us) << what;
    EXPECT_EQ(a.services[s].p99_us, b.services[s].p99_us) << what;
  }
  EXPECT_EQ(a.elapsed, b.elapsed) << what;
  EXPECT_EQ(a.core_busy, b.core_busy) << what;
  EXPECT_EQ(a.accel_busy, b.accel_busy) << what;
  EXPECT_EQ(a.dispatcher_busy, b.dispatcher_busy) << what;
  EXPECT_EQ(a.dma_busy, b.dma_busy) << what;
  EXPECT_EQ(a.accel_invocations, b.accel_invocations) << what;
  EXPECT_EQ(a.interrupts, b.interrupts) << what;
  EXPECT_EQ(a.overflow_enqueues, b.overflow_enqueues) << what;
  EXPECT_EQ(a.tlb_lookups, b.tlb_lookups) << what;
  EXPECT_EQ(a.page_faults, b.page_faults) << what;
}

TEST(SweepSession, ForkedPointMatchesFreshSessionBitForBit) {
  // Session A runs [X, Y, X]; session B runs only [X]. All three X results
  // must be identical: earlier points must leave no residue, and forking
  // must equal straight-through. Every orchestrator kind restores its own
  // state (RELIEF's central-queue budget, Cohort's draw stream, ...).
  const SweepPoint x{1.0, {}};
  const SweepPoint y{1.6, {}};

  for (std::size_t k = 0; k < core::kNumOrchKinds; ++k) {
    const auto kind = static_cast<core::OrchKind>(k);
    const std::string name(core::name_of(kind));
    SweepSession a(fork_config(kind));
    a.prepare();
    const ExperimentResult ax1 = a.run_point(x);
    const ExperimentResult ay = a.run_point(y);
    const ExperimentResult ax2 = a.run_point(x);

    SweepSession b(fork_config(kind));
    b.prepare();
    const ExperimentResult bx = b.run_point(x);

    expect_identical(ax1, ax2,
                     name + ": same session, point re-run after divergence");
    expect_identical(ax1, bx, name + ": forked vs fresh session");
    // Sanity that the measurement is non-trivial and the load points
    // differ.
    EXPECT_GT(ax1.services[0].completed, 0u) << name;
    EXPECT_NE(ay.services[0].completed, ax1.services[0].completed) << name;
  }
}

TEST(SweepSession, MachineMutationIsUndoneByTheNextRestore) {
  // A PE-count divergence (Fig. 19 style) must not leak into later points,
  // and the mutated point itself must be reproducible.
  const SweepPoint base{1.0, {}};
  const SweepPoint halved{
      1.0, [](core::Machine& m) { m.set_pes_per_accel(4); }};

  SweepSession a(fork_config());
  a.prepare();
  const ExperimentResult base1 = a.run_point(base);
  const ExperimentResult mut1 = a.run_point(halved);
  const ExperimentResult base2 = a.run_point(base);
  const ExperimentResult mut2 = a.run_point(halved);

  expect_identical(base1, base2, "base point after a mutated point");
  expect_identical(mut1, mut2, "mutated point re-run");
  // Halving PEs must actually change behavior somewhere measurable.
  EXPECT_NE(mut1.avg_p99_us, base1.avg_p99_us);
}

TEST(SweepSession, TracerAttachmentDoesNotPerturbResults) {
  // Tracing is observation only: a traced forked run must be bit-identical
  // to an untraced one, and the tracer must actually capture spans.
  SweepSession plain(fork_config());
  plain.prepare();
  const ExperimentResult untraced = plain.run_point({1.0, {}});

  obs::Tracer tracer;
  ExperimentConfig cfg = fork_config();
  cfg.tracer = &tracer;
  SweepSession traced(cfg);
  traced.prepare();
  const ExperimentResult result = traced.run_point({1.0, {}});

  expect_identical(untraced, result, "traced vs untraced fork");
  EXPECT_GT(tracer.size(), 0u);
}

TEST(SweepSession, ForkTimeIsAfterWarmupAndStable) {
  SweepSession s(fork_config());
  EXPECT_FALSE(s.prepared());
  s.prepare();
  EXPECT_TRUE(s.prepared());
  EXPECT_GE(s.fork_time(), fork_config().warmup);
  const sim::TimePs t = s.fork_time();
  (void)s.run_point({1.2, {}});
  EXPECT_EQ(s.fork_time(), t);  // The fork point never moves.
}

TEST(RunForkedSweeps, MatchesSerialSessionsAcrossThreadCounts) {
  const std::vector<ExperimentConfig> groups = {
      fork_config(core::OrchKind::kAccelFlow),
      fork_config(core::OrchKind::kCpuCentric)};
  const std::vector<std::vector<SweepPoint>> points = {
      {{0.8, {}}, {1.0, {}}, {1.4, {}}},
      {{1.0, {}}, {1.4, {}}, {0.8, {}}}};

  // Reference: one serial session per group.
  std::vector<std::vector<ExperimentResult>> serial;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SweepSession session(groups[g]);
    session.prepare();
    std::vector<ExperimentResult> out;
    for (const SweepPoint& p : points[g]) out.push_back(session.run_point(p));
    serial.push_back(std::move(out));
  }

  const char* saved = std::getenv("AF_BENCH_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  for (const char* threads : {"1", "4"}) {
    setenv("AF_BENCH_THREADS", threads, 1);
    const auto forked = run_forked_sweeps(groups, points);
    ASSERT_EQ(forked.size(), serial.size());
    for (std::size_t g = 0; g < serial.size(); ++g) {
      ASSERT_EQ(forked[g].size(), serial[g].size());
      for (std::size_t p = 0; p < serial[g].size(); ++p) {
        expect_identical(serial[g][p], forked[g][p],
                         std::string("threads=") + threads + " group " +
                             std::to_string(g) + " point " +
                             std::to_string(p));
      }
    }
  }
  if (saved != nullptr) {
    setenv("AF_BENCH_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("AF_BENCH_THREADS");
  }
}

// ---------------------------------------------------------------------------
// Checker state across forks

TEST(CheckerFork, EveryForkedPointIsAuditedIndependently) {
  // An explicit checker rides through several forked points; each point's
  // final audit must come back clean even though request ids and flow ids
  // repeat across the forked timelines.
  check::InvariantChecker checker;
  ExperimentConfig cfg = fork_config();
  cfg.checker = &checker;
  SweepSession session(cfg);
  session.prepare();
  for (const double factor : {1.0, 1.5, 1.0}) {
    (void)session.run_point({factor, {}});
    EXPECT_TRUE(checker.ok()) << checker.report();
  }
  EXPECT_GT(checker.stats().chains_finished, 0u);
  EXPECT_GT(checker.stats().dma_transfers, 0u);
  EXPECT_GT(checker.stats().audits, 0u);
}

/** Fixed-cost chain environment (as in the checker's own tests). */
class FixedEnv : public core::ChainEnv {
 public:
  sim::TimePs op_cpu_cost(core::ChainContext&, accel::AccelType,
                          std::uint64_t) override {
    return sim::microseconds(2);
  }
  std::uint64_t transformed_size(accel::AccelType,
                                 std::uint64_t bytes) override {
    return bytes;
  }
  sim::TimePs remote_latency(core::ChainContext&, core::RemoteKind) override {
    return sim::microseconds(10);
  }
  std::uint64_t response_size(core::ChainContext&,
                              core::RemoteKind) override {
    return 1024;
  }
};

/**
 * Quiescent fork fixture: runs one chain to quiescence, checkpoints
 * machine + engine + checker there, and runs a second chain — once
 * straight through and once per restore.
 */
class QuiescentForkTest : public ::testing::Test {
 protected:
  QuiescentForkTest() {
    templates_ = core::register_templates(lib_);
    machine_ = std::make_unique<core::Machine>(core::MachineConfig{});
    engine_ = std::make_unique<core::AccelFlowEngine>(*machine_, lib_,
                                                      core::EngineConfig{});
    checker_.attach(*machine_, lib_);
  }

  ~QuiescentForkTest() override { checker_.detach(); }

  /** Starts request `id` on a fresh context and runs to quiescence. */
  void run_chain(accel::RequestId id) {
    ctx_ = core::ChainContext();
    ctx_.request = id;
    ctx_.env = &env_;
    ctx_.rng.reseed(7);
    ctx_.initial_bytes = 64 * 1024;  // Large payload: long DMA windows.
    ctx_.on_done = [this](const core::ChainResult&) { ++done_count_; };
    engine_->start_chain(&ctx_, templates_.t2);
    machine_->sim().run();
  }

  core::TraceLibrary lib_;
  core::TraceTemplates templates_;
  std::unique_ptr<core::Machine> machine_;
  std::unique_ptr<core::AccelFlowEngine> engine_;
  check::InvariantChecker checker_;
  FixedEnv env_;
  core::ChainContext ctx_;
  int done_count_ = 0;
};

TEST_F(QuiescentForkTest, ForkedCheckerPreservesByteConservation) {
  run_chain(1);
  core::Machine::Checkpoint machine_ck;
  machine_->checkpoint(machine_ck);
  const core::AccelFlowEngine::Checkpoint engine_ck = engine_->checkpoint();
  const check::InvariantChecker::Checkpoint checker_ck =
      checker_.checkpoint();

  run_chain(2);
  checker_.final_audit();
  EXPECT_EQ(done_count_, 2);
  EXPECT_TRUE(checker_.ok()) << checker_.report();
  const std::uint64_t issued = checker_.checkpoint().dma_issued_bytes;
  const std::uint64_t delivered = checker_.checkpoint().dma_delivered_bytes;
  EXPECT_GT(issued, checker_ck.dma_issued_bytes);
  EXPECT_EQ(issued, delivered);

  // Restore the whole bundle and replay: byte conservation must hold again
  // on the forked timeline, with identical issue/delivery totals.
  for (int replay = 0; replay < 2; ++replay) {
    machine_->restore(machine_ck);
    engine_->restore(engine_ck);
    checker_.restore(checker_ck);
    run_chain(2);
    checker_.final_audit();
    EXPECT_TRUE(checker_.ok()) << checker_.report();
    EXPECT_EQ(checker_.checkpoint().dma_issued_bytes, issued);
    EXPECT_EQ(checker_.checkpoint().dma_delivered_bytes, delivered);
  }
  EXPECT_EQ(done_count_, 4);
}

TEST_F(QuiescentForkTest, ForkWithoutCheckerRestoreIsCaught) {
  // The negative control: replaying the machine's forked timeline while
  // the checker keeps its straight-through state moves simulated time
  // backwards under the checker. The checker must catch that — this is
  // why SweepSession forks the checker alongside the machine.
  run_chain(1);
  core::Machine::Checkpoint machine_ck;
  machine_->checkpoint(machine_ck);
  const core::AccelFlowEngine::Checkpoint engine_ck = engine_->checkpoint();

  run_chain(2);
  checker_.final_audit();
  ASSERT_TRUE(checker_.ok()) << checker_.report();

  machine_->restore(machine_ck);
  engine_->restore(engine_ck);
  // Deliberately NOT restoring the checker.
  run_chain(2);
  checker_.final_audit();
  EXPECT_FALSE(checker_.ok());
  EXPECT_NE(checker_.report().find("moved backwards"), std::string::npos)
      << checker_.report();
}

}  // namespace
}  // namespace accelflow::workload
