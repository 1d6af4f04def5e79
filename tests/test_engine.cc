/**
 * @file
 * Tests for the AccelFlow engine: trace execution on the real machine,
 * branches, ATM chaining, network waits, timeouts, fallbacks, throttling,
 * and the ablation fallback paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/engine.h"
#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_builder.h"
#include "core/trace_templates.h"

namespace accelflow::core {
namespace {

using accel::AccelType;

/** Deterministic environment: fixed costs and latencies. */
class FixedEnv : public ChainEnv {
 public:
  sim::TimePs op_cpu_cost(ChainContext&, accel::AccelType,
                          std::uint64_t) override {
    return op_cost;
  }
  std::uint64_t transformed_size(accel::AccelType,
                                 std::uint64_t bytes) override {
    return bytes;
  }
  sim::TimePs remote_latency(ChainContext&, RemoteKind) override {
    return remote;
  }
  std::uint64_t response_size(ChainContext&, RemoteKind) override {
    return 1024;
  }

  sim::TimePs op_cost = sim::microseconds(2);
  sim::TimePs remote = sim::microseconds(10);
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : machine_(MachineConfig{}) {
    templates_ = register_templates(lib_);
  }

  std::unique_ptr<ChainContext> make_ctx(accel::PayloadFlags flags = {}) {
    auto ctx = std::make_unique<ChainContext>();
    ctx->request = ++next_id_;
    ctx->tenant = 1;
    ctx->core = 0;
    ctx->flags = flags;
    ctx->initial_bytes = 1024;
    ctx->env = &env_;
    ctx->rng.reseed(next_id_);
    ctx->on_done = [this](const ChainResult& r) {
      ++completions_;
      last_ = r;
    };
    return ctx;
  }

  MachineConfig cfg_;
  Machine machine_;
  TraceLibrary lib_;
  TraceTemplates templates_;
  FixedEnv env_;
  int completions_ = 0;
  ChainResult last_;
  accel::RequestId next_id_ = 0;
};

TEST_F(EngineTest, LinearTraceRunsToCompletion) {
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  auto ctx = make_ctx();
  engine.start_chain(ctx.get(), templates_.t2);  // Ser RPC Encr TCP END.
  machine_.sim().run();
  EXPECT_EQ(completions_, 1);
  EXPECT_TRUE(last_.ok);
  EXPECT_FALSE(last_.cpu_fallback);
  EXPECT_EQ(ctx->accel_invocations, 4u);
  EXPECT_EQ(engine.stats().chains_completed, 1u);
  EXPECT_EQ(engine.stats().notifications, 1u);
  // 4 accelerator ops at 2us/speedup each, plus glue: well under 4us.
  EXPECT_GT(machine_.sim().now(), sim::nanoseconds(500));
}

TEST_F(EngineTest, AccelTimeDominatedByComputeOverSpeedup) {
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  auto ctx = make_ctx();
  engine.start_chain(ctx.get(), templates_.t2);
  machine_.sim().run();
  // Ser 2/3.8 + RPC 2/20.5 + Encr 2/6.6 + TCP 2/3.5 us ~ 1.5us plus glue.
  const double us = sim::to_microseconds(machine_.sim().now());
  EXPECT_GT(us, 1.4);
  EXPECT_LT(us, 3.0);
}

TEST_F(EngineTest, BranchSelectsDcmpPath) {
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  accel::PayloadFlags f;
  f.compressed = true;
  auto ctx = make_ctx(f);
  engine.start_chain(ctx.get(), templates_.t1);
  machine_.sim().run();
  EXPECT_EQ(ctx->accel_invocations, 6u);  // With Dcmp.
  EXPECT_EQ(ctx->branches, 1u);
  EXPECT_EQ(ctx->transforms, 1u);

  completions_ = 0;
  auto ctx2 = make_ctx();  // Not compressed.
  engine.start_chain(ctx2.get(), templates_.t1);
  machine_.sim().run();
  EXPECT_EQ(ctx2->accel_invocations, 5u);
  EXPECT_EQ(ctx2->transforms, 0u);
}

TEST_F(EngineTest, TailChainWaitsForRemoteResponse) {
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  accel::PayloadFlags f;
  f.hit = true;
  auto ctx = make_ctx(f);
  env_.remote = sim::microseconds(50);
  engine.start_chain(ctx.get(), templates_.t4);  // T4 -> wait -> T5.
  machine_.sim().run();
  EXPECT_EQ(completions_, 1);
  EXPECT_EQ(ctx->accel_invocations, 7u);  // 3 (T4) + 4 (T5 hit).
  EXPECT_EQ(ctx->remote_calls, 1u);
  EXPECT_GE(machine_.sim().now(), sim::microseconds(50));
  EXPECT_GE(engine.stats().atm_loads, 1u);
}

TEST_F(EngineTest, RemoteTimeoutAbortsChain) {
  EngineConfig cfg;
  cfg.response_timeout_ms = 0.1;
  AccelFlowEngine engine(machine_, lib_, cfg);
  env_.remote = sim::milliseconds(5);  // Longer than the timeout.
  auto ctx = make_ctx();
  engine.start_chain(ctx.get(), templates_.t4);
  machine_.sim().run();
  EXPECT_EQ(completions_, 1);
  EXPECT_TRUE(last_.timeout);
  EXPECT_FALSE(last_.ok);
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST_F(EngineTest, MissPathDivergesThroughAtm) {
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  accel::PayloadFlags f;
  f.hit = false;
  f.found = true;
  f.compressed = true;
  auto ctx = make_ctx(f);
  engine.start_chain(ctx.get(), templates_.t4);
  machine_.sim().run();
  EXPECT_EQ(completions_, 1);
  // T4 (3) + T5 miss (3+3) + T6 found+Dcmp (4) + wb (3) + T7 (4) = 20.
  EXPECT_EQ(ctx->accel_invocations, 20u);
  EXPECT_EQ(ctx->remote_calls, 3u);  // Cache read, DB read, cache write.
  EXPECT_EQ(ctx->mid_notifies, 1u);  // T6's NOTIFY_CONT.
}

TEST_F(EngineTest, GlueInstructionAccounting) {
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  accel::PayloadFlags f;
  f.compressed = true;
  auto ctx = make_ctx(f);
  engine.start_chain(ctx.get(), templates_.t1);
  machine_.sim().run();
  const auto& st = engine.stats();
  EXPECT_GT(st.glue_instrs.count(), 0u);
  // Per Section VII-B.2: base ~15, worst case ~50.
  EXPECT_GE(st.glue_instrs.min(), 15.0);
  EXPECT_LE(st.glue_instrs.max(), 60.0);
  EXPECT_GT(st.glue_branch_ops, 0u);
  EXPECT_GT(st.glue_transform_ops, 0u);
  EXPECT_GT(st.glue_eot_ops, 0u);
}

TEST_F(EngineTest, IdealHasNoGlueAndRunsFaster) {
  sim::TimePs accelflow_time = 0;
  {
    Machine m(MachineConfig{});
    AccelFlowEngine engine(m, lib_, EngineConfig{});
    auto ctx = make_ctx();
    engine.start_chain(ctx.get(), templates_.t2);
    m.sim().run();
    accelflow_time = m.sim().now();
  }
  {
    Machine m(MachineConfig{});
    EngineConfig cfg;
    cfg.zero_overhead = true;
    AccelFlowEngine engine(m, lib_, cfg);
    auto ctx = make_ctx();
    engine.start_chain(ctx.get(), templates_.t2);
    m.sim().run();
    EXPECT_LT(m.sim().now(), accelflow_time);
    EXPECT_EQ(engine.stats().glue_instrs.count(), 0u);
  }
}

TEST_F(EngineTest, AblationFallsBackToManagerForBranches) {
  EngineConfig cfg;
  cfg.dispatcher_branches = false;  // Fig. 13 "Direct".
  AccelFlowEngine engine(machine_, lib_, cfg);
  accel::PayloadFlags f;
  f.compressed = true;
  auto ctx = make_ctx(f);
  engine.start_chain(ctx.get(), templates_.t1);
  machine_.sim().run();
  EXPECT_EQ(completions_, 1);
  EXPECT_GT(engine.stats().manager_fallbacks, 0u);
  EXPECT_GT(machine_.manager().total_busy_time(), 0u);
}

TEST_F(EngineTest, TenantThrottlingDefersStarts) {
  EngineConfig cfg;
  cfg.tenant_max_active = 1;
  AccelFlowEngine engine(machine_, lib_, cfg);
  auto a = make_ctx();
  auto b = make_ctx();
  engine.start_chain(a.get(), templates_.t2);
  EXPECT_EQ(engine.tenant_active(1), 1u);
  engine.start_chain(b.get(), templates_.t2);
  EXPECT_EQ(engine.stats().tenant_throttled, 1u);
  machine_.sim().run();
  EXPECT_EQ(completions_, 2);  // The throttled chain ran after the first.
  EXPECT_EQ(engine.tenant_active(1), 0u);
}

TEST_F(EngineTest, EnqueueFallbackWhenQueueSaturated) {
  MachineConfig mc;
  mc.accel_queue_entries = 2;
  Machine m(mc);
  EngineConfig cfg;
  cfg.enqueue_retries = 2;
  AccelFlowEngine engine(m, lib_, cfg);
  // Saturate the Ser input queue with never-ready entries.
  auto& ser = m.accel(AccelType::kSer);
  accel::QueueEntry dummy;
  auto ctx_hold = make_ctx();
  dummy.ctx = ctx_hold.get();
  while (!ser.input_full()) {
    ASSERT_NE(ser.try_enqueue(dummy), accel::kInvalidSlot);
  }
  auto ctx = make_ctx();
  engine.start_chain(ctx.get(), templates_.t2);
  m.sim().run();
  EXPECT_EQ(completions_, 1);
  EXPECT_TRUE(last_.ok);
  EXPECT_EQ(engine.stats().enqueue_fallbacks, 1u);
  // Graceful fallback: only the denied Ser op ran (unaccelerated) on the
  // core; the chain then re-entered the ensemble for RPC/Encr/TCP.
  EXPECT_GT(m.cores().stats().busy_time, sim::microseconds(2));
  EXPECT_LT(m.cores().stats().busy_time, sim::microseconds(5));
  EXPECT_EQ(ctx->accel_invocations, 4u);
}

TEST_F(EngineTest, RejectsInvalidTimesAndRates) {
  // Each of these would cast a NaN or infinite duration into picoseconds
  // (a zero DTE rate divides by zero): the constructor names the field.
  const auto rejects = [&](auto mutate, const char* field) {
    EngineConfig cfg;
    mutate(cfg);
    try {
      AccelFlowEngine engine(machine_, lib_, cfg);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  rejects([](EngineConfig& c) { c.dte_gbps = 0.0; }, "dte_gbps");
  rejects([](EngineConfig& c) { c.response_timeout_ms = std::nan(""); },
          "response_timeout_ms");
  rejects([](EngineConfig& c) { c.enqueue_retry_delay_ns = -1.0; },
          "enqueue_retry_delay_ns");
  rejects(
      [](EngineConfig& c) {
        c.resilience.hop_timeout_us = std::numeric_limits<double>::infinity();
      },
      "resilience.hop_timeout_us");
  rejects([](EngineConfig& c) { c.base_instrs = std::nan(""); },
          "base_instrs");
  // The defaults and zero delays are valid.
  EngineConfig zero;
  zero.enqueue_retry_delay_ns = 0.0;
  zero.resilience.backoff_base_us = 0.0;
  EXPECT_NO_THROW(AccelFlowEngine(machine_, lib_, zero));
}

TEST_F(EngineTest, DeadlineStampingPropagates) {
  // A chain with a budget gets its entries stamped under any engine
  // configuration and scheduling policy: a 1 ps budget expires before the
  // entry reaches a PE, so its dispatch counts a miss.
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  auto ctx = make_ctx();
  ctx->step_deadline_budget = 1;
  engine.start_chain(ctx.get(), templates_.t2);
  machine_.sim().run();
  EXPECT_EQ(completions_, 1);
  EXPECT_GT(machine_.accel(AccelType::kSer).stats().deadline_misses, 0u);
}

TEST_F(EngineTest, ParallelChainsProgressConcurrently) {
  AccelFlowEngine engine(machine_, lib_, EngineConfig{});
  std::vector<std::unique_ptr<ChainContext>> ctxs;
  for (int i = 0; i < 4; ++i) {
    ctxs.push_back(make_ctx());
    engine.start_chain(ctxs.back().get(), templates_.t2);
  }
  machine_.sim().run();
  EXPECT_EQ(completions_, 4);
  // 8 PEs per accelerator: near-perfect overlap. Serial would be ~4x one
  // chain (~1.6us each); parallel should be well under 2x.
  EXPECT_LT(sim::to_microseconds(machine_.sim().now()), 3.5);
}

}  // namespace
}  // namespace accelflow::core
