/**
 * @file
 * Tests for the baseline orchestrators (Non-acc, CPU-Centric, RELIEF,
 * Cohort) and cross-architecture invariants: identical logical execution,
 * different coordination costs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "core/machine.h"
#include "core/orch_baselines.h"
#include "core/orchestrator.h"
#include "core/trace_templates.h"

namespace accelflow::core {
namespace {

using accel::AccelType;

class FixedEnv : public ChainEnv {
 public:
  sim::TimePs op_cpu_cost(ChainContext&, accel::AccelType,
                          std::uint64_t) override {
    return sim::microseconds(2);
  }
  std::uint64_t transformed_size(accel::AccelType,
                                 std::uint64_t bytes) override {
    return bytes;
  }
  sim::TimePs remote_latency(ChainContext&, RemoteKind) override {
    return sim::microseconds(10);
  }
  std::uint64_t response_size(ChainContext&, RemoteKind) override {
    return 1024;
  }
};

class OrchestratorTest : public ::testing::Test {
 protected:
  OrchestratorTest() { templates_ = register_templates(lib_); }

  /** Runs one chain under `kind` on a fresh machine; returns end time. */
  sim::TimePs run_one(OrchKind kind, AtmAddr start,
                      accel::PayloadFlags flags = {},
                      std::uint32_t* invocations = nullptr,
                      Machine** out_machine = nullptr) {
    machine_ = std::make_unique<Machine>(MachineConfig{});
    orch_ = make_orchestrator(kind, *machine_, lib_);
    ctx_ = std::make_unique<ChainContext>();
    ctx_->request = 1;
    ctx_->tenant = 0;
    ctx_->core = 0;
    ctx_->flags = flags;
    ctx_->initial_bytes = 1024;
    ctx_->env = &env_;
    ctx_->rng.reseed(7);
    done_ = false;
    ctx_->on_done = [this](const ChainResult& r) {
      done_ = true;
      result_ = r;
    };
    orch_->run_chain(ctx_.get(), start);
    machine_->sim().run();
    EXPECT_TRUE(done_) << name_of(kind);
    if (invocations) *invocations = ctx_->accel_invocations;
    if (out_machine) *out_machine = machine_.get();
    return machine_->sim().now();
  }

  TraceLibrary lib_;
  TraceTemplates templates_;
  FixedEnv env_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Orchestrator> orch_;
  std::unique_ptr<ChainContext> ctx_;
  bool done_ = false;
  ChainResult result_;
};

TEST_F(OrchestratorTest, AllKindsCompleteASimpleChain) {
  for (const OrchKind kind :
       {OrchKind::kNonAcc, OrchKind::kCpuCentric, OrchKind::kRelief,
        OrchKind::kReliefPerTypeQ, OrchKind::kCohort,
        OrchKind::kAccelFlowDirect, OrchKind::kAccelFlowCntrFlow,
        OrchKind::kAccelFlow, OrchKind::kIdeal}) {
    std::uint32_t invocations = 0;
    run_one(kind, templates_.t2, {}, &invocations);
    EXPECT_EQ(invocations, 4u) << name_of(kind);
    EXPECT_TRUE(result_.ok) << name_of(kind);
  }
}

TEST_F(OrchestratorTest, AllKindsAgreeOnLogicalExecution) {
  // Same flags -> same invocation counts on every architecture, including
  // the branchy multi-trace Login chain.
  accel::PayloadFlags f;
  f.hit = false;
  f.found = true;
  f.compressed = true;
  for (const OrchKind kind :
       {OrchKind::kNonAcc, OrchKind::kCpuCentric, OrchKind::kRelief,
        OrchKind::kCohort, OrchKind::kAccelFlow, OrchKind::kIdeal}) {
    std::uint32_t invocations = 0;
    run_one(kind, templates_.t4, f, &invocations);
    EXPECT_EQ(invocations, 20u) << name_of(kind);
  }
}

TEST_F(OrchestratorTest, UnloadedLatencyOrdering) {
  // On one unloaded chain: Ideal <= AccelFlow < RELIEF and CPU-Centric;
  // Non-acc is slowest (no acceleration).
  const sim::TimePs ideal = run_one(OrchKind::kIdeal, templates_.t2);
  const sim::TimePs af = run_one(OrchKind::kAccelFlow, templates_.t2);
  const sim::TimePs relief = run_one(OrchKind::kRelief, templates_.t2);
  const sim::TimePs cpuc = run_one(OrchKind::kCpuCentric, templates_.t2);
  const sim::TimePs nonacc = run_one(OrchKind::kNonAcc, templates_.t2);
  EXPECT_LE(ideal, af);
  EXPECT_LT(af, relief);
  EXPECT_LT(af, cpuc);
  EXPECT_LT(af, nonacc);
  // RELIEF pays ~1.5us per completion: 4 ops -> >6us of manager time.
  EXPECT_GT(relief, sim::microseconds(6));
}

TEST_F(OrchestratorTest, NonAccUsesNoAccelerators) {
  Machine* m = nullptr;
  run_one(OrchKind::kNonAcc, templates_.t2, {}, nullptr, &m);
  for (const AccelType t : accel::kAllAccelTypes) {
    EXPECT_EQ(m->accel(t).stats().jobs, 0u);
  }
  // Full tax on the core: 4 ops x 2us.
  EXPECT_GE(m->cores().stats().busy_time, sim::microseconds(8));
}

TEST_F(OrchestratorTest, CpuCentricInterruptsPerOp) {
  Machine* m = nullptr;
  run_one(OrchKind::kCpuCentric, templates_.t2, {}, nullptr, &m);
  EXPECT_EQ(m->cores().stats().interrupts, 4u);  // One per accelerator.
}

TEST_F(OrchestratorTest, ReliefUsesManagerPerCompletion) {
  Machine* m = nullptr;
  run_one(OrchKind::kRelief, templates_.t2, {}, nullptr, &m);
  // 4 dispatches + 4 completions; busy >= 4 x 1.5us.
  EXPECT_GE(m->manager().total_busy_time(), sim::microseconds(6));
  EXPECT_EQ(m->cores().stats().interrupts, 1u);  // Only at chain end.
}

TEST_F(OrchestratorTest, CohortLinkedPairsSkipTheCore) {
  machine_ = std::make_unique<Machine>(MachineConfig{});
  BaselineOrchestrator orch(BaselineMode::kCohort, *machine_, lib_, false);
  ctx_ = std::make_unique<ChainContext>();
  ctx_->env = &env_;
  ctx_->rng.reseed(7);
  ctx_->initial_bytes = 1024;
  done_ = false;
  ctx_->on_done = [this](const ChainResult&) { done_ = true; };
  // T2 = Ser -> RPC -> Encr -> TCP. Links: (Ser,RPC) and (Encr,TCP) are
  // linked; RPC -> Encr returns to the core.
  orch.run_chain(ctx_.get(), templates_.t2);
  machine_->sim().run();
  EXPECT_TRUE(done_);
  EXPECT_EQ(orch.stats().linked_hops, 2u);
  EXPECT_GE(orch.stats().polls, 1u);
}

TEST_F(OrchestratorTest, ReliefCentralQueueBlocksAcrossTypes) {
  // With the central queue, many concurrent chains contend for the shared
  // 64-token pool; the PerAccTypeQ variant does not.
  auto run_many = [&](OrchKind kind) {
    machine_ = std::make_unique<Machine>(MachineConfig{});
    orch_ = make_orchestrator(kind, *machine_, lib_);
    std::vector<std::unique_ptr<ChainContext>> ctxs;
    int done = 0;
    for (int i = 0; i < 120; ++i) {
      auto ctx = std::make_unique<ChainContext>();
      ctx->request = static_cast<accel::RequestId>(i);
      ctx->core = i % 36;
      ctx->env = &env_;
      ctx->rng.reseed(static_cast<std::uint64_t>(i));
      ctx->initial_bytes = 1024;
      ctx->on_done = [&done](const ChainResult&) { ++done; };
      orch_->run_chain(ctx.get(), templates_.t2);
      ctxs.push_back(std::move(ctx));
    }
    machine_->sim().run();
    EXPECT_EQ(done, 120);
    const auto* base =
        dynamic_cast<const BaselineOrchestrator*>(orch_.get());
    return base->stats().central_queue_waits;
  };
  EXPECT_GT(run_many(OrchKind::kRelief), 0u);
  EXPECT_EQ(run_many(OrchKind::kReliefPerTypeQ), 0u);
}

TEST_F(OrchestratorTest, BaselinesHandleRemoteWaits) {
  accel::PayloadFlags f;
  f.hit = true;
  for (const OrchKind kind : {OrchKind::kNonAcc, OrchKind::kCpuCentric,
                              OrchKind::kRelief, OrchKind::kCohort}) {
    const sim::TimePs t = run_one(kind, templates_.t4, f);
    EXPECT_GE(t, sim::microseconds(10)) << name_of(kind);
    EXPECT_EQ(ctx_->remote_calls, 1u) << name_of(kind);
  }
}

TEST_F(OrchestratorTest, BaselineFallsBackToTheCoreMidChain) {
  // T2 = Ser -> RPC -> Encr -> TCP. RPC's input queue is full and one
  // enqueue attempt is allowed, so Ser runs on its accelerator and the
  // rest of the chain runs on the core.
  machine_ = std::make_unique<Machine>(MachineConfig{});
  check::CheckerConfig cc;
  cc.record_sequences = true;
  check::InvariantChecker checker(cc);
  checker.attach(*machine_, lib_);
  BaselineCosts costs;
  costs.enqueue_retries = 1;
  BaselineOrchestrator orch(BaselineMode::kCpuCentric, *machine_, lib_,
                            false, costs);
  accel::Accelerator& rpc = machine_->accel(AccelType::kRpc);
  std::vector<accel::SlotId> filler;
  for (accel::SlotId s; (s = rpc.try_enqueue(accel::QueueEntry{})) !=
                        accel::kInvalidSlot;) {
    filler.push_back(s);
  }
  ctx_ = std::make_unique<ChainContext>();
  ctx_->request = 1;
  ctx_->env = &env_;
  ctx_->rng.reseed(7);
  done_ = false;
  ctx_->on_done = [this](const ChainResult& r) {
    done_ = true;
    result_ = r;
  };
  orch.run_chain(ctx_.get(), templates_.t2);
  machine_->sim().run();
  for (const accel::SlotId s : filler) rpc.release_input(s);
  checker.final_audit();

  ASSERT_TRUE(done_);
  EXPECT_TRUE(result_.ok);
  EXPECT_TRUE(result_.cpu_fallback);
  EXPECT_EQ(orch.stats().fallbacks, 1u);
  const auto* seq = checker.sequence(obs::flow_id(ctx_->request, 0));
  ASSERT_NE(seq, nullptr);
  const auto want = walk_chain(lib_, templates_.t2, ctx_->flags).invocations;
  ASSERT_EQ(seq->size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*seq)[i].type, want[i]) << i;
    EXPECT_EQ((*seq)[i].on_cpu, i > 0) << i;
  }
  EXPECT_TRUE(checker.ok()) << checker.report();
  checker.detach();
}

TEST_F(OrchestratorTest, RejectsInvalidBaselineCosts) {
  // Each would cast a NaN or negative duration into picoseconds: the
  // constructor names the field.
  Machine m(MachineConfig{});
  const auto rejects = [&](auto mutate, const char* field) {
    BaselineCosts costs;
    mutate(costs);
    try {
      BaselineOrchestrator orch(BaselineMode::kCohort, m, lib_, false, costs);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  rejects([](BaselineCosts& c) { c.response_timeout_ms = std::nan(""); },
          "response_timeout_ms");
  rejects([](BaselineCosts& c) { c.cohort_poll_interval_us = -1.0; },
          "cohort_poll_interval_us");
}

TEST_F(OrchestratorTest, OrchestratorNames) {
  Machine m(MachineConfig{});
  EXPECT_EQ(make_orchestrator(OrchKind::kNonAcc, m, lib_)->name(),
            "Non-acc");
  Machine m2(MachineConfig{});
  EXPECT_EQ(make_orchestrator(OrchKind::kAccelFlow, m2, lib_)->name(),
            "AccelFlow");
  Machine m3(MachineConfig{});
  EXPECT_EQ(make_orchestrator(OrchKind::kIdeal, m3, lib_)->name(), "Ideal");
}

}  // namespace
}  // namespace accelflow::core
