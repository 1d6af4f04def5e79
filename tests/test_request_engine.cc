/**
 * @file
 * Focused tests for the request engine: stage walking, parallel chain
 * barriers, nested-RPC injection, pairing across architectures, buffer
 * pools, and statistics.
 */

#include <gtest/gtest.h>

#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_templates.h"
#include "workload/request_engine.h"
#include "workload/suites.h"

namespace accelflow::workload {
namespace {

class RequestEngineTest : public ::testing::Test {
 protected:
  RequestEngineTest() {
    core::register_templates(lib_);
  }

  struct Setup {
    std::unique_ptr<core::Machine> machine;
    std::unique_ptr<core::Orchestrator> orch;
    std::vector<std::unique_ptr<Service>> services;
    std::unique_ptr<RequestEngine> engine;
  };

  Setup make(core::OrchKind kind, std::vector<ServiceSpec> specs,
             std::uint64_t seed = 42) {
    Setup s;
    s.machine = std::make_unique<core::Machine>(core::MachineConfig{});
    s.orch = core::make_orchestrator(kind, *s.machine, lib_);
    s.services = build_services(specs, lib_);
    std::vector<Service*> ptrs;
    for (auto& svc : s.services) ptrs.push_back(svc.get());
    s.engine = std::make_unique<RequestEngine>(*s.machine, *s.orch,
                                               std::move(ptrs), seed);
    return s;
  }

  core::TraceLibrary lib_;
};

TEST_F(RequestEngineTest, StagesExecuteInOrder) {
  // A request's latency covers all its stages; parallel chains in one
  // stage overlap, sequential stages do not.
  auto s = make(core::OrchKind::kIdeal, social_network_specs());
  s.engine->inject(0);  // CPost: 4 stages of chains + 3 CPU stages.
  s.machine->sim().run();
  EXPECT_EQ(s.engine->stats(0).completed, 1u);
  // CPost fans out nested sub-requests into its callees.
  EXPECT_GT(s.engine->total_completed(), 1u);
}

TEST_F(RequestEngineTest, ParallelChainsBarrier) {
  // Follow launches 3 parallel T8 chains; the request completes only when
  // all three have returned.
  auto s = make(core::OrchKind::kIdeal, social_network_specs());
  s.engine->inject(3);  // Follow.
  s.machine->sim().run();
  EXPECT_EQ(s.engine->stats(3).completed, 1u);
  // 3x(T8=3 + T7=4) + T1(5..6) + T2(4) >= 30 invocations observed.
  std::uint64_t jobs = 0;
  for (const auto t : accel::kAllAccelTypes) {
    jobs += s.machine->accel(t).stats().jobs;
  }
  EXPECT_GE(jobs, 30u);
}

TEST_F(RequestEngineTest, PairedAcrossArchitectures) {
  // Same seed -> identical request structure: every architecture sees the
  // same number of accelerator ops for the same injected request.
  std::array<std::uint64_t, 2> invocations{};
  int i = 0;
  for (const auto kind : {core::OrchKind::kAccelFlow,
                          core::OrchKind::kCpuCentric}) {
    auto s = make(kind, social_network_specs(), 7);
    s.engine->inject(4);  // Login.
    s.machine->sim().run();
    std::uint64_t jobs = 0;
    for (const auto t : accel::kAllAccelTypes) {
      jobs += s.machine->accel(t).stats().jobs;
    }
    invocations[i++] = jobs;
  }
  // CPU-Centric may fall back ops to the CPU only under pressure; at one
  // request the counts must match exactly.
  EXPECT_EQ(invocations[0], invocations[1]);
}

TEST_F(RequestEngineTest, SeedsChangeFlagsDeterministically) {
  auto run_once = [&](std::uint64_t seed) {
    auto s = make(core::OrchKind::kIdeal, social_network_specs(), seed);
    s.engine->inject(0);
    s.machine->sim().run();
    return s.machine->sim().now();
  };
  EXPECT_EQ(run_once(1), run_once(1));
  EXPECT_NE(run_once(1), run_once(2));
}

TEST_F(RequestEngineTest, NestedInjectorRecordsCalleeStats) {
  auto s = make(core::OrchKind::kIdeal, social_network_specs());
  s.engine->inject(0);  // CPost -> UniqId/CUrls/StoreP sub-requests.
  s.machine->sim().run();
  std::uint64_t internal = 0;
  for (std::size_t i = 1; i < s.services.size(); ++i) {
    internal += s.engine->stats(i).completed;
  }
  EXPECT_GE(internal, 7u);  // The 7 nested RPCs all landed somewhere.
}

TEST_F(RequestEngineTest, ResetStatsClearsRecorders) {
  auto s = make(core::OrchKind::kIdeal, social_network_specs());
  s.engine->inject(6);  // UniqId.
  s.machine->sim().run();
  EXPECT_EQ(s.engine->stats(6).completed, 1u);
  s.engine->reset_stats();
  EXPECT_EQ(s.engine->stats(6).completed, 0u);
  EXPECT_EQ(s.engine->stats(6).latency.count(), 0u);
  // The engine still works after a reset.
  s.engine->inject(6);
  s.machine->sim().run();
  EXPECT_EQ(s.engine->stats(6).completed, 1u);
}

TEST_F(RequestEngineTest, FailuresAreCounted) {
  // Drive the exception path: a spec whose T7 chains always see an
  // exception still completes (the error trace reports to the user).
  ServiceSpec spec;
  spec.name = "ErrProne";
  spec.total_cpu_time = sim::microseconds(80);
  StageSpec in;
  in.kind = StageSpec::Kind::kChains;
  ChainGroup g{"T8", 1, {}};
  g.flags.exception = 1.0;  // Every write is acked with an exception.
  in.groups = {g};
  StageSpec cpu;
  cpu.kind = StageSpec::Kind::kCpu;
  spec.stages = {in, cpu};

  auto s = make(core::OrchKind::kAccelFlow, {spec});
  s.engine->inject(0);
  s.machine->sim().run();
  EXPECT_EQ(s.engine->stats(0).completed, 1u);
  // The T7err trace executed: RPC saw traffic (Ser RPC Encr TCP).
  EXPECT_GT(s.machine->accel(accel::AccelType::kRpc).stats().jobs, 0u);
}

TEST_F(RequestEngineTest, InFlightTracksActiveRequests) {
  auto s = make(core::OrchKind::kIdeal, social_network_specs());
  s.engine->inject(6);
  EXPECT_EQ(s.engine->in_flight(), 1u);
  s.machine->sim().run();
  EXPECT_EQ(s.engine->in_flight(), 0u);
}

TEST_F(RequestEngineTest, DeadlineBudgetsReachEntries) {
  auto s = make(core::OrchKind::kAccelFlow, social_network_specs());
  s.engine->set_step_deadline_budget(sim::microseconds(50));
  // Budgets flow into chain contexts and stamp entry deadlines; under the
  // FIFO policy a deadline only counts misses, so the request completes.
  s.engine->inject(6);
  s.machine->sim().run();
  EXPECT_EQ(s.engine->stats(6).completed, 1u);
}

}  // namespace
}  // namespace accelflow::workload
