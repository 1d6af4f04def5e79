/**
 * @file
 * Pins every network-wait path of every orchestrator: the T4 chain
 * (T4 -> wait -> T5) under all nine OrchKinds with the remote response
 * under and over the response timeout, plus the AccelFlow engine's
 * deferred-arm path (TCP input queue full when the wait is armed) and its
 * CPU-fallback TAIL path. The expected values pin the simulated outcome
 * bit for bit: every wait path shares core::await_response, and none may
 * move them.
 *
 * The environment draws every cost, latency and response size from the
 * chain's RNG, so a path that reorders its draws moves the pinned
 * completion time.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/machine.h"
#include "core/orch_baselines.h"
#include "core/orchestrator.h"
#include "core/trace_templates.h"

namespace accelflow::core {
namespace {

using accel::AccelType;

/** Every value drawn from ctx.rng; remote latency = `remote` + jitter. */
class DrawingEnv : public ChainEnv {
 public:
  sim::TimePs op_cpu_cost(ChainContext& ctx, AccelType,
                          std::uint64_t) override {
    return sim::nanoseconds(1500.0 + static_cast<double>(
                                         ctx.rng.next_below(1000)));
  }
  std::uint64_t transformed_size(AccelType, std::uint64_t bytes) override {
    return bytes;
  }
  sim::TimePs remote_latency(ChainContext& ctx, RemoteKind) override {
    return remote + sim::nanoseconds(
                        static_cast<double>(ctx.rng.next_below(5000)));
  }
  std::uint64_t response_size(ChainContext& ctx, RemoteKind) override {
    return 512 + ctx.rng.next_below(4096);
  }

  sim::TimePs remote = 0;
};

/** Remote latencies under and over the 10 ms default response timeout. */
constexpr double kUnderUs = 40.0;
constexpr double kOverUs = 12000.0;

/** What one run pins. */
struct Pin {
  sim::TimePs done_at;
  bool ok;
  bool timeout;
  bool cpu_fallback;
  std::uint32_t remote_calls;
  std::uint64_t timeouts;  ///< Engine or baseline stats().timeouts.
  std::uint64_t scheduled;  ///< kernel_stats().scheduled.
};

void expect_pin(const Pin& want, const Pin& got, const char* what) {
  EXPECT_EQ(want.done_at, got.done_at) << what;
  EXPECT_EQ(want.ok, got.ok) << what;
  EXPECT_EQ(want.timeout, got.timeout) << what;
  EXPECT_EQ(want.cpu_fallback, got.cpu_fallback) << what;
  EXPECT_EQ(want.remote_calls, got.remote_calls) << what;
  EXPECT_EQ(want.timeouts, got.timeouts) << what;
  EXPECT_EQ(want.scheduled, got.scheduled) << what;
}

class ChainProtocolTest : public ::testing::Test {
 protected:
  ChainProtocolTest() { templates_ = register_templates(lib_); }

  std::unique_ptr<ChainContext> make_ctx(double remote_us) {
    env_.remote = sim::microseconds(remote_us);
    auto ctx = std::make_unique<ChainContext>();
    ctx->request = 3;
    ctx->core = 0;
    ctx->flags.hit = true;
    ctx->initial_bytes = 1500;
    ctx->env = &env_;
    ctx->rng.reseed(11);
    ctx->on_done = [this](const ChainResult& r) {
      ++completions_;
      result_ = r;
    };
    return ctx;
  }

  Pin pin(Machine& m, const ChainContext& ctx,
          std::uint64_t timeouts) const {
    EXPECT_EQ(completions_, 1);
    return Pin{result_.completed_at, result_.ok,       result_.timeout,
               result_.cpu_fallback, ctx.remote_calls, timeouts,
               m.sim().kernel_stats().scheduled};
  }

  TraceLibrary lib_;
  TraceTemplates templates_;
  DrawingEnv env_;
  int completions_ = 0;
  ChainResult result_;
};

/** Fills `acc`'s input queue with never-ready entries; returns the slots. */
std::vector<accel::SlotId> fill_input(accel::Accelerator& acc) {
  std::vector<accel::SlotId> slots;
  for (;;) {
    const accel::SlotId s = acc.try_enqueue(accel::QueueEntry{});
    if (s == accel::kInvalidSlot) return slots;
    slots.push_back(s);
  }
}

TEST_F(ChainProtocolTest, EveryOrchestratorWaitUnderAndOverTimeout) {
  // [kind][under, over].
  const Pin kWant[kNumOrchKinds][2] = {
      // Non-acc
      {{55734666, true, false, false, 1, 0, 3},
       {10005055000, false, true, false, 1, 1, 2}},
      // CPU-Centric
      {{80113459, true, false, false, 1, 0, 36},
       {10016389156, false, true, false, 1, 1, 16}},
      // RELIEF
      {{65739107, true, false, false, 1, 0, 37},
       {10007059800, false, true, false, 1, 1, 16}},
      // PerAccTypeQ
      {{65739107, true, false, false, 1, 0, 37},
       {10007059800, false, true, false, 1, 1, 16}},
      // Cohort
      {{66749673, true, false, false, 1, 0, 39},
       {10010910488, false, true, false, 1, 1, 17}},
      // Direct
      {{58043878, true, false, false, 1, 0, 17},
       {10001666815, false, true, false, 1, 1, 8}},
      // CntrFlow
      {{46055961, true, false, false, 1, 0, 17},
       {10001666815, false, true, false, 1, 1, 8}},
      // AccelFlow
      {{46055961, true, false, false, 1, 0, 17},
       {10001666815, false, true, false, 1, 1, 8}},
      // Ideal
      {{45333857, true, false, false, 1, 0, 17},
       {10001267447, false, true, false, 1, 1, 8}},
  };

  for (std::size_t k = 0; k < kNumOrchKinds; ++k) {
    const auto kind = static_cast<OrchKind>(k);
    for (int over = 0; over < 2; ++over) {
      completions_ = 0;
      Machine m{MachineConfig{}};
      auto orch = make_orchestrator(kind, m, lib_);
      auto ctx = make_ctx(over ? kOverUs : kUnderUs);
      orch->run_chain(ctx.get(), templates_.t4);
      m.sim().run();
      std::uint64_t timeouts = 0;
      if (const AccelFlowEngine* e = orch->engine()) {
        timeouts = e->stats().timeouts;
      } else {
        timeouts =
            static_cast<const BaselineOrchestrator&>(*orch).stats().timeouts;
      }
      const std::string what =
          std::string(name_of(kind)) + (over ? " over" : " under");
      expect_pin(kWant[k][over], pin(m, *ctx, timeouts), what.c_str());
    }
  }
}

/**
 * Fills TCP's input queue the moment T4's TCP output reaches the
 * dispatcher, so the T5 wait cannot be armed in the queue; the filler
 * entries leave 20 us later, before an under-timeout response lands.
 */
class FillTcpOnOutput : public accel::OutputHandler {
 public:
  FillTcpOnOutput(Machine& m, AccelFlowEngine& engine)
      : machine_(m), engine_(engine) {}

  void handle_output(accel::Accelerator& acc, accel::SlotId slot) override {
    if (!filled_) {
      filled_ = true;
      slots_ = fill_input(acc);
      machine_.sim().schedule_after(sim::microseconds(20), [this, &acc] {
        for (const accel::SlotId s : slots_) acc.release_input(s);
      });
    }
    engine_.handle_output(acc, slot);
  }

 private:
  Machine& machine_;
  AccelFlowEngine& engine_;
  bool filled_ = false;
  std::vector<accel::SlotId> slots_;
};

TEST_F(ChainProtocolTest, EngineDeferredArmUnderAndOverTimeout) {
  const Pin kWant[2] = {{46055961, true, false, false, 1, 0, 18},
                        {10001666815, false, true, false, 1, 1, 9}};
  for (int over = 0; over < 2; ++over) {
    completions_ = 0;
    Machine m{MachineConfig{}};
    AccelFlowEngine engine(m, lib_, EngineConfig{});
    FillTcpOnOutput filler(m, engine);
    m.accel(AccelType::kTcp).set_output_handler(&filler);
    auto ctx = make_ctx(over ? kOverUs : kUnderUs);
    engine.start_chain(ctx.get(), templates_.t4);
    m.sim().run();
    EXPECT_EQ(engine.stats().deferred_arms, 1u);
    expect_pin(kWant[over], pin(m, *ctx, engine.stats().timeouts),
               over ? "deferred over" : "deferred under");
  }
}

TEST_F(ChainProtocolTest, EngineCpuFallbackTailUnderAndOverTimeout) {
  // TCP's input queue and overflow area stay full: T4's TCP op overflows
  // to the CPU, which then owns the TAIL and its network wait.
  const Pin kWant[2] = {{47553177, true, false, false, 1, 0, 15},
                        {10003047063, false, true, true, 1, 1, 7}};
  for (int over = 0; over < 2; ++over) {
    completions_ = 0;
    Machine m{MachineConfig{}};
    AccelFlowEngine engine(m, lib_, EngineConfig{});
    accel::Accelerator& tcp = m.accel(AccelType::kTcp);
    fill_input(tcp);
    for (accel::QueueEntry e; tcp.overflow_enqueue(e);) {
    }
    auto ctx = make_ctx(over ? kOverUs : kUnderUs);
    engine.start_chain(ctx.get(), templates_.t4);
    m.sim().run();
    EXPECT_GE(engine.stats().overflow_fallbacks, 1u);
    expect_pin(kWant[over], pin(m, *ctx, engine.stats().timeouts),
               over ? "cpu tail over" : "cpu tail under");
  }
}

}  // namespace
}  // namespace accelflow::core
