/**
 * @file
 * Event-kernel microbenchmark: raw events/sec of the discrete-event core,
 * the number that bounds every figure binary in this directory.
 *
 * Three workloads exercise the paths the full model stresses:
 *  - "hold": N self-rescheduling timers with pseudo-random delays (the
 *    classic hold-model priority-queue benchmark; models the steady event
 *    churn of load generators, PEs and DMA completions).
 *  - "cancel": armed timeouts, ~7/8 cancelled before firing (models
 *    response-timeout arming, the only cancel() user in the model).
 *  - "burst": periodic fan-out of same-timestamp events (models request
 *    arrival bursts fanning into parallel chains).
 *  - "chain": chain execution through the AccelFlow engine's dispatcher
 *    FSM at three levels: a standard full-model shape (every completion
 *    staggered by the DMA serializer, so orchestration is a minor share),
 *    a zero-overhead shape (OrchKind::kIdeal strips hardware latencies,
 *    isolating the dispatcher FSM and event kernel), and a per-hop
 *    nibble-decode micro timing.
 *
 * Results land in BENCH_kernel.json (override the path with
 * AF_BENCH_KERNEL_JSON) for the machine-readable perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <utility>
#include <vector>

#include "core/chain.h"
#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_encoding.h"
#include "core/trace_library.h"
#include "core/trace_templates.h"
#include "sim/simulator.h"
#include "stats/counters.h"
#include "stats/table.h"

namespace accelflow::bench {
namespace {

/** Deterministic 64-bit LCG: cheap enough to not dominate the measurement. */
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 17;
  }
};

/** Self-rescheduling timer state shared by one hold-model run. */
struct HoldBench {
  sim::Simulator sim;
  Lcg rng{12345};
  std::uint64_t remaining;
  std::uint64_t checksum = 0;

  void arm() {
    const sim::TimePs delay = 100 + rng.next() % 10000;
    // Real model callbacks carry ~28-32 bytes of capture (context pointer,
    // pool ticket, target queue, attempt counter); mirror that here.
    const std::uint64_t a = rng.state, b = delay;
    const std::uint32_t c = static_cast<std::uint32_t>(remaining);
    sim.schedule_after(delay, [this, a, b, c] {
      checksum += a ^ b ^ c;
      if (remaining > 0) {
        --remaining;
        arm();
      }
    });
  }

  std::uint64_t run(int timers, std::uint64_t events) {
    remaining = events;
    for (int i = 0; i < timers; ++i) arm();
    return sim.run();
  }
};

std::uint64_t run_hold(std::uint64_t events) {
  // 4096 concurrent timers ~ the pending-event population of a loaded
  // full-system run (load generators + PEs + DMAs + armed timeouts).
  HoldBench b;
  return b.run(/*timers=*/4096, events);
}

std::uint64_t run_cancel(std::uint64_t rounds) {
  sim::Simulator sim;
  Lcg rng{999};
  std::uint64_t executed = 0;
  // Each round arms 8 "timeouts" and a completion that cancels 7 of them
  // before they fire — the response-timeout pattern of the engine.
  std::vector<sim::EventId> armed;
  std::function<void(std::uint64_t)> round = [&](std::uint64_t left) {
    if (left == 0) return;
    armed.clear();
    for (int t = 0; t < 8; ++t) {
      armed.push_back(sim.schedule_after(
          50000 + rng.next() % 1000, [&executed] { ++executed; }));
    }
    sim.schedule_after(100 + rng.next() % 300, [&, left] {
      for (int t = 0; t < 7; ++t) sim.cancel(armed[static_cast<size_t>(t)]);
      round(left - 1);
    });
  };
  round(rounds);
  return sim.run();
}

std::uint64_t run_burst(std::uint64_t bursts) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  std::function<void(std::uint64_t)> burst = [&](std::uint64_t left) {
    if (left == 0) return;
    // 64 events at one timestamp: arrival fan-out into parallel chains.
    for (int i = 0; i < 64; ++i) {
      sim.schedule_after(1000, [&sink] { ++sink; });
    }
    sim.schedule_after(2000, [&, left] { burst(left - 1); });
  };
  burst(bursts);
  return sim.run();
}

/** Constant-cost chain environment: every chain sees identical values, so
 *  same-accelerator completions align in time. */
class ConstEnv final : public core::ChainEnv {
 public:
  sim::TimePs op_cpu_cost(core::ChainContext&, accel::AccelType,
                          std::uint64_t) override {
    return sim::nanoseconds(500);
  }
  std::uint64_t transformed_size(accel::AccelType,
                                 std::uint64_t bytes) override {
    return bytes;
  }
  sim::TimePs remote_latency(core::ChainContext&, core::RemoteKind) override {
    return sim::microseconds(5);
  }
  std::uint64_t response_size(core::ChainContext&, core::RemoteKind) override {
    return 1024;
  }
};

struct ChainBenchResult {
  std::uint64_t events = 0;  ///< Kernel events the run executed.
  double secs = 0;           ///< Wall time of the event loop.
};

/**
 * Runs `target` template chains in synchronized waves of 512 (the next
 * wave launches when the previous one fully completes, the arrival-burst
 * shape run_burst isolates at the kernel level) through the AccelFlow
 * engine and times the event loop. Waves keep same-accelerator
 * completions aligned.
 */
ChainBenchResult run_chain_bench(bool zero, std::uint64_t target) {
  core::MachineConfig mc;
  mc.accel_queue_entries = 4096;
  mc.overflow_capacity = 4096;
  mc.pes_per_accel = 64;
  core::Machine machine(mc);

  core::TraceLibrary lib;
  const core::TraceTemplates tt = core::register_templates(lib);

  core::EngineConfig ec;
  // The zero-overhead shape must go through kIdeal: make_orchestrator pins
  // zero_overhead=false for kAccelFlow (it is what the Ideal baseline
  // models, not an AccelFlow mode).
  auto orch = core::make_orchestrator(
      zero ? core::OrchKind::kIdeal : core::OrchKind::kAccelFlow, machine, lib,
      ec);

  ConstEnv env;
  constexpr int kWave = 2048;
  std::vector<std::unique_ptr<core::ChainContext>> ctxs(kWave);
  for (auto& c : ctxs) c = std::make_unique<core::ChainContext>();
  std::uint64_t launched = 0;
  int inflight = 0;
  core::Orchestrator* o = orch.get();

  std::function<void()> launch_wave = [&] {
    const int n =
        static_cast<int>(std::min<std::uint64_t>(kWave, target - launched));
    for (int i = 0; i < n; ++i) {
      core::ChainContext& c = *ctxs[static_cast<std::size_t>(i)];
      c.request = static_cast<accel::RequestId>(++launched);
      c.chain = 0;
      c.tenant = static_cast<accel::TenantId>(i % 8);
      c.core = i % 36;
      c.flags = accel::PayloadFlags{};
      c.flags.compressed = (i & 1) != 0;
      c.initial_bytes = 256;
      c.env = &env;
      c.rng.reseed(0xBE7C41 + static_cast<std::uint64_t>(i));
      c.done = false;
      c.faulted = false;
      ++inflight;
      c.on_done = [&](const core::ChainResult&) {
        if (--inflight == 0 && launched < target) {
          machine.sim().schedule_after(sim::microseconds(1),
                                       [&] { launch_wave(); });
        }
      };
      o->run_chain(&c, tt.t1);
    }
  };
  machine.sim().schedule_at(0, [&] { launch_wave(); });

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t events = machine.sim().run();
  const auto end = std::chrono::steady_clock::now();
  return {events,
          std::chrono::duration_cast<std::chrono::duration<double>>(end -
                                                                    start)
              .count()};
}

/** Per-hop dispatch cost, micro level: decode every nibble of the t1
 *  word hop after hop. Returns ns per hop. */
double interp_hop_ns(std::uint64_t iters) {
  core::TraceLibrary lib;
  const core::TraceTemplates tt = core::register_templates(lib);
  const std::uint64_t word = lib.get(tt.t1).word;
  std::uint8_t pm = 0;
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const core::TraceOp op = core::decode_op(word, pm);
    sink += static_cast<std::uint64_t>(op.kind);
    pm = op.kind == core::TraceOp::Kind::kEndNotify ? 0 : op.next_pm;
  }
  const auto end = std::chrono::steady_clock::now();
  volatile std::uint64_t keep = sink;
  (void)keep;
  return std::chrono::duration_cast<std::chrono::duration<double>>(end -
                                                                   start)
             .count() *
         1e9 / static_cast<double>(iters);
}

/** Best-of-3 wall time for one chain shape. */
ChainBenchResult best_chain(bool zero, std::uint64_t target) {
  ChainBenchResult best;
  for (int rep = 0; rep < 3; ++rep) {
    const ChainBenchResult r = run_chain_bench(zero, target);
    if (best.secs == 0 || r.secs < best.secs) best = r;
  }
  return best;
}

template <typename Fn>
double events_per_sec(Fn fn) {
  // Best of 3: the max filters out scheduler preemption, not kernel cost.
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t events = fn();
    const auto end = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
            .count();
    best = std::max(best, static_cast<double>(events) / secs);
  }
  return best;
}

}  // namespace
}  // namespace accelflow::bench

int main() {
  using namespace accelflow;

  const bool fast = []() {
    const char* v = std::getenv("AF_BENCH_FAST");
    return v != nullptr && v[0] == '1';
  }();
  const std::uint64_t kHoldEvents = fast ? 2'000'000 : 10'000'000;
  const std::uint64_t kCancelRounds = fast ? 200'000 : 1'000'000;
  const std::uint64_t kBursts = fast ? 30'000 : 150'000;

  struct Row {
    const char* name;
    double events_per_sec;
  };
  std::vector<Row> rows;

  // Warm up the allocator/pools once, then measure.
  (void)bench::run_hold(kHoldEvents / 10);

  rows.push_back({"hold (self-rescheduling timers)",
                  bench::events_per_sec(
                      [&] { return bench::run_hold(kHoldEvents); })});
  rows.push_back({"cancel (armed timeouts)",
                  bench::events_per_sec(
                      [&] { return bench::run_cancel(kCancelRounds); })});
  rows.push_back({"burst (arrival fan-out)",
                  bench::events_per_sec(
                      [&] { return bench::run_burst(kBursts); })});

  stats::Table t("Event kernel throughput (events/sec)");
  t.set_header({"Workload", "ev/s"});
  for (const Row& r : rows) {
    t.add_row({r.name, stats::Table::fmt(r.events_per_sec / 1e6, 2) + "M"});
  }
  t.print(std::cout);

  // Chain orchestration through the dispatcher FSM.
  const std::uint64_t kChains = fast ? 50'000 : 100'000;
  struct ChainRow {
    const char* name;
    bool zero;
    bench::ChainBenchResult result;
  };
  std::vector<ChainRow> chain_rows = {
      {"chain std (2048-chain waves)", false, {}},
      {"chain zero-overhead (2048-chain waves)", true, {}},
  };
  for (ChainRow& r : chain_rows) r.result = bench::best_chain(r.zero, kChains);

  // Per-hop dispatch micro timing (best of 3): the undiluted cost of the
  // nibble walk. The std macro row runs the full hardware model, where
  // orchestration is a minor share of its wall time; the zero-overhead
  // row and this micro timing isolate chain execution itself.
  const std::uint64_t kHops = fast ? 20'000'000 : 50'000'000;
  double micro_interp = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    micro_interp = std::min(micro_interp, bench::interp_hop_ns(kHops));
  }

  stats::Table ct("Chain execution (dispatcher FSM)");
  ct.set_header({"Workload", "ev/s", "events"});
  for (const ChainRow& r : chain_rows) {
    ct.add_row({r.name,
                stats::Table::fmt(static_cast<double>(r.result.events) /
                                      r.result.secs / 1e6,
                                  2) +
                    "M",
                std::to_string(r.result.events)});
  }
  ct.add_row({"hop dispatch (micro, ns/hop)",
              stats::Table::fmt(micro_interp, 2), ""});
  ct.print(std::cout);

  // Kernel counters from a representative run (exact pending/cancel
  // bookkeeping is part of what the indexed heap buys).
  {
    bench::HoldBench h;
    h.run(4096, 500'000);
    stats::Table k("Kernel counters (hold, 500K events)");
    k.set_header({"Counter", "heap"});
    const sim::KernelStats& ks = h.sim.kernel_stats();
    k.add_row({"events scheduled", std::to_string(ks.scheduled)});
    k.add_row({"allocs avoided", std::to_string(ks.allocs_avoided())});
    k.add_row({"pooled records", std::to_string(ks.pool_grown)});
    k.add_row({"pending high water", std::to_string(ks.pending_high_water)});
    k.print(std::cout);

    stats::CounterSet out;
    out.set("hold_events_per_sec", rows[0].events_per_sec);
    out.set("cancel_events_per_sec", rows[1].events_per_sec);
    out.set("burst_events_per_sec", rows[2].events_per_sec);
    out.set("allocs_avoided", static_cast<double>(ks.allocs_avoided()));
    // The JSON key predates the backend-neutral rename; it still means
    // "peak pending events" (KernelStats::pending_high_water) and keeps
    // its name so perf-trajectory tooling sees one continuous series.
    out.set("heap_high_water", static_cast<double>(ks.pending_high_water));
    out.set("chain_std_interp_events_per_sec",
            static_cast<double>(chain_rows[0].result.events) /
                chain_rows[0].result.secs);
    out.set("chain_zero_interp_events_per_sec",
            static_cast<double>(chain_rows[1].result.events) /
                chain_rows[1].result.secs);
    out.set("micro_interp_hop_ns", micro_interp);

    const char* path = std::getenv("AF_BENCH_KERNEL_JSON");
    const std::string file = path != nullptr ? path : "BENCH_kernel.json";
    std::ofstream os(file);
    out.write_json(os);
    std::cout << "\nwrote " << file << "\n";
  }
  return 0;
}
