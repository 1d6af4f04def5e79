// Tests for the compiled chain backend (DESIGN.md §15): the ChainProgram
// compilation pass, and the load-bearing property of the whole subsystem —
// compiled execution is bit-identical to the interpreter, including
// completion timestamps, for every template trace under every flag
// combination and for a thousand fuzzer-generated programs, with the
// invariant checker attached to both runs.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariant_checker.h"
#include "check/trace_gen.h"
#include "core/chain.h"
#include "core/chain_program.h"
#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_encoding.h"
#include "core/trace_library.h"
#include "core/trace_templates.h"
#include "obs/span.h"
#include "sim/random.h"
#include "sim/time.h"

namespace accelflow {
namespace {

using accel::AccelType;
using core::RemoteKind;

// --- ChainProgram compilation -------------------------------------------

TEST(ChainProgram, CompilesTheTemplateLibrary) {
  core::TraceLibrary lib;
  core::register_templates(lib);
  const core::ChainProgram program(lib);

  EXPECT_GT(program.num_entries(), 0u);
  EXPECT_EQ(program.num_blocks(), 32 * program.num_entries());
  // Entry seeding decodes every word at all 16 positions, so a few *dead*
  // entries come from garbage decodes whose walk hits an unstored ATM
  // address and bails. They are never looked up; real entry points all
  // compile (verified below). Keep the fallback share visibly tiny.
  EXPECT_LT(program.num_interpret_blocks(), program.num_blocks() / 10);
}

TEST(ChainProgram, LooksUpEveryTemplateEntryPoint) {
  core::TraceLibrary lib;
  const core::TraceTemplates t = core::register_templates(lib);
  const core::ChainProgram program(lib);

  for (const core::AtmAddr addr :
       {t.t1, t.t2, t.t3, t.t4, t.t5, t.t6, t.t8, t.t9, t.t11}) {
    const std::uint64_t word = lib.get(addr).word;
    const core::TraceOp op0 = core::decode_op(word, 0);
    ASSERT_EQ(op0.kind, core::TraceOp::Kind::kInvoke);
    for (std::size_t f = 0; f < 32; ++f) {
      const auto* b = program.lookup(word, op0.next_pm,
                                     core::ChainProgram::flags_of(f));
      ASSERT_NE(b, nullptr);
      EXPECT_NE(b->terminal, core::ChainProgram::Terminal::kInterpret);
    }
  }
  // A word the library never saw has no compiled entry.
  EXPECT_EQ(program.lookup(0xDEADBEEFull, 1, accel::PayloadFlags{}), nullptr);
}

TEST(ChainProgram, FlagIndexRoundTrips) {
  for (std::size_t f = 0; f < 32; ++f) {
    EXPECT_EQ(core::ChainProgram::flag_index(core::ChainProgram::flags_of(f)),
              f);
  }
}

// --- Compiled-vs-interpreted differential -------------------------------

/** Pure-function cost environment (modeled on check/differential.cc's):
 *  both runs of a scenario see identical values for identical queries. */
class DiffEnv final : public core::ChainEnv {
 public:
  sim::TimePs op_cpu_cost(core::ChainContext&, AccelType type,
                          std::uint64_t payload_bytes) override {
    const auto idx = static_cast<std::uint64_t>(accel::index_of(type));
    return sim::nanoseconds(
        static_cast<double>(300 + 90 * idx + payload_bytes / 8));
  }

  std::uint64_t transformed_size(AccelType type,
                                 std::uint64_t bytes) override {
    std::uint64_t out = bytes;
    switch (type) {
      case AccelType::kSer:
        out = bytes * 9 / 8 + 8;
        break;
      case AccelType::kDser:
        out = bytes * 7 / 8;
        break;
      case AccelType::kCmp:
        out = bytes * 3 / 8 + 4;
        break;
      case AccelType::kDcmp:
        out = bytes * 5 / 2;
        break;
      case AccelType::kLdb:
        out = bytes / 2 + 32;
        break;
      default:
        break;
    }
    if (out < 16) out = 16;
    if (out > (1u << 22)) out = 1u << 22;
    return out;
  }

  sim::TimePs remote_latency(core::ChainContext&, RemoteKind kind) override {
    return sim::microseconds(
        5.0 + 3.0 * static_cast<double>(static_cast<int>(kind)));
  }

  std::uint64_t response_size(core::ChainContext&, RemoteKind kind) override {
    return 512 + 256 * static_cast<std::uint64_t>(static_cast<int>(kind));
  }
};

struct DiffChain {
  core::AtmAddr start = 0;
  accel::PayloadFlags flags;
  std::uint64_t initial_bytes = 1024;
  sim::TimePs start_at = 0;
};

struct DiffFlow {
  bool done = false;
  core::ChainResult result;
  std::uint32_t accel_invocations = 0;
  std::uint32_t branches = 0;
  std::uint32_t transforms = 0;
  std::uint32_t mid_notifies = 0;
  std::uint32_t remote_calls = 0;
  std::vector<check::StageRecord> sequence;
};

struct DiffRun {
  std::vector<DiffFlow> flows;
  bool checker_ok = false;
  std::string checker_report;
};

/** Runs the scenario once on a fresh machine, checker attached. */
DiffRun run_once(const core::TraceLibrary& lib,
                 const std::vector<DiffChain>& chains, bool compiled) {
  DiffRun out;
  out.flows.resize(chains.size());

  core::MachineConfig mc;
  core::Machine machine(mc);
  machine.load_traces(lib);

  check::CheckerConfig cc;
  cc.record_sequences = true;
  check::InvariantChecker checker(cc);
  checker.attach(machine, lib);

  core::EngineConfig ec;
  ec.compile = compiled;
  auto orch =
      core::make_orchestrator(core::OrchKind::kAccelFlow, machine, lib, ec);

  DiffEnv env;
  std::vector<std::unique_ptr<core::ChainContext>> ctxs;
  ctxs.reserve(chains.size());
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const DiffChain& spec = chains[i];
    auto ctx = std::make_unique<core::ChainContext>();
    ctx->request = static_cast<accel::RequestId>(i + 1);
    ctx->chain = 0;
    ctx->tenant = static_cast<accel::TenantId>(i % 4);
    ctx->core = static_cast<int>(i % 8);
    ctx->flags = spec.flags;
    ctx->initial_bytes = spec.initial_bytes;
    ctx->initial_format = accel::DataFormat::kProtoWire;
    ctx->buffer_va = static_cast<mem::VirtAddr>(i + 1) << 20;
    ctx->env = &env;
    ctx->rng.reseed(0x5EED0000 + i);
    DiffFlow* flow = &out.flows[i];
    ctx->on_done = [flow](const core::ChainResult& r) {
      flow->done = true;
      flow->result = r;
    };
    core::ChainContext* raw = ctx.get();
    core::Orchestrator* o = orch.get();
    machine.sim().schedule_at(spec.start_at, [o, raw, start = spec.start] {
      o->run_chain(raw, start);
    });
    ctxs.push_back(std::move(ctx));
  }

  machine.sim().run();

  for (std::size_t i = 0; i < chains.size(); ++i) {
    DiffFlow& flow = out.flows[i];
    const auto& ctx = *ctxs[i];
    flow.accel_invocations = ctx.accel_invocations;
    flow.branches = ctx.branches;
    flow.transforms = ctx.transforms;
    flow.mid_notifies = ctx.mid_notifies;
    flow.remote_calls = ctx.remote_calls;
    const auto* seq = checker.sequence(obs::flow_id(ctx.request, ctx.chain));
    if (seq != nullptr) flow.sequence = *seq;
  }

  checker.final_audit();
  out.checker_ok = checker.ok();
  out.checker_report = checker.report();
  checker.detach();
  return out;
}

/** Pins AF_COMPILE out of the environment for the scope, so the baseline
 *  run really interprets even when ctest exports AF_COMPILE=1. */
class ScopedNoAfCompile {
 public:
  ScopedNoAfCompile() {
    const char* v = std::getenv("AF_COMPILE");
    if (v != nullptr) {
      saved_ = v;
      had_ = true;
    }
    unsetenv("AF_COMPILE");
  }
  ~ScopedNoAfCompile() {
    if (had_) {
      setenv("AF_COMPILE", saved_.c_str(), 1);
    } else {
      unsetenv("AF_COMPILE");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

/** Runs the scenario interpreted and compiled; every flow must match bit
 *  for bit, completion timestamps included. */
void expect_bit_identical(const core::TraceLibrary& lib,
                          const std::vector<DiffChain>& chains,
                          const std::string& label) {
  ScopedNoAfCompile no_env;
  const DiffRun interp = run_once(lib, chains, /*compiled=*/false);
  const DiffRun compiled = run_once(lib, chains, /*compiled=*/true);

  EXPECT_TRUE(interp.checker_ok) << label << ": " << interp.checker_report;
  EXPECT_TRUE(compiled.checker_ok) << label << ": "
                                   << compiled.checker_report;
  ASSERT_EQ(interp.flows.size(), compiled.flows.size());
  for (std::size_t i = 0; i < interp.flows.size(); ++i) {
    const DiffFlow& a = interp.flows[i];
    const DiffFlow& b = compiled.flows[i];
    const std::string at = label + ", chain " + std::to_string(i);
    ASSERT_TRUE(a.done) << at;
    ASSERT_TRUE(b.done) << at;
    EXPECT_EQ(a.result.ok, b.result.ok) << at;
    EXPECT_EQ(a.result.timeout, b.result.timeout) << at;
    EXPECT_EQ(a.result.cpu_fallback, b.result.cpu_fallback) << at;
    EXPECT_EQ(a.result.faulted, b.result.faulted) << at;
    EXPECT_EQ(a.result.completed_at, b.result.completed_at) << at;
    EXPECT_EQ(a.accel_invocations, b.accel_invocations) << at;
    EXPECT_EQ(a.branches, b.branches) << at;
    EXPECT_EQ(a.transforms, b.transforms) << at;
    EXPECT_EQ(a.mid_notifies, b.mid_notifies) << at;
    EXPECT_EQ(a.remote_calls, b.remote_calls) << at;
    ASSERT_EQ(a.sequence.size(), b.sequence.size()) << at;
    for (std::size_t s = 0; s < a.sequence.size(); ++s) {
      EXPECT_EQ(a.sequence[s].type, b.sequence[s].type) << at;
      EXPECT_EQ(a.sequence[s].bytes, b.sequence[s].bytes) << at;
    }
  }
}

TEST(CompiledDifferential, EveryTemplateTraceAllFlagCombos) {
  core::TraceLibrary lib;
  core::register_templates(lib);

  // Every library trace that can start a chain (leading invoke), each run
  // under all 32 payload-flag combinations on one machine.
  for (const core::AtmAddr addr : lib.addresses()) {
    const std::uint64_t word = lib.get(addr).word;
    const core::TraceOp op0 = core::decode_op(word, 0);
    if (op0.kind != core::TraceOp::Kind::kInvoke) continue;
    std::vector<DiffChain> chains;
    chains.reserve(32);
    for (std::size_t f = 0; f < 32; ++f) {
      DiffChain c;
      c.start = addr;
      c.flags = core::ChainProgram::flags_of(f);
      c.initial_bytes = 64ull << (f % 6);
      c.start_at = sim::microseconds(2.0 * static_cast<double>(f));
      chains.push_back(c);
    }
    expect_bit_identical(lib, chains, lib.name_of_addr(addr));
  }
}

TEST(CompiledDifferential, ThousandFuzzerGeneratedPrograms) {
  // 1000 generated programs in groups of 10 per library/machine; each
  // program contributes one chain with fuzzed flags and payload size.
  constexpr int kGroups = 100;
  constexpr int kPerGroup = 10;
  sim::Rng rng(0xC0117A6E);
  for (int g = 0; g < kGroups; ++g) {
    core::TraceLibrary lib;
    std::vector<DiffChain> chains;
    for (int p = 0; p < kPerGroup; ++p) {
      const check::GeneratedProgram prog = check::generate_program(
          lib, rng, "fz" + std::to_string(g) + "_" + std::to_string(p));
      DiffChain c;
      c.start = prog.start;
      c.flags = core::ChainProgram::flags_of(
          static_cast<std::size_t>(rng.uniform_int(0, 31)));
      c.initial_bytes = 64ull << rng.uniform_int(0, 6);
      c.start_at =
          sim::microseconds(1.5 * static_cast<double>(chains.size()));
      chains.push_back(c);
    }
    expect_bit_identical(lib, chains, "fuzz group " + std::to_string(g));
  }
}

// The env toggle drives the same backend as EngineConfig::compile: with
// AF_COMPILE=1 exported, an engine built with default config must produce
// the compiled (== interpreted) timeline.
TEST(CompiledDifferential, EnvToggleMatchesConfigToggle) {
  core::TraceLibrary lib;
  const core::TraceTemplates t = core::register_templates(lib);
  std::vector<DiffChain> chains;
  for (std::size_t f = 0; f < 8; ++f) {
    DiffChain c;
    c.start = t.t1;
    c.flags = core::ChainProgram::flags_of(f);
    c.start_at = sim::microseconds(2.0 * static_cast<double>(f));
    chains.push_back(c);
  }

  DiffRun via_config, via_env;
  {
    ScopedNoAfCompile no_env;
    via_config = run_once(lib, chains, /*compiled=*/true);
    setenv("AF_COMPILE", "1", 1);
    via_env = run_once(lib, chains, /*compiled=*/false);
  }
  ASSERT_EQ(via_config.flows.size(), via_env.flows.size());
  for (std::size_t i = 0; i < via_config.flows.size(); ++i) {
    ASSERT_TRUE(via_config.flows[i].done);
    ASSERT_TRUE(via_env.flows[i].done);
    EXPECT_EQ(via_config.flows[i].result.completed_at,
              via_env.flows[i].result.completed_at);
  }
}

}  // namespace
}  // namespace accelflow
