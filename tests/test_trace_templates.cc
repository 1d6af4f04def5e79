/**
 * @file
 * Validates the reconstructed T1..T12 templates against everything the
 * paper states about them: per-trace accelerator counts (consistent with
 * Table IV), branch placement (Figures 2/4/7), connectivity (Table I), and
 * the error subtraces being four-accelerator sequences of their own. Then
 * runs every template chain through the engine under all 32 payload-flag
 * combinations with the invariant checker attached.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariant_checker.h"
#include "core/chain.h"
#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_analysis.h"
#include "core/trace_encoding.h"
#include "core/trace_library.h"
#include "core/trace_templates.h"
#include "sim/time.h"

namespace accelflow::core {
namespace {

using accel::AccelType;
using accel::PayloadFlags;

class TraceTemplatesTest : public ::testing::Test {
 protected:
  TraceTemplatesTest() : t_(register_templates(lib_)) {}

  std::size_t count(AtmAddr start, const PayloadFlags& f) {
    return walk_chain(lib_, start, f).invocations.size();
  }

  TraceLibrary lib_;
  TraceTemplates t_;
};

TEST_F(TraceTemplatesTest, AllTemplatesValidate) {
  for (const AtmAddr addr : lib_.addresses()) {
    std::string err;
    EXPECT_TRUE(validate(lib_.get(addr), &err))
        << lib_.name_of_addr(addr) << ": " << err;
  }
}

TEST_F(TraceTemplatesTest, T1CountsWithAndWithoutDcmp) {
  PayloadFlags f;
  // Figure 4a: TCP, Decr, RPC, Dser, LdB without decompression.
  EXPECT_EQ(count(t_.t1, f), 5u);
  f.compressed = true;  // + Dcmp.
  EXPECT_EQ(count(t_.t1, f), 6u);
}

TEST_F(TraceTemplatesTest, T1HasTransformOnCompressedPathOnly) {
  PayloadFlags f;
  f.compressed = true;
  EXPECT_EQ(walk_chain(lib_, t_.t1, f).transforms, 1);
  f.compressed = false;
  EXPECT_EQ(walk_chain(lib_, t_.t1, f).transforms, 0);
}

TEST_F(TraceTemplatesTest, T2T3Counts) {
  const PayloadFlags f;
  EXPECT_EQ(count(t_.t2, f), 4u);  // Figure 2a: Ser, RPC, Encr, TCP.
  EXPECT_EQ(count(t_.t3, f), 5u);  // T2 + Cmp.
  // Neither has a branch: the CPU knows whether to compress.
  EXPECT_FALSE(chain_has_conditional(lib_, t_.t2));
  EXPECT_FALSE(chain_has_conditional(lib_, t_.t3));
}

TEST_F(TraceTemplatesTest, T4ChainsIntoT5) {
  PayloadFlags f;
  f.hit = true;
  // T4 (Ser, Encr, TCP) + T5 hit path (TCP, Decr, Dser, LdB) = 7.
  const auto w = walk_chain(lib_, t_.t4, f);
  EXPECT_EQ(w.invocations.size(), 7u);
  EXPECT_EQ(w.remote_waits, 1);  // Waits for the DB-cache response.
  EXPECT_EQ(lib_.remote_of(t_.t5), RemoteKind::kDbCacheRead);
}

TEST_F(TraceTemplatesTest, T5HitPathCounts) {
  PayloadFlags f;
  f.hit = true;
  EXPECT_EQ(count(t_.t5, f), 4u);  // TCP, Decr, Dser, LdB.
  f.compressed = true;
  EXPECT_EQ(count(t_.t5, f), 5u);  // + Dcmp.
}

TEST_F(TraceTemplatesTest, T5MissDivergesToDbRead) {
  PayloadFlags f;
  f.hit = false;
  f.found = true;
  f.compressed = true;
  // Miss: T5 recv (3) + T5miss send (3) -> T6 found+Dcmp (4) +
  // write-back (3, no recompression) -> T7 ok (4) = 17.
  const auto w = walk_chain(lib_, t_.t5, f);
  EXPECT_EQ(w.invocations.size(), 17u);
  EXPECT_EQ(w.remote_waits, 2);  // DB read + cache write ack.
  EXPECT_EQ(w.notifies, 1);      // T6 hands the value to the CPU mid-chain.
}

TEST_F(TraceTemplatesTest, T6RecompressesWhenCacheIsCompressed) {
  PayloadFlags f;
  f.found = true;
  f.c_compressed = true;
  // T6 from its own start: TCP, Decr, Dser + (no Dcmp) + wb Cmp, Ser,
  // Encr, TCP -> T7 (4) = 11.
  EXPECT_EQ(count(t_.t6, f), 11u);
  f.c_compressed = false;
  EXPECT_EQ(count(t_.t6, f), 10u);
}

TEST_F(TraceTemplatesTest, T6NotFoundReportsError) {
  PayloadFlags f;
  f.found = false;
  // TCP, Decr, Dser + T6err (Ser, RPC, Encr, TCP) = 7.
  const auto w = walk_chain(lib_, t_.t6, f);
  EXPECT_EQ(w.invocations.size(), 7u);
  EXPECT_EQ(w.notifies, 0);  // The error goes straight to the user.
}

TEST_F(TraceTemplatesTest, ErrorSubtracesAreFourAccelerators) {
  // Section IV-A: "the infrequently-exercised four-accelerator
  // subsequences that handle these cases are removed and placed in a
  // trace of their own".
  const PayloadFlags f;
  EXPECT_EQ(count(t_.t6err, f), 4u);
  EXPECT_EQ(count(t_.t7err, f), 4u);
  EXPECT_EQ(count(t_.t10err, f), 4u);
}

TEST_F(TraceTemplatesTest, T7Counts) {
  PayloadFlags f;
  EXPECT_EQ(count(t_.t7, f), 4u);  // TCP, Decr, Dser, LdB.
  f.exception = true;
  EXPECT_EQ(count(t_.t7, f), 7u);  // 3 + error trace (4).
}

TEST_F(TraceTemplatesTest, T8VariantsArmT7) {
  PayloadFlags f;
  EXPECT_EQ(count(t_.t8, f), 7u);   // 3 + T7 (4).
  EXPECT_EQ(count(t_.t8c, f), 8u);  // 4 + T7 (4).
  EXPECT_EQ(lib_.remote_of(t_.t7), RemoteKind::kDbWrite);
}

TEST_F(TraceTemplatesTest, T9T10Counts) {
  PayloadFlags f;
  // T9 (4) + T10 ok (5) = 9; with Cmp/Dcmp: T9c (5) + T10+Dcmp (6) = 11.
  EXPECT_EQ(count(t_.t9, f), 9u);
  f.compressed = true;
  EXPECT_EQ(count(t_.t9c, f), 11u);
  EXPECT_EQ(lib_.remote_of(t_.t10), RemoteKind::kNestedRpc);
}

TEST_F(TraceTemplatesTest, T10ExceptionPath) {
  PayloadFlags f;
  f.exception = true;
  // TCP, Decr, RPC, Dser + T10err (4) = 8.
  EXPECT_EQ(count(t_.t10, f), 8u);
}

TEST_F(TraceTemplatesTest, T11T12Counts) {
  PayloadFlags f;
  EXPECT_EQ(count(t_.t11, f), 7u);  // 3 + T12 (4).
  f.compressed = true;
  EXPECT_EQ(count(t_.t11c, f), 9u);  // 4 + T12+Dcmp (5).
  EXPECT_EQ(lib_.remote_of(t_.t12), RemoteKind::kHttp);
  // T12 itself has a Dcmp branch but no exception branch (CPU handles
  // HTTP errors).
  const auto w = walk_chain(lib_, t_.t12, f);
  EXPECT_EQ(w.branches, 1);
}

TEST_F(TraceTemplatesTest, ConditionalTraceInventory) {
  // Traces with in-flight decisions have conditionals; CPU-decided
  // variants do not (Section III Q2).
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t1));
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t5));
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t6));
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t7));
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t10));
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t12));
  EXPECT_FALSE(chain_has_conditional(lib_, t_.t2));
  EXPECT_FALSE(chain_has_conditional(lib_, t_.t3));
  // T4 chains into T5, which has branches.
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t4));
  // T8/T9/T11 chain into receive traces with branches.
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t8));
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t9));
  EXPECT_TRUE(chain_has_conditional(lib_, t_.t11));
}

TEST_F(TraceTemplatesTest, ConnectivityMatchesTableI) {
  // Build Table I from the templates and check the paper's key rows.
  std::vector<AtmAddr> starts = {t_.t1, t_.t2,  t_.t3,  t_.t4,  t_.t8,
                                 t_.t8c, t_.t9, t_.t9c, t_.t11, t_.t11c};
  const auto table = build_connectivity(lib_, starts);

  auto has_dst = [&](AccelType from, AccelType to) {
    return table.destinations[accel::index_of(from)].count(to) > 0;
  };
  auto has_src = [&](AccelType of, AccelType from) {
    return table.sources[accel::index_of(of)].count(from) > 0;
  };

  // Table I row "TCP": sources Ser, Encr, Cmp -> our encoding inserts Encr
  // before TCP on sends (Encr->TCP) and TCP->Decr on receives.
  EXPECT_TRUE(has_src(AccelType::kTcp, AccelType::kEncr));
  EXPECT_TRUE(has_dst(AccelType::kTcp, AccelType::kDecr));
  // "Ser" produces for TCP, Encr, RPC.
  EXPECT_TRUE(has_dst(AccelType::kSer, AccelType::kEncr) ||
              has_dst(AccelType::kSer, AccelType::kRpc));
  // "Dser" consumes from TCP/Decr/RPC.
  EXPECT_TRUE(has_src(AccelType::kDser, AccelType::kRpc) ||
              has_src(AccelType::kDser, AccelType::kDecr));
  // "LdB" hands off to the CPU only: no outgoing accelerator edges.
  EXPECT_TRUE(table.destinations[accel::index_of(AccelType::kLdb)].empty());
  EXPECT_TRUE(table.cpu_bound.count(AccelType::kLdb) > 0);
  // Cmp is fed directly by the CPU in T3/T8c/T9c.
  EXPECT_TRUE(table.cpu_fed.count(AccelType::kCmp) > 0);
}

TEST_F(TraceTemplatesTest, EveryTemplateFitsInEightBytes) {
  for (const AtmAddr addr : lib_.addresses()) {
    EXPECT_LE(lib_.get(addr).len, kMaxNibbles) << lib_.name_of_addr(addr);
  }
  // And none of the paper templates needed auto-splitting ("we do not
  // observe long traces requiring splitting").
  for (const AtmAddr addr : lib_.addresses()) {
    EXPECT_EQ(lib_.name_of_addr(addr).find('#'), std::string::npos);
  }
}

// --- Template chains through the engine ----------------------------------

/** Pure-function cost environment (modeled on check/differential.cc's). */
class DiffEnv final : public ChainEnv {
 public:
  sim::TimePs op_cpu_cost(ChainContext&, AccelType type,
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

  sim::TimePs remote_latency(ChainContext&, RemoteKind kind) override {
    return sim::microseconds(
        5.0 + 3.0 * static_cast<double>(static_cast<int>(kind)));
  }

  std::uint64_t response_size(ChainContext&, RemoteKind kind) override {
    return 512 + 256 * static_cast<std::uint64_t>(static_cast<int>(kind));
  }
};

/** The payload-flag combination a 5-bit index denotes. */
PayloadFlags flags_of(std::size_t idx) {
  PayloadFlags f;
  f.compressed = (idx & 1) != 0;
  f.hit = (idx & 2) != 0;
  f.found = (idx & 4) != 0;
  f.exception = (idx & 8) != 0;
  f.c_compressed = (idx & 16) != 0;
  return f;
}

struct TemplateRun {
  std::vector<bool> done;  ///< Per chain: on_done fired.
  bool checker_ok = false;
  std::string checker_report;
};

/** Runs 32 chains from `start`, one per flag combination, on a fresh
 *  machine with the invariant checker attached. */
TemplateRun run_once(const TraceLibrary& lib, AtmAddr start) {
  constexpr std::size_t kCombos = 32;
  TemplateRun out;
  out.done.assign(kCombos, false);

  Machine machine(MachineConfig{});
  machine.load_traces(lib);
  check::InvariantChecker checker;
  checker.attach(machine, lib);
  auto orch =
      make_orchestrator(OrchKind::kAccelFlow, machine, lib, EngineConfig{});

  DiffEnv env;
  std::vector<std::unique_ptr<ChainContext>> ctxs;
  for (std::size_t f = 0; f < kCombos; ++f) {
    auto ctx = std::make_unique<ChainContext>();
    ctx->request = static_cast<accel::RequestId>(f + 1);
    ctx->tenant = static_cast<accel::TenantId>(f % 4);
    ctx->core = static_cast<int>(f % 8);
    ctx->flags = flags_of(f);
    ctx->initial_bytes = 64ull << (f % 6);
    ctx->buffer_va = static_cast<mem::VirtAddr>(f + 1) << 20;
    ctx->env = &env;
    ctx->rng.reseed(0x5EED0000 + f);
    ctx->on_done = [&out, f](const ChainResult&) { out.done[f] = true; };
    ChainContext* raw = ctx.get();
    Orchestrator* o = orch.get();
    machine.sim().schedule_at(
        sim::microseconds(2.0 * static_cast<double>(f)),
        [o, raw, start] { o->run_chain(raw, start); });
    ctxs.push_back(std::move(ctx));
  }
  machine.sim().run();

  checker.final_audit();
  out.checker_ok = checker.ok();
  out.checker_report = checker.report();
  checker.detach();
  return out;
}

TEST(TemplateChains, EveryTemplateTraceAllFlagCombosRunsClean) {
  TraceLibrary lib;
  register_templates(lib);
  // Every library trace that can start a chain (leading invoke).
  for (const AtmAddr addr : lib.addresses()) {
    if (decode_op(lib.get(addr).word, 0).kind != TraceOp::Kind::kInvoke) {
      continue;
    }
    const std::string name = lib.name_of_addr(addr);
    const TemplateRun run = run_once(lib, addr);
    EXPECT_TRUE(run.checker_ok) << name << ": " << run.checker_report;
    for (std::size_t f = 0; f < run.done.size(); ++f) {
      EXPECT_TRUE(run.done[f]) << name << ", flags " << f;
    }
  }
}

}  // namespace
}  // namespace accelflow::core
