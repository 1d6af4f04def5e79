#include "check/differential.h"

#include <array>
#include <memory>
#include <sstream>
#include <vector>

#include "accel/types.h"
#include "check/invariant_checker.h"
#include "check/trace_gen.h"
#include "core/chain.h"
#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_library.h"
#include "obs/span.h"
#include "sim/random.h"
#include "sim/time.h"

namespace accelflow::check {
namespace {

using accel::AccelType;
using core::RemoteKind;

/**
 * Deterministic chain environment: costs, sizes and remote behaviour are
 * pure functions of their inputs (plus a per-case remote table), so the
 * AccelFlow, CPU-Centric and Non-acc executions of the same chain see
 * *identical* values no matter how often or in which order they query the
 * env.
 */
class FuzzEnv final : public core::ChainEnv {
 public:
  struct RemoteModel {
    sim::TimePs latency = 0;
    std::uint64_t response_bytes = 1024;
  };

  explicit FuzzEnv(std::array<RemoteModel, core::kNumRemoteKinds> remotes)
      : remotes_(remotes) {}

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
      default:  // kTcp, kEncr, kDecr, kRpc preserve the size.
        break;
    }
    if (out < 16) out = 16;
    if (out > (1u << 22)) out = 1u << 22;
    return out;
  }

  sim::TimePs remote_latency(core::ChainContext&, RemoteKind kind) override {
    return remotes_[static_cast<std::size_t>(kind)].latency;
  }

  std::uint64_t response_size(core::ChainContext&, RemoteKind kind) override {
    return remotes_[static_cast<std::size_t>(kind)].response_bytes;
  }

 private:
  std::array<RemoteModel, core::kNumRemoteKinds> remotes_;
};

/** Everything one chain needs, fixed before either architecture runs. */
struct ChainSpec {
  core::AtmAddr start = 0;
  accel::PayloadFlags flags;
  std::uint64_t initial_bytes = 1024;
  accel::TenantId tenant = 0;
  int core = 0;
  std::uint64_t rng_seed = 0;
  sim::TimePs start_at = 0;
};

/** What one architecture produced for one chain. */
struct FlowOutcome {
  bool done = false;
  core::ChainResult result;
  std::uint32_t accel_invocations = 0;
  std::uint32_t branches = 0;
  std::uint32_t transforms = 0;
  std::uint32_t mid_notifies = 0;
  std::uint32_t remote_calls = 0;
  std::vector<StageRecord> sequence;
};

struct ArchOutcome {
  std::vector<FlowOutcome> flows;
  bool checker_ok = false;
  std::string checker_report;
  CheckerStats checker_stats;
};

ArchOutcome run_arch(core::OrchKind kind, const core::MachineConfig& mc,
                     const core::TraceLibrary& lib,
                     const std::vector<ChainSpec>& specs,
                     core::ChainEnv& env) {
  ArchOutcome out;
  out.flows.resize(specs.size());

  core::Machine machine(mc);
  machine.load_traces(lib);

  CheckerConfig cc;
  cc.record_sequences = true;
  InvariantChecker checker(cc);
  checker.attach(machine, lib);

  auto orch = core::make_orchestrator(kind, machine, lib);

  std::vector<std::unique_ptr<core::ChainContext>> ctxs;
  ctxs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ChainSpec& spec = specs[i];
    auto ctx = std::make_unique<core::ChainContext>();
    ctx->request = static_cast<accel::RequestId>(i + 1);
    ctx->chain = 0;
    ctx->tenant = spec.tenant;
    ctx->core = spec.core;
    ctx->flags = spec.flags;
    ctx->initial_bytes = spec.initial_bytes;
    ctx->buffer_va = static_cast<mem::VirtAddr>((i + 1)) << 20;
    ctx->env = &env;
    ctx->rng.reseed(spec.rng_seed);
    FlowOutcome* flow = &out.flows[i];
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

  for (std::size_t i = 0; i < specs.size(); ++i) {
    FlowOutcome& flow = out.flows[i];
    const auto& ctx = *ctxs[i];
    flow.accel_invocations = ctx.accel_invocations;
    flow.branches = ctx.branches;
    flow.transforms = ctx.transforms;
    flow.mid_notifies = ctx.mid_notifies;
    flow.remote_calls = ctx.remote_calls;
    const auto* seq =
        checker.sequence(obs::flow_id(ctx.request, ctx.chain));
    if (seq != nullptr) flow.sequence = *seq;
  }

  checker.final_audit();
  out.checker_ok = checker.ok();
  out.checker_report = checker.report();
  out.checker_stats = checker.stats();
  checker.detach();
  return out;
}

void describe_flow(std::ostringstream& os, const FlowOutcome& f) {
  os << "done=" << f.done << " ok=" << f.result.ok
     << " timeout=" << f.result.timeout
     << " cpu_fallback=" << f.result.cpu_fallback
     << " inv=" << f.accel_invocations << " br=" << f.branches
     << " tr=" << f.transforms << " nt=" << f.mid_notifies
     << " rc=" << f.remote_calls << " seq=[";
  for (std::size_t i = 0; i < f.sequence.size(); ++i) {
    if (i != 0) os << " ";
    os << accel::name_of(f.sequence[i].type) << ":"
       << f.sequence[i].bytes;
  }
  os << "]";
}

}  // namespace

DiffCaseResult run_differential_case(std::uint64_t seed,
                                     const DiffOptions& options) {
  DiffCaseResult result;
  sim::Rng rng(seed);

  // --- Scenario generation (everything below derives from `seed`). ------
  core::TraceLibrary lib;
  const int programs = static_cast<int>(
      1 + rng.next_below(static_cast<std::uint64_t>(
              options.max_programs > 0 ? options.max_programs : 1)));
  std::vector<GeneratedProgram> progs;
  progs.reserve(static_cast<std::size_t>(programs));
  for (int p = 0; p < programs; ++p) {
    progs.push_back(
        generate_program(lib, rng, "fz" + std::to_string(p)));
  }
  result.programs = programs;

  core::MachineConfig mc;
  mc.seed = rng.next_u64();
  result.tiny_queues = rng.bernoulli(options.tiny_queue_prob);
  if (result.tiny_queues) {
    // Starve the ensemble: 2-entry queues, 2-entry overflow areas and a
    // single PE per accelerator force the overflow and CPU-fallback paths
    // the full-size configuration rarely exercises.
    mc.accel_queue_entries = 2;
    mc.overflow_capacity = 2;
    mc.pes_per_accel = 1;
  }

  std::array<FuzzEnv::RemoteModel, core::kNumRemoteKinds> remotes{};
  for (std::size_t k = 1; k < core::kNumRemoteKinds; ++k) {
    if (rng.bernoulli(options.timeout_prob)) {
      // Beyond the 10 ms response timeout of both architectures.
      remotes[k].latency = sim::milliseconds(12);
      result.had_timeout = true;
    } else {
      remotes[k].latency = sim::microseconds(rng.uniform(2.0, 40.0));
    }
    remotes[k].response_bytes = 64 + rng.next_below(8192);
  }
  FuzzEnv env(remotes);

  const int chains = static_cast<int>(
      1 + rng.next_below(static_cast<std::uint64_t>(
              options.max_chains > 0 ? options.max_chains : 1)));
  std::vector<ChainSpec> specs;
  specs.reserve(static_cast<std::size_t>(chains));
  for (int i = 0; i < chains; ++i) {
    ChainSpec s;
    const auto& prog = progs[rng.next_below(progs.size())];
    s.start = prog.start;
    s.flags.compressed = rng.bernoulli(0.5);
    s.flags.hit = rng.bernoulli(0.5);
    s.flags.found = rng.bernoulli(0.5);
    s.flags.exception = rng.bernoulli(0.2);
    s.flags.c_compressed = rng.bernoulli(0.5);
    s.initial_bytes = 64 + rng.next_below(32 * 1024);
    s.tenant = static_cast<accel::TenantId>(rng.next_below(3));
    s.core = static_cast<int>(rng.next_below(8));
    s.rng_seed = rng.next_u64();
    s.start_at = sim::microseconds(static_cast<double>(5 * i));
    specs.push_back(s);
  }
  result.chains = chains;

  // --- Execution, once per arm; the others are compared with arm 0 ------
  struct Arm {
    core::OrchKind kind;
    ArchOutcome out;
  };
  std::vector<Arm> arms;
  for (const core::OrchKind kind :
       {core::OrchKind::kAccelFlow, core::OrchKind::kCpuCentric,
        core::OrchKind::kNonAcc}) {
    arms.push_back({kind, run_arch(kind, mc, lib, specs, env)});
  }
  const Arm& af = arms.front();
  result.stages_checked = af.out.checker_stats.stages_checked;

  // --- Comparison --------------------------------------------------------
  std::ostringstream os;
  bool failed = false;
  auto fail = [&](const std::string& what) {
    failed = true;
    os << "seed " << seed << ": " << what << "\n";
  };

  for (const Arm& arm : arms) {
    if (!arm.out.checker_ok) {
      fail(std::string(core::name_of(arm.kind)) + " invariant violations:\n" +
           arm.out.checker_report);
    }
  }

  for (int i = 0; i < chains; ++i) {
    const FlowOutcome& a = af.out.flows[static_cast<std::size_t>(i)];
    const std::string tag = "chain " + std::to_string(i);
    for (std::size_t k = 1; k < arms.size(); ++k) {
      const FlowOutcome& c = arms[k].out.flows[static_cast<std::size_t>(i)];
      const std::string name(core::name_of(arms[k].kind));
      if (!a.done || !c.done) {
        fail(tag + " did not complete (AccelFlow=" + std::to_string(a.done) +
             " " + name + "=" + std::to_string(c.done) + ")");
        continue;
      }
      const bool outcomes_match = a.result.ok == c.result.ok &&
                                  a.result.timeout == c.result.timeout;
      // A timed-out chain is truncated at a point that may legitimately
      // differ in *physical* time between architectures, so only the
      // outcome flags are compared for those.
      const bool compare_logic =
          outcomes_match && a.result.ok && !a.result.timeout;
      bool diverged = !outcomes_match;
      if (compare_logic) {
        diverged = a.accel_invocations != c.accel_invocations ||
                   a.branches != c.branches ||
                   a.transforms != c.transforms ||
                   a.mid_notifies != c.mid_notifies ||
                   a.remote_calls != c.remote_calls ||
                   a.sequence.size() != c.sequence.size();
        if (!diverged) {
          for (std::size_t j = 0; j < a.sequence.size(); ++j) {
            // on_cpu is *expected* to differ (fallback vs. always-CPU);
            // the logical stage and its payload size must not.
            if (a.sequence[j].type != c.sequence[j].type ||
                a.sequence[j].bytes != c.sequence[j].bytes) {
              diverged = true;
              break;
            }
          }
        }
      }
      if (diverged) {
        os << "seed " << seed << ": " << tag << " diverged\n  AccelFlow: ";
        describe_flow(os, a);
        os << "\n  " << name << ": ";
        describe_flow(os, c);
        os << "\n";
        failed = true;
      }
    }
  }

  result.passed = !failed;
  result.detail = os.str();
  return result;
}

}  // namespace accelflow::check
