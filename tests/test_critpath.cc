/**
 * @file
 * Tests for the critical-path profiler (src/critpath) and the
 * bottleneck-driven auto-tuner (workload/autotune): category mapping and
 * priority resolution, the conservation identity on hand-built and
 * fuzzer-generated traces, flight-recorder edge cases (lost begins,
 * reopened flows), a golden attribution JSON on a deterministic
 * experiment, complete flow attribution under every orchestrator,
 * Chrome-JSON re-ingestion, and an AutoTuner recovery smoke.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/trace_gen.h"
#include "core/chain.h"
#include "core/machine.h"
#include "core/orchestrator.h"
#include "core/trace_library.h"
#include "critpath/critpath.h"
#include "obs/span.h"
#include "obs/tracer.h"
#include "sim/random.h"
#include "sim/time.h"
#include "workload/autotune.h"
#include "workload/experiment.h"
#include "workload/service.h"
#include "workload/sweep.h"

namespace accelflow::critpath {
namespace {

using obs::SpanKind;
using obs::Subsys;

// --- Category vocabulary -------------------------------------------------

TEST(Category, NamesAreStable) {
  EXPECT_EQ(name_of(Category::kDispatch), "dispatch");
  EXPECT_EQ(name_of(Category::kQueue), "queue");
  EXPECT_EQ(name_of(Category::kPeService), "pe_service");
  EXPECT_EQ(name_of(Category::kGlue), "glue");
  EXPECT_EQ(name_of(Category::kDma), "dma");
  EXPECT_EQ(name_of(Category::kNoc), "noc");
  EXPECT_EQ(name_of(Category::kTranslation), "translation");
  EXPECT_EQ(name_of(Category::kCore), "core");
}

TEST(Category, MappingCoversDurationCarryingKinds) {
  Category c;
  ASSERT_TRUE(category_of(SpanKind::kEnqueue, &c));
  EXPECT_EQ(c, Category::kDispatch);
  ASSERT_TRUE(category_of(SpanKind::kQueueWait, &c));
  EXPECT_EQ(c, Category::kQueue);
  ASSERT_TRUE(category_of(SpanKind::kPeExecute, &c));
  EXPECT_EQ(c, Category::kPeService);
  ASSERT_TRUE(category_of(SpanKind::kDispatcherFsm, &c));
  EXPECT_EQ(c, Category::kGlue);
  ASSERT_TRUE(category_of(SpanKind::kDmaTransfer, &c));
  EXPECT_EQ(c, Category::kDma);
  ASSERT_TRUE(category_of(SpanKind::kNocTransfer, &c));
  EXPECT_EQ(c, Category::kNoc);
  ASSERT_TRUE(category_of(SpanKind::kIommuWalk, &c));
  EXPECT_EQ(c, Category::kTranslation);
  // Instants and flow markers carry no duration to attribute.
  EXPECT_FALSE(category_of(SpanKind::kChainDone, &c));
  EXPECT_FALSE(category_of(SpanKind::kTlbMiss, &c));
}

TEST(Category, PriorityPutsMostSpecificResourceOnTop) {
  EXPECT_GT(priority_of(Category::kTranslation), priority_of(Category::kNoc));
  EXPECT_GT(priority_of(Category::kNoc), priority_of(Category::kDma));
  EXPECT_GT(priority_of(Category::kDma), priority_of(Category::kPeService));
  EXPECT_GT(priority_of(Category::kPeService), priority_of(Category::kGlue));
  EXPECT_GT(priority_of(Category::kGlue), priority_of(Category::kDispatch));
  EXPECT_GT(priority_of(Category::kDispatch), priority_of(Category::kQueue));
  EXPECT_GT(priority_of(Category::kQueue), priority_of(Category::kCore));
}

// --- Hand-built traces ---------------------------------------------------

constexpr obs::FlowId kFlow = 0x101;

/** Sum of a chain's by_category array. */
sim::TimePs attributed_sum(const ChainAttribution& c) {
  return c.attributed();
}

Analyzer::Options keep_chains() {
  Analyzer::Options o;
  o.keep_chains = true;
  return o;
}

TEST(Analyzer, AttributesSimpleChainWithGapToCore) {
  obs::Tracer t(64);
  t.complete(Subsys::kEngine, SpanKind::kEnqueue, 0, 100, 100, 0, kFlow);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 100, kFlow);
  t.complete(Subsys::kAccel, SpanKind::kQueueWait, 30, 100, 400, 0, kFlow);
  t.complete(Subsys::kAccel, SpanKind::kPeExecute, 2, 400, 800, 0, kFlow);
  // [800, 1000): nothing instrumented covers it -> residual core time.
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 1000, /*tenant=*/3,
            kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  ASSERT_EQ(a.chains().size(), 1u);
  const ChainAttribution& c = a.chains()[0];
  EXPECT_EQ(c.flow, kFlow);
  EXPECT_EQ(c.service, 3u);
  EXPECT_FALSE(c.timed_out);
  EXPECT_EQ(c.latency(), 900);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kQueue)], 300);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kPeService)], 400);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kCore)], 200);
  EXPECT_EQ(attributed_sum(c), c.latency());
  EXPECT_EQ(c.dominant(), Category::kPeService);
  EXPECT_TRUE(a.violations().empty());
  EXPECT_EQ(a.total().chains, 1u);
  ASSERT_EQ(a.services().size(), 1u);
  EXPECT_EQ(a.services()[0].service, 3u);
  EXPECT_EQ(a.services()[0].name, "service3");
}

TEST(Analyzer, OverlapResolvesByPriority) {
  obs::Tracer t(64);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 0, kFlow);
  // PE execute covers [0, 1000); a DMA transfer overlaps [200, 500) and an
  // IOMMU walk [300, 400). translation > dma > pe_service, so the split
  // must be pe 700, dma 200, translation 100.
  t.complete(Subsys::kAccel, SpanKind::kPeExecute, 1, 0, 1000, 0, kFlow);
  t.complete(Subsys::kDma, SpanKind::kDmaTransfer, 0, 200, 500, 0, kFlow);
  t.complete(Subsys::kMem, SpanKind::kIommuWalk, 0, 300, 400, 0, kFlow);
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 1000, 0, kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  ASSERT_EQ(a.chains().size(), 1u);
  const ChainAttribution& c = a.chains()[0];
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kPeService)], 700);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kDma)], 200);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kTranslation)], 100);
  EXPECT_EQ(attributed_sum(c), c.latency());
  EXPECT_TRUE(a.violations().empty());
}

TEST(Analyzer, ClipsSpansToChainWindow) {
  obs::Tracer t(64);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 500, kFlow);
  // Starts before begin and ends after end: only [500, 1500) counts.
  t.complete(Subsys::kAccel, SpanKind::kQueueWait, 30, 0, 2000, 0, kFlow);
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 1500, 0, kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  ASSERT_EQ(a.chains().size(), 1u);
  const ChainAttribution& c = a.chains()[0];
  EXPECT_EQ(c.latency(), 1000);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kQueue)], 1000);
  EXPECT_EQ(attributed_sum(c), c.latency());
}

TEST(Analyzer, PreBeginSpansAreBuffered) {
  // The engine records the enqueue complete span *before* the FlowBegin
  // marker at the same timestamp; the analyzer must not lose it.
  obs::Tracer t(64);
  t.complete(Subsys::kEngine, SpanKind::kEnqueue, 0, 100, 160, 0, kFlow);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 100, kFlow);
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 200, 0, kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  ASSERT_EQ(a.chains().size(), 1u);
  EXPECT_EQ(a.chains()[0].by_category[static_cast<int>(Category::kDispatch)],
            60);
  EXPECT_EQ(a.chains()[0].by_category[static_cast<int>(Category::kCore)], 40);
}

TEST(Analyzer, EndWithoutBeginCountsAsUnbegun) {
  // The flight-recorder ring dropped the chain's begin: skip, don't guess.
  obs::Tracer t(64);
  t.complete(Subsys::kAccel, SpanKind::kPeExecute, 0, 0, 50, 0, kFlow);
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 100, 0, kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  EXPECT_EQ(a.chains().size(), 0u);
  EXPECT_EQ(a.stats().unbegun, 1u);
  EXPECT_EQ(a.total().chains, 0u);
}

TEST(Analyzer, ReopenedFlowDropsStaleSegments) {
  // Flow ids are (request << 8 | chain) and requests recycle across
  // stages: a begin landing on a still-open chain means the previous
  // close was lost to the ring. The stale spans must not pollute the new
  // chain's window.
  obs::Tracer t(64);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 0, kFlow);
  t.complete(Subsys::kAccel, SpanKind::kQueueWait, 30, 0, 400, 0, kFlow);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 1000, kFlow);
  t.complete(Subsys::kAccel, SpanKind::kPeExecute, 0, 1000, 1200, 0, kFlow);
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 1300, 0, kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  EXPECT_EQ(a.stats().reopened, 1u);
  ASSERT_EQ(a.chains().size(), 1u);
  const ChainAttribution& c = a.chains()[0];
  EXPECT_EQ(c.begin, 1000);
  EXPECT_EQ(c.latency(), 300);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kQueue)], 0);
  EXPECT_EQ(c.by_category[static_cast<int>(Category::kPeService)], 200);
  EXPECT_EQ(attributed_sum(c), c.latency());
}

TEST(Analyzer, TimeoutEndMarksChain) {
  obs::Tracer t(64);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 0, kFlow);
  t.instant(Subsys::kEngine, SpanKind::kTimeout, 0, 500, /*tenant=*/1,
            kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  ASSERT_EQ(a.chains().size(), 1u);
  EXPECT_TRUE(a.chains()[0].timed_out);
  ASSERT_EQ(a.services().size(), 1u);
  EXPECT_EQ(a.services()[0].timeouts, 1u);
}

TEST(Analyzer, SplitsQueueAndPeTimePerAccelClass) {
  // Accel tracks are kTidStride wide: tid / stride is the class index.
  constexpr std::uint32_t kStride = accel::Accelerator::kTidStride;
  obs::Tracer t(64);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 0, kFlow);
  // Class 0 queue wait [0,100), class 4 PE execute [100,350).
  t.complete(Subsys::kAccel, SpanKind::kQueueWait,
             0 * kStride + accel::Accelerator::kQueueTid, 0, 100, 0, kFlow);
  t.complete(Subsys::kAccel, SpanKind::kPeExecute, 4 * kStride + 1, 100, 350,
             0, kFlow);
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 350, 0, kFlow);

  Analyzer a(keep_chains());
  a.analyze(t);
  const ServiceAttribution& s = a.total();
  EXPECT_EQ(s.queue_by_accel[0], 100);
  EXPECT_EQ(s.pe_by_accel[4], 250);
  sim::TimePs queue_sum = 0, pe_sum = 0;
  for (std::size_t i = 0; i < accel::kNumAccelTypes; ++i) {
    queue_sum += s.queue_by_accel[i];
    pe_sum += s.pe_by_accel[i];
  }
  EXPECT_EQ(queue_sum, s.by_category[static_cast<int>(Category::kQueue)]);
  EXPECT_EQ(pe_sum, s.by_category[static_cast<int>(Category::kPeService)]);
}

TEST(Analyzer, OpenChainsCountIncompleteOnFinish) {
  obs::Tracer t(64);
  t.flow(obs::Phase::kFlowBegin, Subsys::kEngine, 0, 0, kFlow);
  t.complete(Subsys::kAccel, SpanKind::kQueueWait, 30, 0, 100, 0, kFlow);

  Analyzer a;
  a.analyze(t);
  EXPECT_EQ(a.stats().incomplete, 1u);
  EXPECT_EQ(a.total().chains, 0u);
}

// --- Experiment-driven attribution ---------------------------------------

workload::ExperimentConfig tiny_config() {
  workload::ExperimentConfig cfg;
  cfg.kind = core::OrchKind::kAccelFlow;
  cfg.specs = workload::social_network_specs();
  cfg.load_model = workload::LoadGenerator::Model::kPoisson;
  cfg.per_service_rps.assign(cfg.specs.size(), 4000.0);
  cfg.warmup = sim::milliseconds(2);
  cfg.measure = sim::milliseconds(10);
  cfg.drain = sim::milliseconds(5);
  cfg.seed = 99;
  return cfg;
}

/** Runs tiny_config() traced and returns the attribution JSON bytes. */
std::string attribution_json() {
  obs::Tracer tracer(1u << 18);
  workload::ExperimentConfig cfg = tiny_config();
  cfg.tracer = &tracer;
  const workload::ExperimentResult res = workload::run_experiment(cfg);
  EXPECT_GT(res.total_completed(), 0u);

  Analyzer::Options opts;
  for (const auto& spec : cfg.specs) opts.service_names.push_back(spec.name);
  Analyzer a(std::move(opts));
  a.analyze(tracer);
  EXPECT_GT(a.total().chains, 0u);
  EXPECT_TRUE(a.violations().empty());
  std::ostringstream os;
  a.write_json(os);
  return os.str();
}

/**
 * Pins the attribution JSON of a deterministic traced experiment
 * byte-for-byte against the committed golden file. Regenerate after an
 * intentional change with:
 *   AF_REGOLD=1 ./tests/test_critpath --gtest_filter='*Golden*'
 * (from the build directory), then commit the refreshed file.
 */
TEST(AttributionGolden, MatchesGoldenFile) {
  const std::string got = attribution_json();
  const std::string path =
      std::string(AF_TEST_GOLDEN_DIR) + "/critpath.json";
  if (std::getenv("AF_REGOLD") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << "; generate with AF_REGOLD=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "attribution JSON drifted from " << path
      << "; if intentional, regenerate with AF_REGOLD=1";
}

TEST(ChromeJsonRoundTrip, ReingestedAttributionMatchesDirect) {
  obs::Tracer tracer(1u << 18);
  workload::ExperimentConfig cfg = tiny_config();
  cfg.tracer = &tracer;
  workload::run_experiment(cfg);

  Analyzer direct;
  direct.analyze(tracer);

  const std::string path =
      ::testing::TempDir() + "critpath_roundtrip_trace.json";
  {
    std::ofstream os(path, std::ios::binary);
    tracer.export_chrome_json(os);
  }
  Analyzer reread;
  const long long events = analyze_chrome_json(path, reread);
  std::remove(path.c_str());
  ASSERT_GT(events, 0);

  // The exporter truncates timestamps to nanoseconds, so absolute times
  // shift; chain accounting and the conservation identity must survive
  // the round trip exactly.
  EXPECT_EQ(reread.total().chains, direct.total().chains);
  EXPECT_EQ(reread.stats().unbegun, direct.stats().unbegun);
  EXPECT_EQ(reread.services().size(), direct.services().size());
  EXPECT_TRUE(reread.violations().empty());
}

/**
 * Every span names its chain: on the tiny traced run, under every
 * orchestrator, no recorded complete or instant span carries flow 0 (the
 * Analyzer would drop its time), and every accelerated kind attributes
 * its IOMMU walks to translation.
 */
TEST(FlowAttribution, EverySpanNamesItsChainUnderEveryOrchestrator) {
  for (std::size_t k = 0; k < core::kNumOrchKinds; ++k) {
    const auto kind = static_cast<core::OrchKind>(k);
    SCOPED_TRACE(std::string(core::name_of(kind)));
    obs::Tracer tracer(1u << 20);
    workload::ExperimentConfig cfg = tiny_config();
    cfg.kind = kind;
    cfg.tracer = &tracer;
    workload::run_experiment(cfg);
    ASSERT_EQ(tracer.dropped(), 0u);

    std::map<std::string_view, std::uint64_t> unattributed;
    tracer.for_each([&](const obs::SpanEvent& e) {
      const bool span = e.phase == obs::Phase::kComplete ||
                        e.phase == obs::Phase::kInstant;
      if (span && e.flow == 0) ++unattributed[obs::name_of(e.kind)];
    });
    for (const auto& [name, count] : unattributed) {
      ADD_FAILURE() << count << " " << name << " spans carry flow 0";
    }

    Analyzer a;
    a.analyze(tracer);
    EXPECT_TRUE(a.violations().empty());
    if (kind != core::OrchKind::kNonAcc) {
      EXPECT_GT(a.total().by_category[static_cast<std::size_t>(
                    Category::kTranslation)],
                0);
    }
  }
}

// --- Conservation under fuzzer-generated programs ------------------------

/** Deterministic cost environment (modeled on check/differential.cc). */
class FuzzEnv final : public core::ChainEnv {
 public:
  sim::TimePs op_cpu_cost(core::ChainContext&, accel::AccelType type,
                          std::uint64_t payload_bytes) override {
    const auto idx = static_cast<std::uint64_t>(accel::index_of(type));
    return sim::nanoseconds(
        static_cast<double>(300 + 90 * idx + payload_bytes / 8));
  }
  std::uint64_t transformed_size(accel::AccelType,
                                 std::uint64_t bytes) override {
    return bytes < 16 ? 16 : bytes;
  }
  sim::TimePs remote_latency(core::ChainContext&, core::RemoteKind k) override {
    return sim::microseconds(5.0 + static_cast<double>(static_cast<int>(k)));
  }
  std::uint64_t response_size(core::ChainContext&, core::RemoteKind) override {
    return 1024;
  }
};

/**
 * Every picosecond of every chain the tracer closes must be attributed
 * exactly once, whatever shape the trace program takes: 1000 random
 * programs (branches, transforms, mid-chain notifies, remote tails, ATM
 * chains), run through the real engine with the tracer attached, zero
 * conservation violations.
 */
TEST(ConservationFuzz, OneThousandGeneratedPrograms) {
  constexpr int kCases = 200;
  constexpr int kProgramsPerCase = 5;
  int programs_run = 0;
  for (int c = 0; c < kCases; ++c) {
    core::TraceLibrary lib;
    sim::Rng rng(0xC0117A7E + static_cast<std::uint64_t>(c) * 7919);
    std::vector<check::GeneratedProgram> progs;
    for (int p = 0; p < kProgramsPerCase; ++p) {
      progs.push_back(check::generate_program(
          lib, rng, "fuzz" + std::to_string(c) + "_" + std::to_string(p)));
    }

    obs::Tracer tracer(1u << 16);
    core::MachineConfig mc;
    core::Machine machine(mc);
    machine.set_tracer(&tracer);
    machine.load_traces(lib);
    auto orch = core::make_orchestrator(core::OrchKind::kAccelFlow, machine,
                                        lib, core::EngineConfig{});

    FuzzEnv env;
    std::vector<std::unique_ptr<core::ChainContext>> ctxs;
    for (std::size_t i = 0; i < progs.size(); ++i) {
      auto ctx = std::make_unique<core::ChainContext>();
      ctx->request = static_cast<accel::RequestId>(i + 1);
      ctx->chain = 0;
      ctx->tenant = static_cast<accel::TenantId>(i % 4);
      ctx->core = static_cast<int>(i % 8);
      ctx->flags.compressed = (i & 1) != 0;
      ctx->flags.hit = (i & 2) != 0;
      ctx->initial_bytes = 256 + 128 * i;
      ctx->env = &env;
      ctx->rng.reseed(0x5EED0000 + i);
      ctx->on_done = [](const core::ChainResult&) {};
      core::ChainContext* raw = ctx.get();
      core::Orchestrator* o = orch.get();
      const core::AtmAddr start = progs[i].start;
      machine.sim().schedule_at(sim::microseconds(i),
                                [o, raw, start] { o->run_chain(raw, start); });
      ctxs.push_back(std::move(ctx));
      ++programs_run;
    }
    machine.sim().run();

    Analyzer a;
    a.analyze(tracer);
    EXPECT_TRUE(a.violations().empty())
        << "case " << c << ": " << a.violations().front();
    EXPECT_EQ(a.total().chains + a.stats().incomplete +
                  a.stats().unbegun,
              progs.size())
        << "case " << c;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(programs_run, kCases * kProgramsPerCase);
}

// --- AutoTuner -----------------------------------------------------------

TEST(AutoTuner, RecoversFromStarvedPePools) {
  // A deliberately PE-starved machine under moderate load: the tuner must
  // find a strictly better operating point within a few probes, and the
  // whole climb must be deterministic.
  obs::Tracer tracer(1u << 18);
  workload::ExperimentConfig cfg = tiny_config();
  cfg.per_service_rps.assign(cfg.specs.size(), 6000.0);
  cfg.machine.pes_per_accel = 2;
  cfg.machine.accel_queue_entries = 16;
  cfg.tracer = &tracer;

  workload::SweepSession session(cfg);
  workload::AutoTuner::Options opts;
  opts.max_probes = 4;
  workload::AutoTuner tuner(session, opts);
  const workload::AutoTuneResult result = tuner.tune();

  EXPECT_GT(result.baseline_mean_us, 0.0);
  EXPECT_GT(result.improvement(), 1.0)
      << "baseline " << result.baseline_mean_us << " us, tuned "
      << result.tuned_mean_us << " us";
  ASSERT_GE(result.steps.size(), 2u);
  EXPECT_EQ(result.steps[0].action, "baseline");
  EXPECT_TRUE(result.steps[0].accepted);
  // The accepted moves' knob vector is what the result reports as best.
  EXPECT_GT(tuner.final_analysis().total().chains, 0u);
  EXPECT_TRUE(tuner.final_analysis().violations().empty());

  // Determinism: an identical session replays the identical trajectory.
  obs::Tracer tracer2(1u << 18);
  workload::ExperimentConfig cfg2 = cfg;
  cfg2.tracer = &tracer2;
  workload::SweepSession session2(cfg2);
  workload::AutoTuner tuner2(session2, opts);
  const workload::AutoTuneResult replay = tuner2.tune();
  EXPECT_EQ(replay.baseline_mean_us, result.baseline_mean_us);
  EXPECT_EQ(replay.tuned_mean_us, result.tuned_mean_us);
  ASSERT_EQ(replay.steps.size(), result.steps.size());
  for (std::size_t i = 0; i < replay.steps.size(); ++i) {
    EXPECT_EQ(replay.steps[i].action, result.steps[i].action) << i;
    EXPECT_EQ(replay.steps[i].mean_us, result.steps[i].mean_us) << i;
    EXPECT_EQ(replay.steps[i].accepted, result.steps[i].accepted) << i;
  }
}

}  // namespace
}  // namespace accelflow::critpath
