/**
 * @file
 * Tests for the observability layer (src/obs): span vocabulary, tracer ring
 * buffer, metrics registry, Chrome-trace export stability
 * (golden file), and the determinism contract — a traced run must be
 * event-for-event identical to an untraced one.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "mem/iommu.h"
#include "mem/memory_system.h"
#include "noc/interconnect.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/tracer.h"
#include "sim/simulator.h"
#include "workload/experiment.h"

namespace accelflow::obs {
namespace {

// --- Span vocabulary ---------------------------------------------------

TEST(Span, NamesAreStable) {
  EXPECT_EQ(name_of(Subsys::kEngine), "engine");
  EXPECT_EQ(name_of(Subsys::kMem), "mem");
  EXPECT_EQ(name_of(Subsys::kCpu), "cpu");
  EXPECT_EQ(name_of(SpanKind::kQueueWait), "queue_wait");
  EXPECT_EQ(name_of(SpanKind::kPeExecute), "pe_execute");
  EXPECT_EQ(name_of(SpanKind::kChainDone), "chain_done");
  EXPECT_EQ(name_of(SpanKind::kTimeout), "timeout");
}

TEST(Span, FlowIdPacksRequestAndChain) {
  EXPECT_EQ(flow_id(5, 2), (5u << 8) | 2u);
  EXPECT_NE(flow_id(5, 0), flow_id(5, 1));
  EXPECT_NE(flow_id(5, 0), flow_id(6, 0));
  // The chain index occupies the low byte only.
  EXPECT_EQ(flow_id(0, 0x1FF), 0xFFu);
}

// --- Tracer recording ------------------------------------------------

TEST(Tracer, RecordsInOrder) {
  Tracer t(16);
  t.complete(Subsys::kAccel, SpanKind::kQueueWait, 3, 100, 250, 512, 7);
  t.instant(Subsys::kMem, SpanKind::kTlbMiss, 1, 260, 0, 7);
  t.complete(Subsys::kAccel, SpanKind::kPeExecute, 0, 250, 900, 512, 7);

  std::vector<SpanEvent> got;
  t.for_each([&](const SpanEvent& e) { got.push_back(e); });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].kind, SpanKind::kQueueWait);
  EXPECT_EQ(got[0].ts, 100);
  EXPECT_EQ(got[0].dur, 150);
  EXPECT_EQ(got[0].arg, 512u);
  EXPECT_EQ(got[0].flow, 7u);
  EXPECT_EQ(got[1].phase, Phase::kInstant);
  EXPECT_EQ(got[2].tid, 0u);
  EXPECT_EQ(t.recorded(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingWrapsOverwritingOldest) {
  Tracer t(8);
  EXPECT_EQ(t.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.instant(Subsys::kEngine, SpanKind::kChainDone, 0,
              static_cast<sim::TimePs>(i), /*arg=*/i, /*flow=*/0);
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  // The surviving window is the most recent one, oldest-to-newest.
  std::vector<std::uint64_t> args;
  t.for_each([&](const SpanEvent& e) { args.push_back(e.arg); });
  EXPECT_EQ(args, (std::vector<std::uint64_t>{12, 13, 14, 15, 16, 17, 18, 19}));
}

TEST(Tracer, NestedSpansStayContained) {
  // A span emitted for an inner stage (PE execute) must sit inside its
  // enclosing stage's window (queue admission -> chain done), and the ring
  // preserves emission order so the exporter never has to sort.
  Tracer t(16);
  const FlowId f = flow_id(1, 0);
  t.complete(Subsys::kEngine, SpanKind::kEnqueue, 0, 100, 100, 0, f);
  t.complete(Subsys::kAccel, SpanKind::kQueueWait, 30, 100, 400, 0, f);
  t.complete(Subsys::kAccel, SpanKind::kPeExecute, 2, 400, 800, 0, f);
  t.instant(Subsys::kEngine, SpanKind::kChainDone, 0, 900, 0, f);

  std::vector<SpanEvent> got;
  t.for_each([&](const SpanEvent& e) { got.push_back(e); });
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i].ts, got[i - 1].ts);  // Emission order is time order.
    EXPECT_EQ(got[i].flow, f);
  }
  EXPECT_GE(got[2].ts, got[1].ts);
  EXPECT_LE(got[2].ts + got[2].dur, got[3].ts);
}

// --- Metrics registry ---------------------------------------------------

TEST(Metrics, SetAddGet) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.set("engine.chains", 3));
  EXPECT_TRUE(reg.add("engine.chains", 2));
  EXPECT_DOUBLE_EQ(reg.get("engine.chains"), 5.0);
  EXPECT_TRUE(reg.contains("engine.chains"));
  EXPECT_FALSE(reg.contains("engine.missing"));
  EXPECT_DOUBLE_EQ(reg.get("engine.missing", -1.0), -1.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, KindCollisionIsRejectedAndCounted) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.set("accel.tcp.jobs", 10, MetricsRegistry::Kind::kCounter));
  // A second component trying to export a gauge under the same name is a
  // bug; the write must bounce and leave the original value intact.
  EXPECT_FALSE(reg.set("accel.tcp.jobs", 0.5, MetricsRegistry::Kind::kGauge));
  EXPECT_FALSE(reg.add("accel.tcp.jobs", 1, MetricsRegistry::Kind::kGauge));
  EXPECT_DOUBLE_EQ(reg.get("accel.tcp.jobs"), 10.0);
  EXPECT_EQ(reg.collisions(), 2u);
}

TEST(Metrics, MalformedNamesAreRejected) {
  for (const char* bad : {"", ".", "a..b", ".a", "a.", "A.b", "a b", "a-b"}) {
    EXPECT_FALSE(MetricsRegistry::valid_name(bad)) << bad;
  }
  for (const char* good : {"a", "a.b", "accel.tcp.jobs", "x0.y_1"}) {
    EXPECT_TRUE(MetricsRegistry::valid_name(good)) << good;
  }
  MetricsRegistry reg;
  EXPECT_FALSE(reg.set("Accel.Jobs", 1));
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.collisions(), 1u);
}

TEST(Metrics, JsonIsSortedByName) {
  MetricsRegistry reg;
  reg.set("noc.hops", 4);
  reg.set("accel.tcp.jobs", 2);
  reg.set("mem.tlb.miss_rate", 0.25, MetricsRegistry::Kind::kGauge);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  // Sorted: accel < mem < noc, regardless of registration order.
  EXPECT_LT(json.find("accel.tcp.jobs"), json.find("mem.tlb.miss_rate"));
  EXPECT_LT(json.find("mem.tlb.miss_rate"), json.find("noc.hops"));
  EXPECT_NE(json.find("\"noc.hops\": 4"), std::string::npos) << json;
}

TEST(Metrics, MetricPathLowercasesEnumNames) {
  EXPECT_EQ(metric_path("accel", "TCP"), "accel.tcp");
  EXPECT_EQ(metric_path("engine.fallbacks", "LdB"), "engine.fallbacks.ldb");
}

// --- Golden Chrome-trace export ----------------------------------------

/**
 * Drives two real accelerators (with their TLBs) on one simulator and pins
 * the exported Chrome-trace JSON byte-for-byte against a committed golden
 * file. Regenerate after an intentional format change with:
 *   AF_REGOLD=1 ./tests/test_obs --gtest_filter='*Golden*'
 * (run from the build directory), then commit the refreshed file.
 */
class GoldenTraceTest : public ::testing::Test {
 protected:
  class ReleasingHandler : public accel::OutputHandler {
   public:
    void handle_output(accel::Accelerator& acc, accel::SlotId slot) override {
      acc.release_output(slot);
    }
  };

  GoldenTraceTest() {
    mem_ = std::make_unique<mem::MemorySystem>(sim_, mem::MemParams{});
    iommu_ = std::make_unique<mem::Iommu>(sim_, *mem_, mem::WalkParams{});
  }

  std::unique_ptr<accel::Accelerator> make(accel::AccelType type,
                                           std::uint32_t index) {
    accel::AccelParams p;
    p.type = type;
    p.num_pes = 2;
    p.input_queue_entries = 4;
    p.output_queue_entries = 4;
    p.speedup = 4.0;
    auto acc = std::make_unique<accel::Accelerator>(
        sim_, p, *mem_, *iommu_, noc::Location{0, {0, 0}});
    acc->set_output_handler(&handler_);
    acc->set_tracer(&tracer_, index);
    return acc;
  }

  static accel::QueueEntry entry(std::uint64_t request, std::uint32_t chain,
                                 sim::TimePs cpu_cost, std::uint64_t bytes) {
    accel::QueueEntry e;
    e.flow = flow_id(request, chain);
    e.tenant = 1;
    e.cpu_cost = cpu_cost;
    e.payload.size_bytes = bytes;
    return e;
  }

  sim::Simulator sim_;
  Tracer tracer_;
  ReleasingHandler handler_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<mem::Iommu> iommu_;
};

TEST_F(GoldenTraceTest, ExportMatchesGoldenFile) {
  auto ser = make(accel::AccelType::kSer, 0);
  auto cmp = make(accel::AccelType::kCmp, 1);
  tracer_.name_thread(Subsys::kAccel, 0, "Ser.pe0");
  tracer_.name_thread(Subsys::kAccel, 1, "Ser.pe1");
  tracer_.name_thread(Subsys::kAccel, accel::Accelerator::kQueueTid,
                      "Ser.queue");
  tracer_.name_thread(Subsys::kAccel, accel::Accelerator::kTidStride,
                      "Cmp.pe0");
  tracer_.name_thread(Subsys::kMem, 0, "iommu");

  // Three jobs: two on Ser (same request, two chains), one on Cmp.
  for (const auto& e : {entry(1, 0, sim::microseconds(4), 512),
                        entry(1, 1, sim::microseconds(2), 256)}) {
    const auto slot = ser->try_enqueue(e);
    ASSERT_NE(slot, accel::kInvalidSlot);
    ser->deliver_data(slot);
  }
  const auto slot = cmp->try_enqueue(entry(2, 0, sim::microseconds(1), 2048));
  ASSERT_NE(slot, accel::kInvalidSlot);
  cmp->deliver_data(slot);
  sim_.run();

  std::ostringstream os;
  tracer_.export_chrome_json(os);
  const std::string got = os.str();

  const std::string path = std::string(AF_TEST_GOLDEN_DIR) + "/tiny_trace.json";
  if (std::getenv("AF_REGOLD") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with AF_REGOLD=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "exported Chrome-trace JSON drifted from " << path
      << "; if intentional, regenerate with AF_REGOLD=1";
}

// --- Determinism: tracing must not perturb the simulation ----------------

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

TEST(Determinism, TracedRunIsEventForEventIdenticalToUntraced) {
  auto base = tiny_config();
  MetricsRegistry untraced_metrics;
  base.metrics = &untraced_metrics;
  const auto untraced = workload::run_experiment(base);

  auto traced_cfg = tiny_config();
  Tracer tracer;  // Default capacity; drops are fine, recording must not
                  // feed back into the model either way.
  MetricsRegistry traced_metrics;
  traced_cfg.tracer = &tracer;
  traced_cfg.metrics = &traced_metrics;
  const auto traced = workload::run_experiment(traced_cfg);

  EXPECT_GT(tracer.recorded(), 0u);

  // The kernel executed the same event sequence: same count, same end time.
  EXPECT_EQ(traced_metrics.get("sim.events"),
            untraced_metrics.get("sim.events"));
  EXPECT_EQ(traced_metrics.get("sim.now_ps"),
            untraced_metrics.get("sim.now_ps"));

  // And every exported counter agrees bit-for-bit.
  const auto a = traced_metrics.to_counter_set();
  const auto b = untraced_metrics.to_counter_set();
  ASSERT_EQ(a.items().size(), b.items().size());
  for (std::size_t i = 0; i < a.items().size(); ++i) {
    EXPECT_EQ(a.items()[i].first, b.items()[i].first);
    EXPECT_EQ(a.items()[i].second, b.items()[i].second)
        << a.items()[i].first;
  }

  // Latency results too (doubles compared exactly: bit-identical runs).
  EXPECT_EQ(traced.total_completed(), untraced.total_completed());
  EXPECT_EQ(traced.avg_mean_us, untraced.avg_mean_us);
  EXPECT_EQ(traced.avg_p99_us, untraced.avg_p99_us);
}

TEST(Determinism, ExperimentTraceCoversFiveSubsystems) {
  auto cfg = tiny_config();
  Tracer tracer(1u << 18);
  cfg.tracer = &tracer;
  workload::run_experiment(cfg);

  bool seen[kNumSubsys] = {};
  std::uint64_t flows = 0;
  tracer.for_each([&](const SpanEvent& e) {
    seen[static_cast<std::size_t>(e.subsys)] = true;
    if (e.phase == Phase::kFlowBegin || e.phase == Phase::kFlowEnd) ++flows;
  });
  EXPECT_TRUE(seen[static_cast<std::size_t>(Subsys::kEngine)]);
  EXPECT_TRUE(seen[static_cast<std::size_t>(Subsys::kAccel)]);
  EXPECT_TRUE(seen[static_cast<std::size_t>(Subsys::kDma)]);
  EXPECT_TRUE(seen[static_cast<std::size_t>(Subsys::kNoc)]);
  EXPECT_TRUE(seen[static_cast<std::size_t>(Subsys::kMem)]);
  EXPECT_GT(flows, 0u);
}

}  // namespace
}  // namespace accelflow::obs
