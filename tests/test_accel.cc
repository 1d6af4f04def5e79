/**
 * @file
 * Unit tests for the accelerator hardware model: queues, PEs, dispatch
 * policies, overflow, blocking, tenant wipes, TLB integration, DMA pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/accelerator.h"
#include "accel/dma.h"
#include "accel/sram_queue.h"
#include "mem/iommu.h"
#include "mem/memory_system.h"
#include "noc/interconnect.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace accelflow::accel {
namespace {

TEST(SramQueue, AllocateReleaseCycle) {
  SramQueue q(4);
  EXPECT_TRUE(q.empty());
  std::vector<SlotId> slots;
  for (int i = 0; i < 4; ++i) {
    QueueEntry e;
    e.flow = static_cast<obs::FlowId>(i);
    const SlotId s = q.allocate(std::move(e));
    ASSERT_NE(s, kInvalidSlot);
    slots.push_back(s);
  }
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.allocate(QueueEntry{}), kInvalidSlot);
  EXPECT_EQ(q.stats().alloc_failures, 1u);
  q.release(slots[2]);
  EXPECT_FALSE(q.full());
  EXPECT_NE(q.allocate(QueueEntry{}), kInvalidSlot);
  EXPECT_EQ(q.stats().max_occupancy, 4u);
}

TEST(SramQueue, SeqStampsAreFifoOrder) {
  SramQueue q(8);
  const SlotId a = q.allocate(QueueEntry{});
  const SlotId b = q.allocate(QueueEntry{});
  EXPECT_LT(q.at(a).seq, q.at(b).seq);
}

TEST(SramQueue, ForEachVisitsOccupiedOnly) {
  SramQueue q(4);
  const SlotId a = q.allocate(QueueEntry{});
  const SlotId b = q.allocate(QueueEntry{});
  q.release(a);
  int visited = 0;
  q.for_each_occupied([&](SlotId s, QueueEntry&) {
    EXPECT_EQ(s, b);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

/** Test fixture with a minimal memory substrate and one accelerator. */
class AcceleratorTest : public ::testing::Test {
 protected:
  AcceleratorTest() {
    mem_ = std::make_unique<mem::MemorySystem>(sim_, mem::MemParams{});
    mem::WalkParams wp;
    iommu_ = std::make_unique<mem::Iommu>(sim_, *mem_, wp);
  }

  std::unique_ptr<Accelerator> make(AccelParams p) {
    return std::make_unique<Accelerator>(sim_, p, *mem_, *iommu_,
                                         noc::Location{0, {0, 0}});
  }

  static AccelParams small_params(int pes = 2, std::size_t queue = 4) {
    AccelParams p;
    p.type = AccelType::kSer;
    p.num_pes = pes;
    p.input_queue_entries = queue;
    p.output_queue_entries = queue;
    p.speedup = 4.0;
    return p;
  }

  static QueueEntry entry(sim::TimePs cpu_cost, std::uint64_t bytes = 512,
                          TenantId tenant = 1) {
    QueueEntry e;
    e.cpu_cost = cpu_cost;
    e.payload.size_bytes = bytes;
    e.tenant = tenant;
    return e;
  }

  sim::Simulator sim_;
  std::unique_ptr<mem::MemorySystem> mem_;
  std::unique_ptr<mem::Iommu> iommu_;
};

/** Output handler that counts completions and releases slots. */
class CountingHandler : public OutputHandler {
 public:
  void handle_output(Accelerator& acc, SlotId slot) override {
    ++outputs;
    last_entry = acc.output_entry(slot);
    if (hold) {
      held.push_back({&acc, slot});
      return;
    }
    acc.release_output(slot);
  }
  void release_all() {
    // Releasing a slot can re-enter handle_output (an unblocked PE deposits
    // its pending result) and grow `held` mid-iteration; drain in batches
    // instead of iterating the live vector.
    while (!held.empty()) {
      std::vector<std::pair<Accelerator*, SlotId>> batch;
      batch.swap(held);
      for (auto& [acc, slot] : batch) acc->release_output(slot);
    }
  }
  int outputs = 0;
  bool hold = false;
  QueueEntry last_entry;
  std::vector<std::pair<Accelerator*, SlotId>> held;
};

TEST_F(AcceleratorTest, ComputeTimeIsCpuCostOverSpeedup) {
  auto acc = make(small_params());
  CountingHandler handler;
  acc->set_output_handler(&handler);

  const SlotId s = acc->try_enqueue(entry(sim::microseconds(4)));
  ASSERT_NE(s, kInvalidSlot);
  acc->deliver_data(s);
  sim_.run();
  EXPECT_EQ(handler.outputs, 1);
  // 4us / speedup 4 = 1us compute, plus 10ns load latency + transfer.
  EXPECT_GE(sim_.now(), sim::microseconds(1));
  EXPECT_LT(sim_.now(), sim::microseconds(1.2));
  EXPECT_EQ(acc->stats().jobs, 1u);
}

TEST_F(AcceleratorTest, EntryNotDispatchedUntilDataDelivered) {
  auto acc = make(small_params());
  CountingHandler handler;
  acc->set_output_handler(&handler);
  const SlotId s = acc->try_enqueue(entry(sim::microseconds(1)));
  sim_.run();
  EXPECT_EQ(handler.outputs, 0);  // No data yet.
  acc->deliver_data(s);
  sim_.run();
  EXPECT_EQ(handler.outputs, 1);
}

TEST_F(AcceleratorTest, EnqueuedEntryWaitsForItsDataEvenIfMarkedReady) {
  // The queue owns readiness: an entry copied from an output slot may
  // arrive with its ready bit set, yet it must not dispatch before its
  // data is delivered. The priority policy scans every occupied slot, so
  // a stale bit would let the undelivered entry run.
  AccelParams p = small_params(/*pes=*/2);
  p.policy = SchedPolicy::kPriority;
  auto acc = make(p);
  CountingHandler handler;
  acc->set_output_handler(&handler);
  QueueEntry stale = entry(sim::microseconds(1));
  stale.ready = true;
  ASSERT_NE(acc->try_enqueue(std::move(stale)), kInvalidSlot);
  const SlotId s = acc->try_enqueue(entry(sim::microseconds(1)));
  ASSERT_NE(s, kInvalidSlot);
  acc->deliver_data(s);
  sim_.run();
  EXPECT_EQ(handler.outputs, 1);
}

TEST_F(AcceleratorTest, PesRunInParallel) {
  auto acc = make(small_params(/*pes=*/2));
  CountingHandler handler;
  acc->set_output_handler(&handler);
  for (int i = 0; i < 2; ++i) {
    const SlotId s = acc->try_enqueue(entry(sim::microseconds(4)));
    acc->deliver_data(s);
  }
  sim_.run();
  EXPECT_EQ(handler.outputs, 2);
  // Both ran concurrently: ~1us, not ~2us.
  EXPECT_LT(sim_.now(), sim::microseconds(1.5));
}

TEST_F(AcceleratorTest, JobsQueueWhenPesBusy) {
  auto acc = make(small_params(/*pes=*/1));
  CountingHandler handler;
  acc->set_output_handler(&handler);
  for (int i = 0; i < 3; ++i) {
    const SlotId s = acc->try_enqueue(entry(sim::microseconds(4)));
    acc->deliver_data(s);
  }
  sim_.run();
  EXPECT_EQ(handler.outputs, 3);
  EXPECT_GE(sim_.now(), sim::microseconds(3));
  EXPECT_GT(acc->stats().input_queue_delay.max(), 0u);
}

TEST_F(AcceleratorTest, FullOutputQueueBlocksPe) {
  AccelParams p = small_params(/*pes=*/1, /*queue=*/2);
  p.input_queue_entries = 8;   // Stage all four jobs.
  p.output_queue_entries = 2;  // Force output-side back-pressure.
  auto acc = make(p);
  CountingHandler handler;
  handler.hold = true;  // Occupy output slots.
  acc->set_output_handler(&handler);
  for (int i = 0; i < 4; ++i) {
    const SlotId s = acc->try_enqueue(entry(sim::microseconds(1)));
    ASSERT_NE(s, kInvalidSlot);
    acc->deliver_data(s);
  }
  sim_.run();
  // 2 outputs deposited, then the PE blocks with its third result.
  EXPECT_EQ(handler.outputs, 2);
  // Hold the queue full a while longer so the blocked interval is visible.
  sim_.schedule_after(sim::microseconds(5), [&] { handler.release_all(); });
  sim_.run();
  EXPECT_EQ(handler.outputs, 4);
  handler.release_all();
  sim_.run();
  EXPECT_GT(acc->stats().pe_blocked_time, 0u);
}

/** Frees every output slot after a random dispatcher delay, either as a
 *  calendar event of its own (the eager reference) or through
 *  release_output_at. Logs each output's (time, slot): a slot popped in a
 *  different free-list order or at a different time shows up. */
class DelayedReleaseHandler : public OutputHandler {
 public:
  DelayedReleaseHandler(sim::Simulator& sim, bool lazy)
      : sim_(sim), lazy_(lazy), rng_(0x5EED) {}
  void handle_output(Accelerator& acc, SlotId slot) override {
    log.emplace_back(sim_.now(), slot);
    // A 1 ns grid, so releases tie with PE completions and each other.
    const sim::TimePs when = sim_.now() + 1000 * rng_.next_below(40);
    if (lazy_) {
      acc.release_output_at(when, slot);
    } else {
      sim_.schedule_at(when, [&acc, slot] { acc.release_output(slot); });
    }
  }
  std::vector<std::pair<sim::TimePs, SlotId>> log;

 private:
  sim::Simulator& sim_;
  bool lazy_;
  sim::Rng rng_;
};

/** Everything a lazy-vs-eager release run must agree on. */
struct ReleaseRun {
  std::vector<std::pair<sim::TimePs, SlotId>> log;
  std::uint64_t releases = 0;
  sim::TimePs blocked = 0;
  sim::TimePs end = 0;
};

ReleaseRun run_delayed_releases(bool lazy) {
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::MemParams{});
  mem::Iommu iommu(sim, mem, mem::WalkParams{});
  AccelParams p;
  p.num_pes = 2;
  p.input_queue_entries = 64;
  p.output_queue_entries = 3;
  p.speedup = 1.0;
  Accelerator acc(sim, p, mem, iommu, noc::Location{0, {0, 0}});
  DelayedReleaseHandler handler(sim, lazy);
  acc.set_output_handler(&handler);
  sim::Rng rng(0xACC);
  for (int i = 0; i < 600; ++i) {
    const sim::TimePs cost = 500 * (1 + rng.next_below(4));
    sim.schedule_at(1000 * rng.next_below(4000), [&acc, cost] {
      QueueEntry e;
      e.cpu_cost = cost;
      e.payload.size_bytes = 0;
      e.tenant = 1;
      const SlotId s = acc.try_enqueue(std::move(e));
      if (s != kInvalidSlot) acc.deliver_data(s);
    });
  }
  // A deferred release does not move the clock by itself: the caller's
  // own later event does (the engine always has one, DESIGN.md §10). This
  // one stands in for it, past all the work.
  sim.schedule_at(sim::microseconds(10), [] {});
  sim.run();
  return ReleaseRun{handler.log, acc.output_stats().releases,
                    acc.stats().pe_blocked_time, sim.now()};
}

TEST(LazyOutputRelease, MatchesEagerReleaseEvents) {
  // Three output slots, two PEs and release delays on a 1 ns grid: PEs
  // block often, releases are posted and reclaimed in every interleaving,
  // and the free list (a LIFO stack) must hand out the same slots at the
  // same times as with one calendar event per release.
  const ReleaseRun eager = run_delayed_releases(/*lazy=*/false);
  const ReleaseRun lazy = run_delayed_releases(/*lazy=*/true);
  ASSERT_GT(eager.blocked, 0u);
  EXPECT_EQ(eager.log.size(), 600u);
  EXPECT_EQ(lazy.log, eager.log);
  EXPECT_EQ(lazy.releases, eager.releases);
  EXPECT_EQ(lazy.blocked, eager.blocked);
  EXPECT_EQ(lazy.end, eager.end);
}

TEST_F(AcceleratorTest, TenantWipeBetweenTenants) {
  auto acc = make(small_params(/*pes=*/1));
  CountingHandler handler;
  acc->set_output_handler(&handler);
  const SlotId a = acc->try_enqueue(entry(sim::microseconds(1), 512, 1));
  acc->deliver_data(a);
  sim_.run();
  const SlotId b = acc->try_enqueue(entry(sim::microseconds(1), 512, 2));
  acc->deliver_data(b);
  sim_.run();
  const SlotId c = acc->try_enqueue(entry(sim::microseconds(1), 512, 2));
  acc->deliver_data(c);
  sim_.run();
  // Wipes: 1 -> 2 (yes), 2 -> 2 (no).
  EXPECT_EQ(acc->stats().tenant_wipes, 1u);
}

TEST_F(AcceleratorTest, LargePayloadFetchesThroughMemoryPointer) {
  auto acc = make(small_params());
  CountingHandler handler;
  acc->set_output_handler(&handler);
  const SlotId s =
      acc->try_enqueue(entry(sim::microseconds(1), /*bytes=*/8192));
  acc->deliver_data(s);
  sim_.run();
  EXPECT_EQ(acc->stats().large_payload_jobs, 1u);
  EXPECT_GT(acc->tlb_stats().lookups, 0u);
}

TEST_F(AcceleratorTest, OverflowAreaAbsorbsFullQueue) {
  AccelParams p = small_params(/*pes=*/1, /*queue=*/2);
  p.overflow_capacity = 4;
  auto acc = make(p);
  CountingHandler handler;
  acc->set_output_handler(&handler);
  // Fill the input queue with undelivered entries so it stays full.
  const SlotId s1 = acc->try_enqueue(entry(sim::microseconds(1)));
  const SlotId s2 = acc->try_enqueue(entry(sim::microseconds(1)));
  ASSERT_TRUE(acc->input_full());
  EXPECT_TRUE(acc->overflow_enqueue(entry(sim::microseconds(1))));
  EXPECT_EQ(acc->overflow_occupancy(), 1u);
  // Deliver the queued entries: they dispatch, freeing slots, and the
  // overflow entry drains into the queue and eventually completes.
  acc->deliver_data(s1);
  acc->deliver_data(s2);
  sim_.run();
  EXPECT_EQ(handler.outputs, 3);
  EXPECT_EQ(acc->overflow_occupancy(), 0u);
}

TEST_F(AcceleratorTest, OverflowRejectsWhenFull) {
  AccelParams p = small_params(/*pes=*/1, /*queue=*/1);
  p.overflow_capacity = 1;
  auto acc = make(p);
  CountingHandler handler;
  acc->set_output_handler(&handler);
  (void)acc->try_enqueue(entry(sim::microseconds(1)));
  EXPECT_TRUE(acc->overflow_enqueue(entry(sim::microseconds(1))));
  EXPECT_FALSE(acc->overflow_enqueue(entry(sim::microseconds(1))));
  EXPECT_EQ(acc->stats().overflow_rejections, 1u);
}

TEST_F(AcceleratorTest, OverflowAccountingConserves) {
  // Rejected entries must not count as enqueues: the checker audits
  // overflow_enqueues == overflow_drains + overflow_occupancy() at all
  // times, including right after a rejection.
  AccelParams p = small_params(/*pes=*/1, /*queue=*/1);
  p.overflow_capacity = 2;
  auto acc = make(p);
  CountingHandler handler;
  acc->set_output_handler(&handler);
  const SlotId s = acc->try_enqueue(entry(sim::microseconds(1)));
  EXPECT_TRUE(acc->overflow_enqueue(entry(sim::microseconds(1))));
  EXPECT_TRUE(acc->overflow_enqueue(entry(sim::microseconds(1))));
  EXPECT_FALSE(acc->overflow_enqueue(entry(sim::microseconds(1))));
  EXPECT_EQ(acc->stats().overflow_enqueues, 2u);
  EXPECT_EQ(acc->stats().overflow_enqueues,
            acc->stats().overflow_drains + acc->overflow_occupancy());
  acc->deliver_data(s);
  sim_.run();
  EXPECT_EQ(acc->stats().overflow_enqueues, 2u);
  EXPECT_EQ(acc->stats().overflow_drains, 2u);
  EXPECT_EQ(acc->overflow_occupancy(), 0u);
  EXPECT_EQ(handler.outputs, 3);
}

TEST_F(AcceleratorTest, ReleaseInputFreesWaitSlot) {
  AccelParams p = small_params(/*pes=*/1, /*queue=*/1);
  auto acc = make(p);
  CountingHandler handler;
  acc->set_output_handler(&handler);
  const SlotId s = acc->try_enqueue(entry(sim::microseconds(1)));
  EXPECT_TRUE(acc->input_full());
  acc->release_input(s);  // Timeout path.
  EXPECT_FALSE(acc->input_full());
  sim_.run();
  EXPECT_EQ(handler.outputs, 0);
}

TEST_F(AcceleratorTest, FifoPolicyDispatchesInArrivalOrder) {
  auto acc = make(small_params(/*pes=*/1));
  CountingHandler handler;
  acc->set_output_handler(&handler);
  std::vector<obs::FlowId> order;
  // Track completion order through the handler.
  class OrderHandler : public OutputHandler {
   public:
    explicit OrderHandler(std::vector<obs::FlowId>* order) : order_(order) {}
    void handle_output(Accelerator& acc, SlotId slot) override {
      order_->push_back(acc.output_entry(slot).flow);
      acc.release_output(slot);
    }
    std::vector<obs::FlowId>* order_;
  } ordered(&order);
  acc->set_output_handler(&ordered);
  for (obs::FlowId id = 1; id <= 3; ++id) {
    QueueEntry e = entry(sim::microseconds(1));
    e.flow = id;
    const SlotId s = acc->try_enqueue(std::move(e));
    acc->deliver_data(s);
  }
  sim_.run();
  EXPECT_EQ(order, (std::vector<obs::FlowId>{1, 2, 3}));
}

TEST_F(AcceleratorTest, EdfPolicyPrefersUrgentEntries) {
  AccelParams p = small_params(/*pes=*/1);
  p.policy = SchedPolicy::kEdf;
  auto acc = make(p);
  std::vector<obs::FlowId> order;
  class OrderHandler : public OutputHandler {
   public:
    explicit OrderHandler(std::vector<obs::FlowId>* order) : order_(order) {}
    void handle_output(Accelerator& acc, SlotId slot) override {
      order_->push_back(acc.output_entry(slot).flow);
      acc.release_output(slot);
    }
    std::vector<obs::FlowId>* order_;
  } ordered(&order);
  acc->set_output_handler(&ordered);

  // Occupy the PE so later entries queue up.
  QueueEntry blocker = entry(sim::microseconds(5));
  blocker.flow = 99;
  const SlotId sb = acc->try_enqueue(std::move(blocker));
  acc->deliver_data(sb);

  QueueEntry relaxed = entry(sim::microseconds(1));
  relaxed.flow = 1;
  relaxed.deadline = sim::milliseconds(10);
  QueueEntry urgent = entry(sim::microseconds(1));
  urgent.flow = 2;
  urgent.deadline = sim::microseconds(20);
  const SlotId s1 = acc->try_enqueue(std::move(relaxed));
  const SlotId s2 = acc->try_enqueue(std::move(urgent));
  acc->deliver_data(s1);
  acc->deliver_data(s2);
  sim_.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 99u);
  EXPECT_EQ(order[1], 2u);  // Urgent dispatches before relaxed.
  EXPECT_EQ(order[2], 1u);
  EXPECT_GT(acc->stats().reorders, 0u);
}

TEST_F(AcceleratorTest, PriorityPolicyPrefersHighPriority) {
  AccelParams p = small_params(/*pes=*/1);
  p.policy = SchedPolicy::kPriority;
  auto acc = make(p);
  std::vector<obs::FlowId> order;
  class OrderHandler : public OutputHandler {
   public:
    explicit OrderHandler(std::vector<obs::FlowId>* order) : order_(order) {}
    void handle_output(Accelerator& acc, SlotId slot) override {
      order_->push_back(acc.output_entry(slot).flow);
      acc.release_output(slot);
    }
    std::vector<obs::FlowId>* order_;
  } ordered(&order);
  acc->set_output_handler(&ordered);

  QueueEntry blocker = entry(sim::microseconds(5));
  blocker.flow = 99;
  const SlotId sb = acc->try_enqueue(std::move(blocker));
  acc->deliver_data(sb);
  QueueEntry lo = entry(sim::microseconds(1));
  lo.flow = 1;
  lo.priority = 0;
  QueueEntry hi = entry(sim::microseconds(1));
  hi.flow = 2;
  hi.priority = 7;
  const SlotId s1 = acc->try_enqueue(std::move(lo));
  const SlotId s2 = acc->try_enqueue(std::move(hi));
  acc->deliver_data(s1);
  acc->deliver_data(s2);
  sim_.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 2u);
}

TEST_F(AcceleratorTest, DeadlineMissesAreCounted) {
  AccelParams p = small_params(/*pes=*/1);
  p.policy = SchedPolicy::kEdf;
  auto acc = make(p);
  CountingHandler handler;
  acc->set_output_handler(&handler);
  QueueEntry blocker = entry(sim::microseconds(50));
  const SlotId sb = acc->try_enqueue(std::move(blocker));
  acc->deliver_data(sb);
  QueueEntry late = entry(sim::microseconds(1));
  late.deadline = sim::microseconds(5);  // Will be missed behind blocker.
  const SlotId s = acc->try_enqueue(std::move(late));
  acc->deliver_data(s);
  sim_.run();
  EXPECT_EQ(acc->stats().deadline_misses, 1u);
}

TEST_F(AcceleratorTest, UtilizationReflectsBusyTime) {
  auto acc = make(small_params(/*pes=*/2));
  CountingHandler handler;
  acc->set_output_handler(&handler);
  const SlotId s = acc->try_enqueue(entry(sim::microseconds(8)));
  acc->deliver_data(s);
  sim_.run();
  // One of two PEs busy ~the whole run: utilization ~0.5.
  EXPECT_NEAR(acc->pe_utilization(), 0.5, 0.05);
}

TEST(DmaPool, EnginesSerializeWhenExhausted) {
  sim::Simulator sim;
  noc::InterconnectParams np;
  noc::MeshParams mp;
  mp.width = 2;
  mp.height = 1;
  np.chiplet_meshes = {mp};
  noc::Interconnect net(sim, np);
  DmaParams dp;
  dp.num_engines = 1;
  dp.bandwidth_gbps = 1;  // 1 byte/ns.
  DmaPool dma(sim, net, dp);
  const noc::Location a{0, {0, 0}}, b{0, {1, 0}};
  const sim::TimePs t1 = dma.transfer(a, b, 1000, 0, /*flow=*/0);
  const sim::TimePs t2 = dma.transfer(a, b, 1000, 0, /*flow=*/0);
  EXPECT_GT(t2, t1);
  EXPECT_GT(dma.stats().engine_wait, 0u);
  EXPECT_EQ(dma.stats().transfers, 2u);
}

TEST(DmaPool, NoEngineWaitUntilEveryEngineIsBusy) {
  // N transfers issued at one instant take N distinct engines and wait for
  // none; transfer N+1 is the first to queue for an engine.
  sim::Simulator sim;
  noc::InterconnectParams np;
  noc::MeshParams mp;
  mp.width = 2;
  mp.height = 1;
  np.chiplet_meshes = {mp};
  noc::Interconnect net(sim, np);
  DmaParams dp;
  dp.num_engines = 4;
  DmaPool dma(sim, net, dp);
  const noc::Location a{0, {0, 0}}, b{0, {1, 0}};
  for (int i = 0; i < dp.num_engines; ++i) dma.transfer(a, b, 1000, 0, /*flow=*/0);
  EXPECT_EQ(dma.stats().engine_wait, 0u);
  dma.transfer(a, b, 1000, 0, /*flow=*/0);
  EXPECT_GT(dma.stats().engine_wait, 0u);
  EXPECT_EQ(dma.stats().transfers, 5u);
}

TEST(DmaPool, ReadyAtDefersTransfer) {
  sim::Simulator sim;
  noc::InterconnectParams np;
  noc::MeshParams mp;
  mp.width = 2;
  mp.height = 1;
  np.chiplet_meshes = {mp};
  noc::Interconnect net(sim, np);
  DmaPool dma(sim, net, DmaParams{});
  const sim::TimePs t =
      dma.transfer({0, {0, 0}}, {0, {1, 0}}, 64, sim::microseconds(5),
                   /*flow=*/0);
  EXPECT_GE(t, sim::microseconds(5));
}

TEST(DmaPool, EngineSelectionMatchesFirstMinimumScan) {
  // Pins engine selection to its contract: every transfer must occupy
  // exactly the engine a left-to-right std::min_element scan of the
  // occupancy vector would return — ties on free time break toward the
  // lowest index. The shadow below replays transfer()'s occupancy
  // arithmetic against that scan; the per-engine vectors must stay
  // byte-identical through tie-heavy and random phases.
  sim::Simulator sim;
  noc::InterconnectParams np;
  noc::MeshParams mp;
  mp.width = 2;
  mp.height = 1;
  np.chiplet_meshes = {mp};
  noc::Interconnect net(sim, np);
  DmaParams dp;
  dp.num_engines = 4;
  DmaPool dma(sim, net, dp);
  const noc::Location a{0, {0, 0}}, b{0, {1, 0}};

  const sim::TimePs latency = sim::nanoseconds(dp.latency_ns);
  const double bytes_per_ps = dp.bandwidth_gbps * 1e9 / 1e12;
  std::vector<sim::TimePs> shadow(4, 0);
  const auto shadow_transfer = [&](std::uint64_t bytes,
                                   sim::TimePs ready_at) {
    const auto it = std::min_element(shadow.begin(), shadow.end());
    const sim::TimePs start = std::max(ready_at, *it);
    const auto ser = static_cast<sim::TimePs>(
        static_cast<double>(bytes) / bytes_per_ps + 0.5);
    *it = start + latency + ser;
  };

  // Tie-heavy phase: identical transfers leave all engines tied at every
  // step, so selection is pure index tie-break (0, 1, 2, 3, 0, ...).
  for (int i = 0; i < 12; ++i) {
    dma.transfer(a, b, 1024, 0, /*flow=*/0);
    shadow_transfer(1024, 0);
    ASSERT_EQ(dma.checkpoint().engine_free_at, shadow) << "tie step " << i;
  }
  // Random phase: mixed sizes and ready times churn the ordering.
  sim::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t bytes = 64 + rng.next_below(8192);
    const sim::TimePs ready = rng.next_below(2'000'000);
    dma.transfer(a, b, bytes, ready, /*flow=*/0);
    shadow_transfer(bytes, ready);
    ASSERT_EQ(dma.checkpoint().engine_free_at, shadow) << "rand step " << i;
  }
  // The pool-resize and restore paths replace the occupancy vector; both
  // must keep honouring the scan contract afterwards.
  const DmaPool::Checkpoint snap = dma.checkpoint();
  dma.set_num_engines(3);
  EXPECT_EQ(dma.checkpoint().engine_free_at,
            std::vector<sim::TimePs>(3, 0));
  dma.restore(snap);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t bytes = 64 + rng.next_below(8192);
    const sim::TimePs ready = rng.next_below(2'000'000);
    dma.transfer(a, b, bytes, ready, /*flow=*/0);
    shadow_transfer(bytes, ready);
    ASSERT_EQ(dma.checkpoint().engine_free_at, shadow)
        << "restored step " << i;
  }
}

}  // namespace
}  // namespace accelflow::accel
