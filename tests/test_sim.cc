/**
 * @file
 * Unit tests for the discrete-event kernel, RNG, and queueing primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/callback.h"
#include "sim/pool.h"
#include "sim/random.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace accelflow::sim {
namespace {

TEST(Time, UnitConversionsRoundTrip) {
  EXPECT_EQ(nanoseconds(1), kPsPerNs);
  EXPECT_EQ(microseconds(1), kPsPerUs);
  EXPECT_EQ(milliseconds(1), kPsPerMs);
  EXPECT_EQ(seconds(1), kPsPerSec);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(12.5)), 12.5);
}

TEST(Time, ClockCycleConversion) {
  const Clock c(2.4);
  // One cycle at 2.4 GHz is 416.67ps.
  EXPECT_EQ(c.cycles_to_ps(1.0), 417u);
  EXPECT_EQ(c.cycles_to_ps(2400.0), 1000000u);  // 1us.
  EXPECT_NEAR(c.ps_to_cycles(microseconds(1)), 2400.0, 1e-9);
}

TEST(Time, FormatPicksUnits) {
  EXPECT_EQ(format_time(500), "500ps");
  EXPECT_EQ(format_time(nanoseconds(2)), "2.00ns");
  EXPECT_EQ(format_time(microseconds(3)), "3.00us");
  EXPECT_EQ(format_time(milliseconds(4)), "4.00ms");
  EXPECT_EQ(format_time(seconds(5)), "5.000s");
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1000, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ReentrantScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.schedule_after(5, [&] {
      ++fired;
      sim.schedule_after(5, [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(50, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // Double cancel reports failure.
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunUntilAdvancesToHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(200, [&] { ++fired; });
  sim.schedule_at(300, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(200), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelAfterFireFails) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule_at(50, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // The event already ran: its generation stamp is stale.
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.kernel_stats().cancelled, 0u);
}

TEST(Simulator, CancelTwiceSecondFails) {
  Simulator sim;
  const EventId id = sim.schedule_at(50, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.kernel_stats().cancelled, 1u);
}

TEST(Simulator, StaleIdCannotCancelRecycledSlot) {
  Simulator sim;
  bool second_ran = false;
  const EventId first = sim.schedule_at(10, [] {});
  ASSERT_TRUE(sim.cancel(first));
  // The slot is recycled for the next event with a bumped generation; the
  // stale id must not be able to cancel the unrelated newcomer.
  const EventId second = sim.schedule_at(20, [&] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_TRUE(second_ran);
}

TEST(Simulator, IdsStayUniqueAcrossGenerations) {
  Simulator sim;
  std::vector<EventId> ids;
  // Schedule/cancel in a loop: the single pool slot is reused every time,
  // but each id must be distinct (generation stamp advances).
  for (int i = 0; i < 100; ++i) {
    const EventId id = sim.schedule_at(10, [] {});
    for (const EventId prev : ids) EXPECT_NE(id, prev);
    ids.push_back(id);
    ASSERT_TRUE(sim.cancel(id));
  }
  EXPECT_EQ(sim.kernel_stats().pool_grown, 1u);
}

TEST(Simulator, InvalidIdRejected) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(~0ull));  // Slot far beyond the pool.
}

TEST(Simulator, RunUntilExactTimestampExecutes) {
  Simulator sim;
  bool at_horizon = false, past_horizon = false;
  sim.schedule_at(100, [&] { at_horizon = true; });
  sim.schedule_at(101, [&] { past_horizon = true; });
  EXPECT_EQ(sim.run_until(100), 1u);
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(past_horizon);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, PendingEventsExactUnderHeavyCancellation) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.schedule_at(static_cast<TimePs>(1000 + i), [] {}));
  }
  // Cancel far more events than remain live: the count must track exactly
  // (the seed kernel's lazy tombstones could make it drift or underflow).
  for (int i = 0; i < 99; ++i) EXPECT_TRUE(sim.cancel(ids[static_cast<size_t>(i)]));
  EXPECT_EQ(sim.pending_events(), 1u);
  for (int i = 0; i < 99; ++i) EXPECT_FALSE(sim.cancel(ids[static_cast<size_t>(i)]));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

#ifdef NDEBUG
TEST(Simulator, PastTimeSchedulingClampsToNow) {
  // Release-build policy: t < now() clamps to now() and counts the clamp.
  // (Debug builds assert instead; see Simulator::schedule_at.)
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(100, [&] {
    order.push_back(1);
    sim.schedule_at(50, [&] { order.push_back(2); });  // In the past.
  });
  sim.schedule_at(100, [&] { order.push_back(3); });
  sim.run();
  // The clamped event fires at now()=100, after already-queued ties.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.kernel_stats().clamped_past, 1u);
}
#endif

TEST(Simulator, KernelStatsTrackScheduledAndPool) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(static_cast<TimePs>(i), [] {});
  }
  sim.run();
  // Steady state: re-scheduling reuses the pooled records.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) sim.schedule_after(1, [] {});
    sim.run();
  }
  const KernelStats& ks = sim.kernel_stats();
  EXPECT_EQ(ks.scheduled, 60u);
  EXPECT_EQ(ks.pool_grown, 10u);
  EXPECT_EQ(ks.allocs_avoided(), 50u);
  EXPECT_EQ(ks.pending_high_water, 10u);
}

TEST(Simulator, DeterministicForSeed) {
  // Two identically-seeded randomized runs must be event-for-event equal.
  const auto churn = [](std::uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    std::uint64_t checksum = 0;
    std::vector<EventId> armed;
    for (int i = 0; i < 200; ++i) {
      sim.schedule_at(rng.next_below(10000), [&, i] {
        checksum = checksum * 31 + static_cast<std::uint64_t>(i) + sim.now();
        if (rng.next_below(4) == 0 && !armed.empty()) {
          sim.cancel(armed.back());
          armed.pop_back();
        }
        armed.push_back(
            sim.schedule_after(1 + rng.next_below(500), [&] { ++checksum; }));
      });
    }
    sim.run();
    return std::tuple(checksum, sim.executed_events(),
                      sim.kernel_stats().scheduled,
                      sim.kernel_stats().cancelled);
  };
  EXPECT_EQ(churn(42), churn(42));
  EXPECT_NE(std::get<0>(churn(1)), std::get<0>(churn(2)));
}

TEST(InlineCallback, InvokesAndMoves) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(cb);
  cb();
  EXPECT_EQ(hits, 1);
  InlineCallback moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): post-move empty.
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, ResetAndEmptyStates) {
  InlineCallback cb;
  EXPECT_FALSE(cb);
  EXPECT_TRUE(cb == nullptr);
  cb = [] {};
  EXPECT_TRUE(cb);
  cb.reset();
  EXPECT_FALSE(cb);
  cb = nullptr;
  EXPECT_FALSE(cb);
}

TEST(InlineCallback, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    InlineCallback cb([counter] { (*counter)++; });
    EXPECT_EQ(counter.use_count(), 2);
    InlineCallback moved = std::move(cb);
    EXPECT_EQ(counter.use_count(), 2);  // Move relocates, doesn't copy.
    moved();
  }
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(*counter, 1);
}

TEST(TicketPool, ParkTakeRoundTrip) {
  TicketPool<std::string> pool;
  const auto a = pool.park("hello");
  const auto b = pool.park("world");
  EXPECT_EQ(pool.parked(), 2u);
  EXPECT_EQ(pool.take(b), "world");
  EXPECT_EQ(pool.take(a), "hello");
  EXPECT_EQ(pool.parked(), 0u);
  // Freed slots are recycled.
  const auto c = pool.park("again");
  EXPECT_EQ(pool.take(c), "again");
}

TEST(Simulator, FiredInsideAnEventSplitsSameTimeStampsAtTheRunningOne) {
  Simulator sim;
  const std::uint64_t early = sim.reserve_seq();
  std::uint64_t late = 0;
  int checks = 0;
  sim.schedule_at(100, [&] {
    // Same-time stamps reserved before the running event have fired;
    // later ones (and the running event's own stamp) have not.
    EXPECT_TRUE(sim.fired(100, early));
    EXPECT_FALSE(sim.fired(100, late));
    EXPECT_TRUE(sim.fired(99, late));
    EXPECT_FALSE(sim.fired(101, early));
    ++checks;
  });
  late = sim.reserve_seq();
  sim.run();
  EXPECT_EQ(checks, 1);
}

TEST(Simulator, FiredBetweenEventsCoversEveryStampUpToNow) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  const std::uint64_t at_100 = sim.reserve_seq();
  sim.schedule_at(300, [] {});
  EXPECT_FALSE(sim.fired(100, at_100));
  sim.run_until(100);
  // run_until(t) ran every event at t, so any stamp at t counts as fired.
  EXPECT_TRUE(sim.fired(100, at_100));
  EXPECT_TRUE(sim.fired(100, ~std::uint64_t{0} - 1));
  EXPECT_FALSE(sim.fired(101, 0));
  sim.run_until(200);  // Idle gap: now advances to the horizon.
  EXPECT_TRUE(sim.fired(200, sim.reserve_seq()));
  EXPECT_FALSE(sim.fired(300, 0));
  sim.run();
  EXPECT_TRUE(sim.fired(300, sim.reserve_seq()));
}

TEST(Simulator, FiredAfterRestoreTreatsNowAsIdle) {
  Simulator sim;
  sim.run_until(500);
  const Simulator::Checkpoint snap = sim.checkpoint();
  int checks = 0;
  std::uint64_t late = 0;
  sim.schedule_at(500, [&] {
    EXPECT_FALSE(sim.fired(500, late));
    sim.restore(snap);
    // Restored between events: no event is running any more.
    EXPECT_TRUE(sim.fired(500, late));
    EXPECT_FALSE(sim.fired(501, 0));
    ++checks;
  });
  late = sim.reserve_seq();
  sim.run();
  EXPECT_EQ(checks, 1);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, CheckpointThrowsWhenEventsArePending) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.schedule_at(200, [] {});
  try {
    (void)sim.checkpoint();
    ADD_FAILURE() << "checkpoint with pending events was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("2 events pending"),
              std::string::npos)
        << e.what();
  }
  sim.run();
  EXPECT_NO_THROW((void)sim.checkpoint());
}

TEST(Simulator, RestoreDiscardsPendingEventsAndDestroysCapturesOnce) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  const Simulator::Checkpoint at_100 = sim.checkpoint();
  const KernelStats stats_at_100 = sim.kernel_stats();

  auto capture = std::make_shared<int>(0);
  for (TimePs t : {150, 250, 350}) {
    sim.schedule_at(t, [capture] { ++*capture; });
  }
  sim.run_until(200);  // One ran; two are pending on this timeline.
  EXPECT_EQ(*capture, 1);
  EXPECT_EQ(capture.use_count(), 3);
  sim.restore(at_100);
  // The abandoned timeline's callbacks are destroyed, not run.
  EXPECT_EQ(capture.use_count(), 1);
  EXPECT_EQ(*capture, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.executed_events(), 1u);
  EXPECT_EQ(sim.kernel_stats().scheduled, stats_at_100.scheduled);
  EXPECT_EQ(sim.kernel_stats().pending_high_water,
            stats_at_100.pending_high_water);
  // The slab outlives the timeline: its records are reused, not regrown.
  const std::uint64_t grown = sim.kernel_stats().pool_grown;
  EXPECT_EQ(grown, 3u);
  sim.run();
  EXPECT_EQ(*capture, 1);
  EXPECT_EQ(capture.use_count(), 1);
  for (TimePs t : {150, 250, 350}) sim.schedule_at(t, [] {});
  EXPECT_EQ(sim.kernel_stats().pool_grown, grown);
}

TEST(Simulator, PreRestoreIdCannotCancelPostRestoreEvent) {
  Simulator sim;
  const Simulator::Checkpoint empty = sim.checkpoint();
  const EventId stale = sim.schedule_at(10, [] {});
  sim.restore(empty);
  // The one slot is recycled for the newcomer with a bumped generation.
  bool ran = false;
  const EventId fresh = sim.schedule_at(10, [&ran] { ran = true; });
  EXPECT_EQ(sim.kernel_stats().pool_grown, 1u);
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(sim.cancel(stale));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, ReservedStampFiresWhereItsEagerEventWould) {
  // An event posted later at a stamp reserved earlier keeps its place:
  // ahead of every same-time event scheduled after the reservation.
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t reserved = sim.reserve_seq();
  sim.schedule_at(1000, [&] { order.push_back(2); });
  sim.schedule_at(500, [&] {
    sim.schedule_at(1000, [&] { order.push_back(3); });
    sim.schedule_at_seq(1000, reserved, [&] { order.push_back(1); });
  });
  const std::uint64_t scheduled_before = sim.kernel_stats().scheduled;
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.kernel_stats().scheduled, scheduled_before + 2);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 42; ++i) sim.schedule_at(static_cast<TimePs>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 42u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    lo_seen |= v == 3;
    hi_seen |= v == 5;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 0.5);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, LognormalMeanCvMatchesTargets) {
  Rng r(17);
  double sum = 0, sq = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = r.lognormal_mean_cv(100.0, 0.5);
    EXPECT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 100.0, 1.0);
  EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.02);
}

TEST(Rng, LognormalZeroCvIsDegenerate) {
  Rng r(19);
  EXPECT_DOUBLE_EQ(r.lognormal_mean_cv(55.0, 0.0), 55.0);
}

TEST(Rng, PoissonMeanSmallLambda) {
  Rng r(23);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.05);
}

TEST(Rng, PoissonMeanLargeLambda) {
  Rng r(29);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 1.0);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng r(31);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[r.zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(Rng, ForkGivesIndependentStream) {
  Rng a(37);
  Rng child = a.fork();
  // The fork should not replay the parent stream.
  int same = 0;
  Rng parent_copy(37);
  (void)parent_copy.next_u64();  // Align with the fork draw.
  for (int i = 0; i < 100; ++i) same += child.next_u64() == parent_copy.next_u64();
  EXPECT_LT(same, 3);
}

TEST(ZipfTable, MatchesDirectZipfDistribution) {
  Rng r1(41), r2(41);
  const ZipfTable table(50, 0.9);
  std::vector<int> a(50, 0), b(50, 0);
  for (int i = 0; i < 30000; ++i) ++a[table.sample(r1)];
  for (int i = 0; i < 30000; ++i) ++b[r2.zipf(50, 0.9)];
  // Both should be strongly head-heavy.
  EXPECT_GT(a[0], a[25]);
  EXPECT_GT(b[0], b[25]);
}

TEST(FifoServer, SerializesOnOneServer) {
  Simulator sim;
  FifoServer server(sim, 1);
  std::vector<TimePs> completions;
  sim.schedule_at(0, [&] {
    server.submit(100, [&] { completions.push_back(sim.now()); });
    server.submit(100, [&] { completions.push_back(sim.now()); });
    server.submit(100, [&] { completions.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(completions, (std::vector<TimePs>{100, 200, 300}));
  EXPECT_EQ(server.total_busy_time(), 300u);
  EXPECT_EQ(server.total_wait_time(), 300u);  // 0 + 100 + 200.
}

TEST(FifoServer, ParallelServersOverlap) {
  Simulator sim;
  FifoServer server(sim, 3);
  std::vector<TimePs> completions;
  sim.schedule_at(0, [&] {
    for (int i = 0; i < 3; ++i) {
      server.submit(100, [&] { completions.push_back(sim.now()); });
    }
  });
  sim.run();
  EXPECT_EQ(completions, (std::vector<TimePs>{100, 100, 100}));
}

TEST(FifoServer, UtilizationAccounting) {
  Simulator sim;
  FifoServer server(sim, 2);
  sim.schedule_at(0, [&] { server.submit(500); });
  sim.schedule_at(0, [&] { server.submit(500); });
  sim.schedule_at(1000, [] {});
  sim.run();
  // 1000ps of busy across 2 servers over 1000ps elapsed = 50%.
  EXPECT_DOUBLE_EQ(server.utilization(), 0.5);
}

TEST(Channel, SerializationAndLatency) {
  Simulator sim;
  // 1 GB/s = 1 byte/ns; 10ns fixed latency.
  Channel ch(sim, 1e9, nanoseconds(10));
  sim.schedule_at(0, [&] {
    const TimePs t1 = ch.transfer(100);  // 100ns ser + 10ns.
    EXPECT_EQ(t1, nanoseconds(110));
    const TimePs t2 = ch.transfer(100);  // Queued behind the first.
    EXPECT_EQ(t2, nanoseconds(210));
  });
  sim.run();
  EXPECT_EQ(ch.bytes_transferred(), 200u);
}

TEST(Channel, ReadyAtDefersStart) {
  Simulator sim;
  Channel ch(sim, 1e9, 0);
  sim.schedule_at(0, [&] {
    const TimePs t = ch.transfer(100, nanoseconds(50));
    EXPECT_EQ(t, nanoseconds(150));
  });
  sim.run();
}

}  // namespace
}  // namespace accelflow::sim
