/**
 * @file
 * Differential tests for the event calendar (DESIGN.md §10): the indexed
 * 4-ary heap inside sim::Simulator must be bit-identical to RefCalendar, a
 * deliberately naive reference that keeps pending events in a std::map
 * keyed by (time, seq) — same firing order, same query answers, same
 * counters — on fuzzer-generated schedules (reserved stamps included),
 * cancel-heavy churn, far-future events and idle-gap horizons.
 * A checkpoint taken between waves must replay the identical next wave.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/machine.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace accelflow::sim {
namespace {

/** One observable moment: (now, tag) for firings, plus interleaved query
 *  answers, so any divergence in order *or* in peek results is caught. */
using Log = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/**
 * The reference calendar: the Simulator contract implemented as plainly
 * as possible. Pending events sit in a std::map ordered by (time, seq);
 * ids are never reused, so a fired or cancelled id simply misses.
 */
class RefCalendar {
 public:
  using Callback = std::function<void()>;

  TimePs now() const { return now_; }

  EventId schedule_at(TimePs t, Callback cb) {
    if (t < now_) {
      ++stats_.clamped_past;
      t = now_;
    }
    const std::uint64_t seq = next_seq_++;
    const EventId id = next_id_++;
    pending_.emplace(Key{t, seq}, Entry{id, std::move(cb)});
    keys_.emplace(id, Key{t, seq});
    ++stats_.scheduled;
    stats_.pending_high_water =
        std::max(stats_.pending_high_water, pending_.size());
    return id;
  }
  EventId schedule_after(TimePs delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  std::uint64_t reserve_seq() { return next_seq_++; }
  EventId schedule_at_seq(TimePs t, std::uint64_t seq, Callback cb) {
    const EventId id = next_id_++;
    pending_.emplace(Key{t, seq}, Entry{id, std::move(cb)});
    keys_.emplace(id, Key{t, seq});
    ++stats_.scheduled;
    stats_.pending_high_water =
        std::max(stats_.pending_high_water, pending_.size());
    return id;
  }
  bool fired(TimePs t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && (!running_ || seq < cur_seq_));
  }

  bool cancel(EventId id) {
    const auto it = keys_.find(id);
    if (it == keys_.end()) return false;
    pending_.erase(it->second);
    keys_.erase(it);
    ++stats_.cancelled;
    return true;
  }

  TimePs next_event_time() const {
    return pending_.empty() ? Simulator::kNoEvent
                            : pending_.begin()->first.first;
  }
  std::size_t pending_events() const { return pending_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  const KernelStats& kernel_stats() const { return stats_; }

  std::uint64_t run() {
    std::uint64_t n = 0;
    for (; !pending_.empty(); ++n) step();
    return n;
  }
  std::uint64_t run_until(TimePs t) {
    std::uint64_t n = 0;
    for (; !pending_.empty() && pending_.begin()->first.first <= t; ++n) {
      step();
    }
    if (now_ < t) now_ = t;
    return n;
  }

 private:
  using Key = std::pair<TimePs, std::uint64_t>;
  struct Entry {
    EventId id;
    Callback cb;
  };

  void step() {
    const auto it = pending_.begin();
    now_ = it->first.first;
    cur_seq_ = it->first.second;
    running_ = true;
    Callback cb = std::move(it->second.cb);
    keys_.erase(it->second.id);
    pending_.erase(it);
    ++executed_;
    cb();
    running_ = false;
  }

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cur_seq_ = 0;  ///< Seq of the running event...
  bool running_ = false;       ///< ...while one runs.
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::map<Key, Entry> pending_;
  std::unordered_map<EventId, Key> keys_;
  KernelStats stats_;
};

/** A self-driving randomized schedule: events fire, log, respawn, and
 *  cancel random armed handles (often stale — exercising the generation
 *  checks). They also reserve stamps and later post them (or find them
 *  already fired), the deferred-event pattern of DESIGN.md §10; a coarse
 *  time grid makes those stamps tie with ordinary events. Both calendars
 *  consume the identical op stream: the rng draws happen inside
 *  callbacks, so they stay aligned exactly as long as the firing order
 *  does. */
template <typename Cal>
struct FuzzCtx {
  /** A reserved stamp not yet posted. */
  struct Reserved {
    TimePs at;
    std::uint64_t seq;
    std::uint64_t tag;
  };

  Cal sim;
  Rng rng;
  std::vector<EventId> armed;
  std::vector<Reserved> reserved;
  Log log;
  std::uint64_t budget;

  FuzzCtx(std::uint64_t seed, std::uint64_t spawns)
      : rng(seed), budget(spawns) {}

  /** A delay on the 1 ns grid: lands on the same picosecond often. */
  TimePs grid_delay() { return 1000 * rng.next_below(8); }

  void spawn(std::uint64_t tag) {
    // Mostly near-future, a slice microseconds out, some on the grid.
    const std::uint64_t kind = rng.next_below(8);
    const TimePs delay = kind < 2   ? microseconds(1) + rng.next_below(1 << 22)
                         : kind < 4 ? grid_delay()
                                    : 10 + rng.next_below(20000);
    armed.push_back(sim.schedule_after(delay, [this, tag] {
      log.emplace_back(sim.now(), tag);
      if ((tag & 7) == 0) {
        log.emplace_back(sim.next_event_time(), sim.pending_events());
      }
      if (rng.next_below(4) == 0) {
        reserved.push_back(
            Reserved{sim.now() + grid_delay(), sim.reserve_seq(), tag + 1});
      }
      if (rng.next_below(3) == 0 && !reserved.empty()) {
        const std::size_t idx = rng.next_below(reserved.size());
        const Reserved r = reserved[idx];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(idx));
        const bool done = sim.fired(r.at, r.seq);
        log.emplace_back(r.seq, done);
        if (!done) {
          sim.schedule_at_seq(r.at, r.seq, [this, r] {
            log.emplace_back(sim.now(), r.tag);
          });
        }
      }
      if (budget > 0) {
        --budget;
        spawn(tag * 2654435761u + 1);
        if (rng.next_below(3) == 0 && budget > 0) {
          --budget;
          spawn(tag * 40503u + 7);
        }
      }
      if (rng.next_below(4) == 0 && !armed.empty()) {
        const std::size_t idx = rng.next_below(armed.size());
        sim.cancel(armed[idx]);  // Often stale: already fired/cancelled.
      }
    }));
  }

  void run(int initial) {
    for (int i = 0; i < initial; ++i) spawn(static_cast<std::uint64_t>(i));
    sim.run();
    log.emplace_back(sim.now(), sim.executed_events());
    log.emplace_back(sim.kernel_stats().scheduled,
                     sim.kernel_stats().cancelled);
    log.emplace_back(sim.kernel_stats().clamped_past,
                     sim.kernel_stats().pending_high_water);
  }
};

TEST(SchedDifferential, FuzzedSchedulesBitIdentical) {
  // 1000 fuzzer-generated schedules, each run on the heap and on the
  // reference; every firing, peek answer and counter must match.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    FuzzCtx<Simulator> heap(0xF00D + seed, 64);
    FuzzCtx<RefCalendar> ref(0xF00D + seed, 64);
    heap.run(/*initial=*/8);
    ref.run(/*initial=*/8);
    ASSERT_EQ(heap.log, ref.log) << "seed " << seed;
  }
}

/** A stamp reserved early and posted late, against same-time events
 *  scheduled in between, plus a post at the running event's own time. */
template <typename Cal>
Log reserved_ties() {
  Cal sim;
  Log log;
  const auto fire = [&log, &sim](std::uint64_t tag) {
    return [&log, &sim, tag] { log.emplace_back(sim.now(), tag); };
  };
  const std::uint64_t early = sim.reserve_seq();
  for (std::uint64_t i = 0; i < 3; ++i) sim.schedule_at(1000, fire(10 + i));
  std::uint64_t same_time = 0;
  sim.schedule_at(500, [&] {
    sim.schedule_at(1000, fire(20));
    sim.schedule_at_seq(1000, early, fire(1));
    same_time = sim.reserve_seq();
    sim.schedule_at(500, fire(31));
    log.emplace_back(sim.fired(500, same_time), sim.fired(1000, early));
    sim.schedule_at_seq(500, same_time, fire(30));
  });
  sim.run();
  log.emplace_back(sim.now(), sim.executed_events());
  return log;
}

TEST(SchedDifferential, ReservedStampPostedLateFiresBeforeLaterTies) {
  const Log heap_log = reserved_ties<Simulator>();
  EXPECT_EQ(heap_log, reserved_ties<RefCalendar>());
  const Log want = {{0, 0},    {500, 30}, {500, 31}, {1000, 1}, {1000, 10},
                    {1000, 11}, {1000, 12}, {1000, 20}, {1000, 8}};
  EXPECT_EQ(heap_log, want);
}

/** The response-timeout pattern: rounds arm 8 timeouts and cancel 7
 *  before they fire. */
template <typename Cal>
Log cancel_churn() {
  Cal sim;
  Rng rng(42);
  Log log;
  std::vector<EventId> armed;
  std::function<void(int)> round = [&](int left) {
    if (left == 0) return;
    armed.clear();
    for (int t = 0; t < 8; ++t) {
      const std::uint64_t tag = static_cast<std::uint64_t>(left * 16 + t);
      armed.push_back(sim.schedule_after(50000 + rng.next_below(1000),
                                         [&log, &sim, tag] {
                                           log.emplace_back(sim.now(), tag);
                                         }));
    }
    sim.schedule_after(100 + rng.next_below(300), [&, left] {
      for (int t = 0; t < 7; ++t) sim.cancel(armed[static_cast<size_t>(t)]);
      round(left - 1);
    });
  };
  round(500);
  sim.run();
  log.emplace_back(sim.kernel_stats().cancelled,
                   sim.kernel_stats().pending_high_water);
  log.emplace_back(sim.now(), sim.executed_events());
  return log;
}

TEST(SchedDifferential, CancelChurnBitIdentical) {
  const Log heap_log = cancel_churn<Simulator>();
  EXPECT_EQ(heap_log, cancel_churn<RefCalendar>());
  // 500 rounds x (8 armed - 7 cancelled) timeouts + 500 cancelling events.
  EXPECT_EQ(heap_log.back().second, 1000u);
}

/** Far beyond every delay the model schedules: 2^38 ps ≈ 0.27 simulated
 *  seconds (watchdogs, DMA completions and timeouts sit far inside). */
constexpr TimePs kFar = TimePs{1} << 38;

template <typename Cal>
Log far_future() {
  Cal sim;
  Log log;
  const auto fire = [&log, &sim](std::uint64_t tag) {
    return [&log, &sim, tag] { log.emplace_back(sim.now(), tag); };
  };
  // Two distant clusters + near traffic.
  for (std::uint64_t i = 0; i < 8; ++i) {
    sim.schedule_at(kFar * 3 + i * 977, fire(100 + i));
    sim.schedule_at(kFar * 9 + i * 31, fire(200 + i));
    sim.schedule_at(1000 + i * 333, fire(i));
  }
  // A ladder that respawns past the far horizon while running.
  sim.schedule_at(500, [&] { sim.schedule_after(kFar + 12345, fire(999)); });
  sim.run();
  log.emplace_back(sim.now(), sim.executed_events());
  return log;
}

TEST(SchedDifferential, FarFutureOverflowPromotion) {
  // Far-future events interleave with near traffic in exact (time, seq)
  // order, however wide the gap between them.
  const Log heap_log = far_future<Simulator>();
  EXPECT_EQ(heap_log, far_future<RefCalendar>());
  ASSERT_FALSE(heap_log.empty());
  EXPECT_EQ(heap_log.back(),
            (std::pair<std::uint64_t, std::uint64_t>{kFar * 9 + 7 * 31, 26}));

  Simulator sim;
  std::uint64_t fired = 0;
  sim.schedule_at(kFar * 5, [&fired] { ++fired; });
  sim.schedule_at(10, [&fired] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(sim.now(), kFar * 5);
}

/** Between-waves restore harness: callbacks capture only (ctx pointer,
 *  ints) and replay against whichever simulator the ctx points at. */
struct WaveCtx {
  Simulator* sim = nullptr;
  Log log;

  void seed_wave(Simulator& s) {
    sim = &s;
    for (std::uint64_t i = 0; i < 40; ++i) {
      const TimePs t = s.now() + 50 + (i % 7) * 400 + (i / 7) * 1000;
      s.schedule_at(t, make_cb(i));
    }
  }

  InlineCallback make_cb(std::uint64_t tag) {
    WaveCtx* ctx = this;
    return InlineCallback([ctx, tag] {
      ctx->log.emplace_back(ctx->sim->now(), tag);
      if (tag < 20) {
        // Deterministic respawn: arithmetic only, so the replay after a
        // restore re-derives the identical future.
        ctx->sim->schedule_after(700 + tag * 13, ctx->make_cb(tag + 100));
      }
    });
  }
};

TEST(SchedDifferential, RestoreAtQuiescenceReplaysIntoAnySimulator) {
  // Run one wave to quiescence, checkpoint, run a second wave; then replay
  // the second wave from the checkpoint, restored in place (the sweep
  // engine's pattern, twice) and into a fresh Simulator.
  WaveCtx ctx;
  Simulator original;
  ctx.seed_wave(original);
  original.run();
  const Simulator::Checkpoint ck = original.checkpoint();
  ctx.log.clear();
  ctx.seed_wave(original);
  original.run();
  const Log wave = ctx.log;
  ASSERT_FALSE(wave.empty());
  const std::uint64_t final_executed = original.executed_events();
  const std::uint64_t final_scheduled = original.kernel_stats().scheduled;
  const TimePs final_now = original.now();

  Simulator fresh;
  for (Simulator* target : {&original, &original, &fresh}) {
    target->restore(ck);
    EXPECT_EQ(target->now(), ck.now);
    ctx.log.clear();
    ctx.seed_wave(*target);
    target->run();
    EXPECT_EQ(ctx.log, wave);
    EXPECT_EQ(target->executed_events(), final_executed);
    EXPECT_EQ(target->kernel_stats().scheduled, final_scheduled);
    EXPECT_EQ(target->now(), final_now);
  }
}

/** Horizon semantics across idle gaps: run_until with nothing due
 *  advances now; events then scheduled into the gap order correctly
 *  against the one already pending. */
template <typename Cal>
Log horizons() {
  Cal sim;
  Log log;
  const auto fire = [&log, &sim](std::uint64_t tag) {
    return [&log, &sim, tag] { log.emplace_back(sim.now(), tag); };
  };
  sim.schedule_at(10'000'000, fire(1));
  sim.run_until(5'000'000);  // Far short of the only event.
  log.emplace_back(sim.now(), sim.pending_events());
  // Schedule between now and the pending event, same + nearby times.
  sim.schedule_at(5'000'001, fire(2));
  sim.schedule_at(9'999'999, fire(3));
  sim.schedule_at(10'000'000, fire(4));  // Ties with #1 on time.
  sim.run_until(10'000'000);
  log.emplace_back(sim.now(), sim.pending_events());
  sim.run();
  log.emplace_back(sim.now(), sim.executed_events());
  return log;
}

TEST(SchedDifferential, RunUntilHorizonsAndIdleGaps) {
  const Log heap_log = horizons<Simulator>();
  EXPECT_EQ(heap_log, horizons<RefCalendar>());
  const Log want = {{5'000'000, 1},  {5'000'001, 2},  {9'999'999, 3},
                    {10'000'000, 1}, {10'000'000, 4}, {10'000'000, 0},
                    {10'000'000, 4}};
  EXPECT_EQ(heap_log, want);
}

TEST(SchedDifferential, BackendSelection) {
  // One calendar: every construction path reports the heap, which is the
  // backend perfbench prints as resolved.
  EXPECT_EQ(Simulator().backend(), SchedBackend::kHeap);
  core::Machine machine{core::MachineConfig{}};
  EXPECT_EQ(machine.sim().backend(), SchedBackend::kHeap);
}

}  // namespace
}  // namespace accelflow::sim
