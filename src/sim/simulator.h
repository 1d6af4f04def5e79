#ifndef ACCELFLOW_SIM_SIMULATOR_H_
#define ACCELFLOW_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single-threaded event calendar: models schedule callbacks at absolute or
 * relative times and the kernel executes them in time order. Ties are broken
 * by insertion order, which makes every run bit-deterministic for a given
 * seed and schedule.
 *
 * Throughput-oriented design (the whole model funnels through here):
 *  - Callbacks are InlineCallback: no heap allocation per event.
 *  - Events live in a pooled slab, recycled through a free list; steady
 *    state allocates nothing.
 *  - The calendar is an index-tracked 4-ary heap: flatter than a binary
 *    heap (fewer cache misses per sift) and, because every record knows
 *    its heap position, cancel() is a true O(log n) eviction instead of a
 *    lazy tombstone, so pending_events() is exact.
 *  - EventIds carry a generation stamp, so a stale id (slot since recycled)
 *    can never cancel an unrelated event.
 */

namespace accelflow::sim {

/**
 * Handle to a scheduled event, usable for cancellation.
 *
 * Encoding: bits [32,64) hold (pool slot + 1), bits [0,32) the slot's
 * generation at scheduling time. The +1 keeps every valid id nonzero.
 */
using EventId = std::uint64_t;

/** Sentinel returned for events that can never be cancelled. */
inline constexpr EventId kInvalidEventId = 0;

/** The calendar implementation. Only perfbench reads it. */
enum class SchedBackend : std::uint8_t {
  kHeap = 0,  ///< Indexed 4-ary min-heap.
};

/** Kernel throughput counters (exported by bench_kernel_events). */
struct KernelStats {
  /** Events put on the calendar (schedule_at/after/at_seq calls). */
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;       ///< Successful cancel() evictions.
  std::uint64_t clamped_past = 0;    ///< schedule_at with t < now (clamped).
  /**
   * Event records this Simulator object ever allocated. The only counter
   * that tracks the object's slab rather than the timeline: restore()
   * keeps the slab, so it keeps this count too.
   */
  std::uint64_t pool_grown = 0;
  std::size_t pending_high_water = 0;  ///< Max simultaneous pending events.

  /**
   * Heap allocations avoided versus the classic std::function-per-event
   * kernel: every scheduled event except the ones that grew the slab
   * reused pooled storage.
   */
  std::uint64_t allocs_avoided() const { return scheduled - pool_grown; }
};

/**
 * Passive observer of kernel event execution.
 *
 * A probe sees every event the kernel runs, at the moment now() has been
 * advanced to the event's fire time but before its callback executes. It is
 * strictly an observer: probes must not schedule, cancel, or otherwise feed
 * back into the calendar (the validation layer uses one to assert that
 * simulated time never moves backwards — see check/invariant_checker.h).
 *
 * Zero-overhead-when-off: the kernel holds a null-by-default pointer and
 * pays one predictable branch per event when no probe is attached, the same
 * discipline as obs::Tracer and sim/log.h.
 */
class EventProbe {
 public:
  virtual ~EventProbe() = default;
  /** Called once per executed event, after now() advanced to `now`. */
  virtual void on_event(TimePs now) = 0;
};

/**
 * Event-driven simulator.
 *
 * Not thread safe: the whole simulation runs on one thread, which is what
 * makes deterministic replay possible. (Independent Simulator instances on
 * different threads are fine — see workload::ParallelRunner.)
 */
class Simulator {
 public:
  /** The callable type the calendar stores (allocation-free). */
  using Callback = InlineCallback;

  /** Creates an empty calendar at time 0. */
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /** The calendar implementation (always the heap). Only perfbench reads
   *  it. */
  SchedBackend backend() const { return SchedBackend::kHeap; }

  /** Current simulated time. */
  TimePs now() const { return now_; }

  /**
   * Schedules `cb` at absolute time `t`. Returns a cancel handle.
   *
   * Past-time policy: scheduling at t < now() is a model bug — debug
   * builds assert. Release builds clamp to now() (the event fires after
   * the currently running one, preserving determinism) and count the
   * clamp in kernel_stats().clamped_past.
   */
  EventId schedule_at(TimePs t, Callback cb);

  /** Schedules `cb` after `delay` from now. */
  EventId schedule_after(TimePs delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /**
   * Consumes the next insertion stamp without scheduling anything.
   *
   * A model that defers an event (DESIGN.md §10) reserves the seq its
   * eager schedule_at() would have taken. Every later stamp, and so every
   * tie order, is unchanged; the deferred event keeps its exact place in
   * the (time, seq) order, whether it is later posted with
   * schedule_at_seq() or only tested with fired().
   */
  std::uint64_t reserve_seq() { return next_seq_++; }

  /**
   * Schedules `cb` at the reserved stamp (`t`, `seq`): it fires exactly
   * where an event scheduled at `t` when `seq` was reserved would have.
   * The stamp must come from reserve_seq() and must not have fired yet
   * (asserted). Returns a cancel handle.
   */
  EventId schedule_at_seq(TimePs t, std::uint64_t seq, Callback cb);

  /**
   * True when the stamp (`t`, `seq`) lies before the running event, i.e.
   * an event posted at that stamp would already have run. Between events
   * every stamp at or before now() counts as fired: run_until(t) runs all
   * events at t, and run() drains the calendar.
   */
  bool fired(TimePs t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && seq < cur_seq_);
  }

  /**
   * Cancels a pending event (O(log n) heap eviction).
   *
   * @return true if the event was pending and is now cancelled; false if it
   *         already ran, was already cancelled, or the id is invalid
   *         (generation stamps make all three cases detectable).
   */
  bool cancel(EventId id);

  /**
   * Runs until the calendar is empty or stop() is called.
   * @return the number of events executed.
   */
  std::uint64_t run();

  /**
   * Runs events with time <= `t`, then sets now() = t (if the horizon was
   * reached) and returns. Events scheduled exactly at `t` do execute.
   * @return the number of events executed.
   */
  std::uint64_t run_until(TimePs t);

  /** Requests that run()/run_until() return after the current event. */
  void stop() { stopped_ = true; }

  /** Number of events currently pending (exact: cancelled events leave
   *  the calendar immediately). */
  std::size_t pending_events() const { return heap_.size(); }

  /**
   * Absolute time of the earliest pending event, or `kNoEvent` when the
   * calendar is empty. Lets a windowed multi-simulator driver fast-forward
   * an idle gap instead of crawling through empty lookahead windows
   * (cluster::Datacenter's drain-to-quiescence loop).
   */
  static constexpr TimePs kNoEvent = ~TimePs{0};
  /** See kNoEvent. */
  TimePs next_event_time() const {
    return heap_.empty() ? kNoEvent : heap_[0].time;
  }

  /** Total events executed so far. */
  std::uint64_t executed_events() const { return executed_; }

  /** Kernel throughput counters. */
  const KernelStats& kernel_stats() const { return kstats_; }

  /**
   * Attaches (nullptr: detaches) the execution probe. The probe is not
   * owned and must outlive the run. At most one probe at a time.
   */
  void set_probe(EventProbe* probe) { probe_ = probe; }

  /** The attached probe, or nullptr when none. */
  EventProbe* probe() const { return probe_; }

  /**
   * The kernel's state at quiescence (DESIGN.md §13): with the calendar
   * empty, the clock, the next insertion stamp, the executed-event count
   * and the throughput counters are all there is to resume from.
   */
  struct Checkpoint {
    TimePs now = 0;               ///< Simulated time at capture.
    std::uint64_t next_seq = 0;   ///< Next insertion stamp.
    std::uint64_t executed = 0;   ///< Events executed so far.
    KernelStats stats;            ///< Throughput counters.
  };

  /**
   * Captures the kernel scalars. Forks happen only at quiescence: throws
   * std::logic_error naming the pending-event count unless the calendar
   * is empty. The probe pointer is not captured: observers are attached
   * per run, not per state.
   */
  Checkpoint checkpoint() const;

  /**
   * Restores a checkpoint in place, any number of times. The abandoned
   * timeline's pending events are discarded: their callbacks are
   * destroyed and their slots recycled. Generations only grow, so an id
   * minted before the restore can never cancel an event scheduled after
   * it. After restore, the run continues bit-identically to the one the
   * checkpoint was taken from.
   */
  void restore(const Checkpoint& c);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /** One pooled event record (callback + slot bookkeeping). The ordering
   *  key lives in the heap entry, not here: sift comparisons then touch
   *  only the contiguous heap array, never the scattered pool. */
  struct Event {
    std::uint32_t gen = 1;  ///< Bumped on every recycle.
    std::uint32_t heap_pos = kNoSlot;  ///< Index into heap_; kNoSlot = free.
    std::uint32_t next_free = kNoSlot;
    Callback cb;
  };

  /** One calendar entry: ordering key inline, payload in the pool. */
  struct HeapEntry {
    TimePs time;        ///< Fire time.
    std::uint64_t seq;  ///< Monotonic insertion stamp: the tie-breaker.
    std::uint32_t slot; ///< Pool record holding the callback.
  };

  /** True when entry `a` fires strictly before entry `b`. */
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  /** Unlinks `slot` from the heap (it must be linked). */
  void unlink_from_heap(std::uint32_t slot);

  /** Returns `slot` to the free list and bumps its generation. */
  void recycle(std::uint32_t slot);

  /** Allocates a pool slot (free list first, then slab growth). */
  std::uint32_t alloc_slot();

  /** Pops and runs the earliest event. Returns false if none runnable. */
  bool step();

  /** Links a new event at (`t`, `seq`) into the calendar. Takes the
   *  callback by reference: one move into the pool, none in between. */
  EventId push_event(TimePs t, std::uint64_t seq, Callback&& cb);

  /** No event is running: every stamp at or before now() has fired. */
  static constexpr std::uint64_t kIdleSeq = ~std::uint64_t{0};

  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cur_seq_ = kIdleSeq;  ///< Seq of the running event.
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::vector<Event> pool_;         ///< Slab of pooled event records.
  std::vector<HeapEntry> heap_;     ///< 4-ary min-heap, keys inline.
  std::uint32_t free_head_ = kNoSlot;  ///< Free-list head into pool_.

  KernelStats kstats_;
  EventProbe* probe_ = nullptr;  ///< Passive observer; null when off.
};

}  // namespace accelflow::sim

#endif  // ACCELFLOW_SIM_SIMULATOR_H_
