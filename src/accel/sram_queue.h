#ifndef ACCELFLOW_ACCEL_SRAM_QUEUE_H_
#define ACCELFLOW_ACCEL_SRAM_QUEUE_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "accel/queue_entry.h"

/**
 * @file
 * Fixed-capacity SRAM queue with slot allocation, used for both the input
 * and output queues of an accelerator (Table III: 64 entries each).
 */

namespace accelflow::accel {

/** Slot handle within an SramQueue. */
using SlotId = std::uint32_t;
inline constexpr SlotId kInvalidSlot = ~SlotId{0};

/** Occupancy statistics. */
struct QueueStats {
  std::uint64_t allocations = 0;
  std::uint64_t alloc_failures = 0;  ///< Enqueue attempts on a full queue.
  std::uint64_t releases = 0;
  std::uint64_t max_occupancy = 0;
  /** Subset of alloc_failures: the queue had free slots, but a priority-0
   *  entry was refused the reserved headroom (QosPolicy, DESIGN.md §19). */
  std::uint64_t reserved_denials = 0;
};

/**
 * A bank of `capacity` entry slots.
 *
 * Allocation is two-phase, matching the hardware: Enqueue allocates a slot
 * and stores the trace; the payload arrives later by DMA, after which the
 * entry is marked ready (QueueEntry::ready). Consumers walk occupied slots
 * through for_each_occupied / pick().
 */
class SramQueue {
 public:
  explicit SramQueue(std::size_t capacity);

  /**
   * Allocates a slot and moves `e` into it, stamping its arrival seq and
   * clearing its ready bit; kInvalidSlot if full — or if `e` is
   * best-effort (priority 0) and only the reserved headroom is left (see
   * set_reserved). `bypass_reserve` admits regardless of
   * priority: re-admission paths (the overflow drain) use it, since
   * their entries already passed the admission edge once.
   */
  SlotId allocate(QueueEntry e, bool bypass_reserve = false);

  /**
   * Holds the last `n` free slots back from priority-0 entries: headroom
   * for prioritized tenants under a QosPolicy (DESIGN.md §19). Must stay
   * below the capacity; 0 (the default) restores plain behavior.
   * Configuration, not mutable run state — set at construction time,
   * outside the checkpoint like the capacity itself.
   */
  void set_reserved(std::size_t n);

  std::size_t reserved() const { return reserved_; }

  /** Frees a slot. */
  void release(SlotId slot);

  bool full() const { return s_.occupancy == s_.slots.size(); }
  bool empty() const { return s_.occupancy == 0; }
  std::size_t occupancy() const { return s_.occupancy; }
  std::size_t capacity() const { return s_.slots.size(); }

  QueueEntry& at(SlotId slot);
  const QueueEntry& at(SlotId slot) const;
  bool occupied(SlotId slot) const {
    return s_.slots[slot].has_value();
  }

  /**
   * Invokes fn(slot, entry) for each occupied slot, in slot order.
   * fn must not allocate or release.
   *
   * Walks the occupancy bitmap rather than the slot array: the dispatcher
   * polls this on every dispatch attempt, and scanning capacity-many
   * std::optional slabs (each a full QueueEntry wide) is what made the
   * dispatch pick O(capacity) regardless of occupancy.
   */
  template <typename Fn>
  void for_each_occupied(Fn&& fn) {
    for (std::size_t w = 0; w < occupied_words_.size(); ++w) {
      for (std::uint64_t bits = occupied_words_[w]; bits != 0;
           bits &= bits - 1) {
        const SlotId s = static_cast<SlotId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        fn(s, *s_.slots[s]);
      }
    }
  }

  /** Read-only overload for inspection passes. */
  template <typename Fn>
  void for_each_occupied(Fn&& fn) const {
    for (std::size_t w = 0; w < occupied_words_.size(); ++w) {
      for (std::uint64_t bits = occupied_words_[w]; bits != 0;
           bits &= bits - 1) {
        const SlotId s = static_cast<SlotId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        fn(s, *s_.slots[s]);
      }
    }
  }

  const QueueStats& stats() const { return s_.stats; }

  /**
   * Re-sizes the slot bank (queue-depth sensitivity sweeps and the
   * auto-tuner's queue knob). Only legal while the queue is empty —
   * asserts otherwise — so call it at a quiescent fork point, like
   * Accelerator::set_num_pes. Counters and the arrival stamp survive.
   */
  void set_capacity(std::size_t capacity);

  /** Slots, free list and counters, copied whole by checkpoint()
   *  (DESIGN.md §13). */
  struct State {
    std::vector<std::optional<QueueEntry>> slots;  ///< Slot contents.
    std::vector<SlotId> free_list;                 ///< Free-slot stack.
    std::size_t occupancy = 0;                     ///< Occupied count.
    std::uint64_t next_seq = 0;                    ///< Arrival stamp.
    QueueStats stats;                              ///< Counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }

  /** Restores state captured by checkpoint(), including its capacity
   *  (undoing a later set_capacity()). Checkpoints are taken at
   *  quiescence, so the queue is empty and so is its occupancy bitmap. */
  void restore(const Checkpoint& c) {
    assert(c.occupancy == 0 && "checkpoint of a non-empty queue");
    s_ = c;
    occupied_words_.assign((s_.slots.size() + 63) / 64, 0);
  }

 private:
  void set_occupied(SlotId s) {
    occupied_words_[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  void clear_occupied(SlotId s) {
    occupied_words_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  }

  State s_;
  /** Bit s set iff s_.slots[s] holds an entry (64 slots per word). */
  std::vector<std::uint64_t> occupied_words_;
  /** Free slots a priority-0 entry may not consume (QoS headroom). */
  std::size_t reserved_ = 0;
};

}  // namespace accelflow::accel

#endif  // ACCELFLOW_ACCEL_SRAM_QUEUE_H_
