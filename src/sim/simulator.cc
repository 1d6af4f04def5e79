#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace accelflow::sim {

namespace {

/** Decomposes an EventId into (slot, generation). Returns false if the id
 *  cannot name any slot. */
bool decode_id(EventId id, std::size_t pool_size, std::uint32_t* slot,
               std::uint32_t* gen) {
  if (id == kInvalidEventId) return false;
  const std::uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > pool_size) return false;
  *slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  *gen = static_cast<std::uint32_t>(id);
  return true;
}

EventId encode_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(slot) + 1) << 32 | gen;
}

}  // namespace

std::uint32_t Simulator::alloc_slot() {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
    ++kstats_.pool_grown;
  }
  return slot;
}

inline EventId Simulator::push_event(TimePs t, std::uint64_t seq,
                                     Callback&& cb) {
  const std::uint32_t slot = alloc_slot();
  Event& ev = pool_[slot];
  ev.cb = std::move(cb);
  ev.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{t, seq, slot});
  sift_up(heap_.size() - 1);

  ++kstats_.scheduled;
  if (heap_.size() > kstats_.pending_high_water) {
    kstats_.pending_high_water = heap_.size();
  }
  return encode_id(slot, ev.gen);
}

EventId Simulator::schedule_at(TimePs t, Callback cb) {
  assert(t >= now_ && "cannot schedule in the past");
  if (t < now_) {
    // Release-build policy: clamp to now() — the event runs after the
    // current one, in insertion order, keeping the run deterministic.
    ++kstats_.clamped_past;
    t = now_;
  }

  return push_event(t, next_seq_++, std::move(cb));
}

EventId Simulator::schedule_at_seq(TimePs t, std::uint64_t seq, Callback cb) {
  assert(seq < next_seq_ && "stamp was never reserved");
  assert(!fired(t, seq) && "reserved stamp has already fired");
  if (t < now_) {
    // Release builds: the same clamp as schedule_at().
    ++kstats_.clamped_past;
    t = now_;
  }
  return push_event(t, seq, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  std::uint32_t slot, gen;
  if (!decode_id(id, pool_.size(), &slot, &gen)) return false;
  Event& ev = pool_[slot];
  // A stale generation means the event already ran or was already
  // cancelled (the slot has been recycled since the id was minted).
  if (ev.gen != gen || ev.heap_pos == kNoSlot) return false;
  ev.cb.reset();
  unlink_from_heap(slot);
  recycle(slot);
  ++kstats_.cancelled;
  return true;
}

// Both sifts use the hole technique: lift the moving entry into a local,
// shift blocking entries over the hole (one move + one heap_pos write per
// level, no swaps), and drop the entry at its final position. Comparisons
// read only the contiguous heap array; the scattered pool records are
// touched with writes alone.

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pool_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    pool_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  pool_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::unlink_from_heap(std::uint32_t slot) {
  const std::size_t pos = pool_[slot].heap_pos;
  const std::size_t last = heap_.size() - 1;
  pool_[slot].heap_pos = kNoSlot;
  if (pos != last) {
    const std::uint32_t moved = heap_[last].slot;
    heap_[pos] = heap_[last];
    heap_.pop_back();
    pool_[moved].heap_pos = static_cast<std::uint32_t>(pos);
    // The displaced element may need to move either direction.
    sift_down(pos);
    if (pool_[moved].heap_pos == pos) sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

void Simulator::recycle(std::uint32_t slot) {
  Event& ev = pool_[slot];
  ++ev.gen;  // Invalidate outstanding ids naming this slot.
  ev.next_free = free_head_;
  free_head_ = slot;
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_[0].slot;
  Event& ev = pool_[slot];
  assert(heap_[0].time >= now_);
  now_ = heap_[0].time;
  cur_seq_ = heap_[0].seq;
  if (probe_ != nullptr) probe_->on_event(now_);
  // Move the callback out and free the record *before* invoking, so the
  // callback can freely schedule (possibly reusing this very slot) or
  // grow the pool without invalidating anything we still hold.
  Callback cb = std::move(ev.cb);
  unlink_from_heap(slot);
  recycle(slot);
  ++executed_;
  cb();
  cur_seq_ = kIdleSeq;
  return true;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePs t) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && !heap_.empty() && heap_[0].time <= t) {
    step();
    ++n;
  }
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

Simulator::Checkpoint Simulator::checkpoint() const {
  if (!heap_.empty()) {
    throw std::logic_error(
        "Simulator::checkpoint: " + std::to_string(heap_.size()) +
        " events pending; checkpoint only at quiescence (empty calendar)");
  }
  return {now_, next_seq_, executed_, kstats_};
}

void Simulator::restore(const Checkpoint& c) {
  for (const HeapEntry& he : heap_) {
    Event& ev = pool_[he.slot];
    ev.cb.reset();
    ev.heap_pos = kNoSlot;
    recycle(he.slot);
  }
  heap_.clear();
  now_ = c.now;
  next_seq_ = c.next_seq;
  executed_ = c.executed;
  cur_seq_ = kIdleSeq;
  stopped_ = false;
  const std::uint64_t grown = kstats_.pool_grown;
  kstats_ = c.stats;
  kstats_.pool_grown = grown;
}

}  // namespace accelflow::sim
