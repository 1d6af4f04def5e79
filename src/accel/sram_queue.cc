#include "accel/sram_queue.h"

#include <algorithm>
#include <cassert>

namespace accelflow::accel {

SramQueue::SramQueue(std::size_t capacity) { set_capacity(capacity); }

void SramQueue::set_capacity(std::size_t capacity) {
  assert(capacity > 0);
  assert(s_.occupancy == 0 && "set_capacity requires an empty queue");
  s_.slots.assign(capacity, std::nullopt);
  occupied_words_.assign((capacity + 63) / 64, 0);
  s_.free_list.clear();
  s_.free_list.reserve(capacity);
  // Push in reverse so slot 0 is handed out first (cosmetic determinism).
  for (SlotId s = static_cast<SlotId>(capacity); s-- > 0;) {
    s_.free_list.push_back(s);
  }
}

void SramQueue::set_reserved(std::size_t n) {
  assert(n < s_.slots.size() &&
         "reserved headroom must leave at least one usable slot");
  reserved_ = n;
}

SlotId SramQueue::allocate(QueueEntry e, bool bypass_reserve) {
  ++s_.stats.allocations;
  if (s_.free_list.empty()) {
    ++s_.stats.alloc_failures;
    --s_.stats.allocations;  // Count only successful allocations.
    return kInvalidSlot;
  }
  // Reserved headroom (DESIGN.md §19): the last `reserved_` free slots
  // admit prioritized entries only, so a best-effort flood cannot fill
  // the queue wall-to-wall against a latency-sensitive tenant.
  if (!bypass_reserve && reserved_ > 0 && e.priority == 0 &&
      s_.free_list.size() <= reserved_) {
    ++s_.stats.alloc_failures;
    ++s_.stats.reserved_denials;
    --s_.stats.allocations;
    return kInvalidSlot;
  }
  const SlotId slot = s_.free_list.back();
  s_.free_list.pop_back();
  e.seq = s_.next_seq++;
  e.ready = false;  // Until deliver_data: the queue owns readiness.
  s_.slots[slot] = std::move(e);
  set_occupied(slot);
  ++s_.occupancy;
  s_.stats.max_occupancy =
      std::max<std::uint64_t>(s_.stats.max_occupancy, s_.occupancy);
  return slot;
}

void SramQueue::release(SlotId slot) {
  assert(slot < s_.slots.size() && s_.slots[slot].has_value());
  s_.slots[slot].reset();
  clear_occupied(slot);
  s_.free_list.push_back(slot);
  --s_.occupancy;
  ++s_.stats.releases;
}

QueueEntry& SramQueue::at(SlotId slot) {
  assert(slot < s_.slots.size() && s_.slots[slot].has_value());
  return *s_.slots[slot];
}

const QueueEntry& SramQueue::at(SlotId slot) const {
  assert(slot < s_.slots.size() && s_.slots[slot].has_value());
  return *s_.slots[slot];
}

}  // namespace accelflow::accel
