#include "mem/tlb.h"

#include <cassert>

namespace accelflow::mem {

Tlb::Tlb(std::size_t entries, std::size_t ways) : ways_(ways) {
  assert(entries > 0 && ways > 0 && entries % ways == 0);
  sets_ = entries / ways;
  s_.entries.resize(entries);
}

std::size_t Tlb::set_index(std::uint32_t process_id, PageNum vpn) const {
  // Mix the process id into the index so tenants spread across sets.
  const std::uint64_t h = vpn ^ (static_cast<std::uint64_t>(process_id) * 0x9E3779B9ull);
  return static_cast<std::size_t>(h % sets_);
}

Tlb::Entry* Tlb::find(std::uint32_t process_id, PageNum vpn) {
  const std::size_t base = set_index(process_id, vpn) * ways_;
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = s_.entries[base + w];
    if (e.valid && e.process_id == process_id && e.vpn == vpn) return &e;
  }
  return nullptr;
}

bool Tlb::lookup(std::uint32_t process_id, PageNum vpn) {
  ++s_.stats.lookups;
  if (Entry* e = find(process_id, vpn)) {
    e->last_use = ++s_.tick;
    ++s_.stats.hits;
    return true;
  }
  return false;
}

void Tlb::fill(std::uint32_t process_id, PageNum vpn) {
  const std::size_t base = set_index(process_id, vpn) * ways_;
  Entry* victim = &s_.entries[base];
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = s_.entries[base + w];
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.last_use < victim->last_use) victim = &e;
  }
  if (victim->valid) ++s_.stats.evictions;
  victim->valid = true;
  victim->process_id = process_id;
  victim->vpn = vpn;
  victim->last_use = ++s_.tick;
  ++s_.stats.fills;
}

bool Tlb::access(std::uint32_t process_id, PageNum vpn) {
  if (lookup(process_id, vpn)) return true;
  fill(process_id, vpn);
  return false;
}

void Tlb::flush_process(std::uint32_t process_id) {
  for (Entry& e : s_.entries) {
    if (e.valid && e.process_id == process_id) e.valid = false;
  }
}

void Tlb::flush_all() {
  for (Entry& e : s_.entries) e.valid = false;
}

}  // namespace accelflow::mem
