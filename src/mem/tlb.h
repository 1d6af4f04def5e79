#ifndef ACCELFLOW_MEM_TLB_H_
#define ACCELFLOW_MEM_TLB_H_

#include <cstdint>
#include <vector>

#include "mem/address.h"

/**
 * @file
 * Set-associative TLB with true-LRU replacement.
 *
 * Used both for core TLBs (Table III: 128-entry 4-way L1, 2048-entry 8-way
 * L2) and for the per-accelerator address translation caches fed by the
 * IOMMU (Section V.3).
 */

namespace accelflow::mem {

/** TLB lookup statistics. */
struct TlbStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;

  std::uint64_t misses() const { return lookups - hits; }
};

/**
 * Set-associative translation cache over (process id, virtual page number).
 *
 * Entries store no physical address: the simulator only needs hit/miss
 * behaviour for timing. True LRU per set via an age counter.
 */
class Tlb {
 public:
  /**
   * @param entries total entry count (must be divisible by ways).
   * @param ways set associativity.
   */
  Tlb(std::size_t entries, std::size_t ways);

  /** Looks up a page; on miss the caller walks and then calls fill(). */
  bool lookup(std::uint32_t process_id, PageNum vpn);

  /** Installs a translation, evicting LRU if the set is full. */
  void fill(std::uint32_t process_id, PageNum vpn);

  /** Convenience: lookup and fill on miss; returns true on hit. */
  bool access(std::uint32_t process_id, PageNum vpn);

  /** Invalidates all entries of a process (e.g. on teardown). */
  void flush_process(std::uint32_t process_id);

  /** Invalidates everything. */
  void flush_all();

  /** Lookup/hit/fill/eviction counters. */
  const TlbStats& stats() const { return s_.stats; }
  /** Total entry capacity. */
  std::size_t entries() const { return sets_ * ways_; }
  /** Set associativity. */
  std::size_t ways() const { return ways_; }

 private:
  struct Entry {
    bool valid = false;
    std::uint32_t process_id = 0;
    PageNum vpn = 0;
    std::uint64_t last_use = 0;
  };

 public:
  /** The cache contents and counters, copied whole by checkpoint()
   *  (DESIGN.md §13). */
  struct State {
    std::vector<Entry> entries;  ///< All ways of all sets.
    std::uint64_t tick = 0;      ///< LRU age counter.
    TlbStats stats;              ///< Lookup counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  std::size_t set_index(std::uint32_t process_id, PageNum vpn) const;
  Entry* find(std::uint32_t process_id, PageNum vpn);

  std::size_t sets_;
  std::size_t ways_;
  State s_;
};

}  // namespace accelflow::mem

#endif  // ACCELFLOW_MEM_TLB_H_
