#ifndef ACCELFLOW_CORE_ATM_H_
#define ACCELFLOW_CORE_ATM_H_

#include <array>
#include <cstdint>
#include <optional>

#include "core/trace_encoding.h"
#include "noc/interconnect.h"
#include "sim/time.h"

/**
 * @file
 * The Accelerator Trace Memory (ATM, Figure 6): a small on-chip SRAM on the
 * accelerator chiplet holding traces. Cores store subtraces there before
 * launching an ensemble execution; output dispatchers read continuation
 * traces from it when a trace ends with a TAIL address (Section IV-A).
 */

namespace accelflow::core {

/** ATM counters. */
struct AtmStats {
  std::uint64_t reads = 0;   ///< Dispatcher-side trace loads.
  std::uint64_t writes = 0;  ///< Core-side trace stores.
};

/**
 * The trace memory: 256 eight-byte slots addressed by AtmAddr.
 *
 * Timing: a dispatcher-side read costs read_latency (SRAM access) plus the
 * mesh transfer of the 8-byte trace, which callers model through the
 * interconnect using location().
 */
class Atm {
 public:
  /**
   * Creates an empty trace memory.
   *
   * @param clock_ghz clock domain the latency is expressed in.
   * @param read_latency_cycles SRAM access time in core-clock cycles.
   * @param location mesh position of the SRAM (for transfer modeling).
   */
  Atm(double clock_ghz, double read_latency_cycles, noc::Location location)
      : read_latency_(sim::Clock(clock_ghz).cycles_to_ps(read_latency_cycles)),
        location_(location) {}

  /** Installs a trace; overwrites any previous contents. */
  void store(AtmAddr addr, const Trace& t) {
    s_.slots[addr] = t;
    ++s_.stats.writes;
  }

  /** Reads a trace; the slot must have been stored. */
  const Trace& load(AtmAddr addr) {
    ++s_.stats.reads;
    return s_.slots[addr].value();
  }

  /** True when `addr` holds a stored trace. */
  bool contains(AtmAddr addr) const { return s_.slots[addr].has_value(); }

  /** SRAM access time of one dispatcher-side read. */
  sim::TimePs read_latency() const { return read_latency_; }
  /** Mesh position of the SRAM. */
  noc::Location location() const { return location_; }
  /** Read/write counters. */
  const AtmStats& stats() const { return s_.stats; }

  /** The trace slots and counters, copied whole by checkpoint()
   *  (DESIGN.md §13). */
  struct State {
    std::array<std::optional<Trace>, 256> slots;  ///< SRAM contents.
    AtmStats stats;                               ///< Counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  sim::TimePs read_latency_;
  noc::Location location_;
  State s_;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_ATM_H_
