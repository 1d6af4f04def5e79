#ifndef ACCELFLOW_CORE_TRACE_ANALYSIS_H_
#define ACCELFLOW_CORE_TRACE_ANALYSIS_H_

#include <array>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/trace_library.h"

/**
 * @file
 * Static/dynamic analysis over trace chains.
 *
 * A *chain* is everything the ensemble executes from one CPU Enqueue until
 * control finally returns to the CPU: the starting trace plus every trace
 * reached through TAIL and BR_ATM edges (including network waits). Both
 * the baseline orchestrators (which have no trace hardware and execute the
 * logical op sequence step by step) and the validation tests use the same
 * expansion, so AccelFlow's in-hardware walk can be checked against it.
 */

namespace accelflow::core {

/** One step of the logical execution of a chain, for a fixed flag vector. */
struct LogicalOp {
  enum class Kind : std::uint8_t {
    kInvoke,         ///< Run an accelerator.
    kBranchResolve,  ///< A condition had to be evaluated here.
    kTransform,      ///< Data-format change.
    kNotifyCont,     ///< Notify the CPU, keep going.
    kRemoteWait,     ///< Wait for a network response.
  };
  Kind kind = Kind::kInvoke;
  accel::AccelType accel = accel::AccelType::kTcp;  ///< kInvoke.
  RemoteKind remote = RemoteKind::kNone;            ///< kRemoteWait.
  /** kInvoke: the position mark after the invoke, in trace `word` (where
   *  a CPU fallback resumes). */
  std::uint8_t pm = 0;
  std::uint64_t word = 0;  ///< kInvoke: the trace word holding the invoke.
};

/** Result of walking a chain with concrete payload flags. */
struct ChainWalk {
  std::vector<LogicalOp> ops;
  std::vector<accel::AccelType> invocations;
  /** Direct accelerator-to-accelerator hops (no CPU in between). */
  std::vector<std::pair<accel::AccelType, accel::AccelType>> edges;
  int branches = 0;
  int transforms = 0;
  int notifies = 0;  ///< NOTIFY_CONT count (excludes the final notify).
  int traces_visited = 1;
  int remote_waits = 0;
};

/**
 * Walks the chain starting at `start` under `flags`. TraceLibrary::walk()
 * memoizes it.
 *
 * @param max_traces guard against accidental ATM cycles.
 */
ChainWalk walk_chain(const TraceLibrary& lib, AtmAddr start,
                     const accel::PayloadFlags& flags, int max_traces = 64);

/** True if any trace reachable from `start` contains a branch op. */
bool chain_has_conditional(const TraceLibrary& lib, AtmAddr start,
                           int max_traces = 64);

/** Source/destination accelerator sets per accelerator (paper Table I). */
struct ConnectivityTable {
  std::array<std::set<accel::AccelType>, accel::kNumAccelTypes> sources;
  std::array<std::set<accel::AccelType>, accel::kNumAccelTypes> destinations;
  /** Accelerators fed directly by a CPU Enqueue. */
  std::set<accel::AccelType> cpu_fed;
  /** Accelerators that hand results back to the CPU. */
  std::set<accel::AccelType> cpu_bound;
};

/**
 * Builds the Table-I connectivity by walking each start address under every
 * combination of branch outcomes.
 */
ConnectivityTable build_connectivity(const TraceLibrary& lib,
                                     const std::vector<AtmAddr>& starts);

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_TRACE_ANALYSIS_H_
