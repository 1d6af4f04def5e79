#ifndef ACCELFLOW_CORE_CPU_EXECUTOR_H_
#define ACCELFLOW_CORE_CPU_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/chain.h"
#include "core/machine.h"
#include "core/trace_analysis.h"

/**
 * @file
 * Executes a chain's logical operations entirely on the initiating CPU
 * core, at full (unaccelerated) cost: the Non-acc baseline, and the
 * baselines' fallback when enqueue retries run out. AccelFlow's CPU
 * fallback is the engine's continue_chain_on_cpu (core/engine.h).
 */

namespace accelflow::core {

/** Counters for CPU-executed chains. */
struct CpuExecStats {
  std::uint64_t chains = 0;    ///< Chains started on a core.
  std::uint64_t ops = 0;       ///< Logical operations executed.
  std::uint64_t timeouts = 0;  ///< Chains aborted on a network timeout.
};

/** Runs logical op sequences on CPU cores. */
class CpuChainExecutor {
 public:
  /** @param response_timeout network waits longer than this abort the chain. */
  CpuChainExecutor(Machine& machine, sim::TimePs response_timeout);

  /**
   * Executes `ops` on ctx->core. Consecutive compute ops coalesce into one
   * core segment; network waits release the core and resume on response.
   *
   * @param payload_bytes size entering the first op.
   * @param done fired when the chain finishes; `timed_out` reports whether
   *        a network wait exceeded the timeout (the chain then aborts).
   */
  void run(ChainContext* ctx, std::vector<LogicalOp> ops,
           std::uint64_t payload_bytes,
           std::function<void(bool timed_out)> done);

  /** CPU time for one transform executed in software. */
  sim::TimePs cpu_transform_time(std::uint64_t bytes) const;

  /** Execution counters. */
  const CpuExecStats& stats() const { return stats_; }

  /** Restores counters captured earlier (DESIGN.md §13). In-flight Run
   *  state is intentionally not captured: checkpoints are quiescent. */
  void restore_stats(const CpuExecStats& s) { stats_ = s; }

 private:
  struct Run;
  void step(std::shared_ptr<Run> r);

  Machine& machine_;
  sim::TimePs timeout_;
  CpuExecStats stats_;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_CPU_EXECUTOR_H_
