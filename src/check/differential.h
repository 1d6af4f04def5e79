#ifndef ACCELFLOW_CHECK_DIFFERENTIAL_H_
#define ACCELFLOW_CHECK_DIFFERENTIAL_H_

#include <cstdint>
#include <string>

/**
 * @file
 * The deterministic differential trace fuzzer (TESTING.md): one *case* is
 * a seeded random scenario — a set of random trace programs
 * (check/trace_gen.h), a machine configuration (sometimes with
 * deliberately tiny queues to force overflow and CPU-fallback paths), and
 * a handful of concurrent chains with random flags and payload sizes.
 *
 * The case runs three times on fresh machines: under the full AccelFlow
 * engine, the CPU-Centric baseline and the Non-acc baseline (every op on
 * a core, core::price_cpu_segment). The executions model wildly different
 * coordination mechanics but each baseline must agree with AccelFlow on
 * the *logical* outcome, because all follow the same trace programs under
 * the same sampled branch flags with the same deterministic cost
 * environment:
 *
 *  - the same per-chain completion status (ok / timed out);
 *  - the same invocation sequence per chain — accelerator types in Trace
 *    order with the same payload size entering every stage;
 *  - the same logical-op counters (invocations, branches, transforms,
 *    mid-chain notifies, remote calls);
 *  - zero invariant-checker violations on every architecture, including
 *    each run's final quiescence audit.
 *
 * Everything derives from the case seed, so a reported failure replays
 * exactly with `tools/fuzz_traces --seed N`.
 */

namespace accelflow::check {

/** Shape knobs for one differential case. */
struct DiffOptions {
  int max_programs = 2;        ///< Random trace programs per case.
  int max_chains = 4;          ///< Concurrent chains per case.
  double tiny_queue_prob = 0.3;  ///< Chance of a 2-entry-queue machine.
  /** Chance (per remote kind) of a latency beyond the 10 ms response
   *  timeout, exercising the timeout path on both architectures. */
  double timeout_prob = 0.08;
};

/** Outcome of one differential case. */
struct DiffCaseResult {
  bool passed = false;  ///< Architectures agreed, no violations.
  /** Human-readable divergence/violation description (empty on pass). */
  std::string detail;
  int programs = 0;     ///< Trace programs generated for the case.
  int chains = 0;       ///< Concurrent chains run.
  std::uint64_t stages_checked = 0;  ///< From the AccelFlow run's checker.
  bool tiny_queues = false;  ///< Ran on the 2-entry-queue machine.
  bool had_timeout = false;  ///< Some chain exercised the timeout path.
};

/**
 * Runs one differential case derived entirely from `seed`. Deterministic:
 * the same (seed, options) pair always produces the same result.
 */
DiffCaseResult run_differential_case(std::uint64_t seed,
                                     const DiffOptions& options = {});

}  // namespace accelflow::check

#endif  // ACCELFLOW_CHECK_DIFFERENTIAL_H_
