#ifndef ACCELFLOW_WORKLOAD_SWEEP_H_
#define ACCELFLOW_WORKLOAD_SWEEP_H_

#include <functional>
#include <vector>

#include "core/machine.h"
#include "workload/deployment.h"
#include "workload/experiment.h"

/**
 * @file
 * The checkpoint-and-fork sweep engine (DESIGN.md §13).
 *
 * A sweep — load points, PE counts, processor generations — re-simulates
 * the same warmup for every point. SweepSession simulates that warmup
 * once, drains the machine to quiescence, captures a full deterministic
 * checkpoint (event calendar, RNG streams, accelerator queues, DMA/NoC/
 * TLB state, stats counters, load-generator cursors), and then *forks*:
 * each run_point() restores the checkpoint in place, applies the point's
 * divergence (a rate factor and/or a machine mutation), and simulates
 * only the measurement window.
 *
 * Determinism contract: run_point(p) yields bit-identical results no
 * matter how many points ran before it on the same session, and identical
 * to a fresh session running only p (tests/test_snapshot_fork.cc). The
 * fork protocol differs from run_experiment() in one deliberate way: the
 * warmup arrival processes and the power governor stop at `warmup` and the
 * machine drains before the fork, so measurement starts from an idle
 * machine with warm caches, pools and RNG streams rather than mid-flight —
 * so fork mode has its own golden snapshot (tests/golden/fig14_fork.json)
 * next to the straight-through ones.
 */

namespace accelflow::workload {

/** One divergence point of a forked sweep. */
struct SweepPoint {
  /** Multiplies every configured per-service rate for this point. */
  double rate_factor = 1.0;
  /**
   * Optional machine divergence applied after the checkpoint restore,
   * while the machine is quiescent — e.g. Machine::set_pes_per_accel,
   * set_speedup_scale, or set_generation. Undone by the next restore.
   */
  std::function<void(core::Machine&)> mutate;
};

/**
 * One warm machine shared by many sweep points.
 *
 * Single-threaded like the simulator itself; parallel sweeps run one
 * session per thread (one per sweep *group*), exactly as ParallelRunner
 * runs one experiment per thread. The config's tracer/metrics/checker
 * attachments behave as in run_experiment(), with one addition: under
 * AF_CHECK=1 (or with a caller checker) the checker's state is forked
 * alongside the machine so every point is audited independently.
 */
class SweepSession {
 public:
  /** Builds the machine, services, orchestrator and warmup generators. */
  explicit SweepSession(const ExperimentConfig& config);
  SweepSession(const SweepSession&) = delete;
  SweepSession& operator=(const SweepSession&) = delete;

  /**
   * Simulates the warmup, drains the machine to quiescence (empty event
   * calendar), and captures the fork checkpoint. Call once, before the
   * first run_point().
   */
  void prepare();

  /** True once prepare() has captured the fork checkpoint. */
  bool prepared() const { return dep_.has_checkpoint(); }

  /** Simulated time of the fork point (>= config.warmup). */
  sim::TimePs fork_time() const { return t_fork_; }

  /**
   * Restores the fork checkpoint, applies `point`, simulates a fresh
   * measurement window (config.measure) plus drain, and harvests the
   * result. Callable any number of times, in any order of points.
   */
  ExperimentResult run_point(const SweepPoint& point = {});

  /** The configuration this session was built from. */
  const ExperimentConfig& config() const { return config_; }

 private:
  ExperimentConfig config_;
  Deployment dep_;
  sim::TimePs t_fork_ = 0;
};

/**
 * find_max_load() on a forked session: the same geometric-grid +
 * bounded-bisection search, with every probe forked from the shared
 * warmup instead of re-simulating it. Call prepare() first (or let this
 * do it).
 */
double find_max_load_forked(SweepSession& session,
                            const std::vector<sim::TimePs>& slos,
                            int search_iters = 7, double lo = 0.05,
                            double hi = 12.0,
                            ExperimentResult* at_peak = nullptr);

/**
 * Runs one forked sweep per group on the shared thread pool: group g
 * builds one SweepSession from groups[g] (one warmup simulation) and runs
 * points[g] serially on it. Results keep input order; determinism matches
 * a serial double loop.
 */
std::vector<std::vector<ExperimentResult>> run_forked_sweeps(
    const std::vector<ExperimentConfig>& groups,
    const std::vector<std::vector<SweepPoint>>& points);

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_SWEEP_H_
