#ifndef ACCELFLOW_QOS_POWER_H_
#define ACCELFLOW_QOS_POWER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/machine.h"
#include "energy/model.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

/**
 * @file
 * Power-capped operation: a periodic governor that holds the package's
 * modeled power under a budget by DVFS-style PE speed scaling
 * (DESIGN.md §19). This is what finally wires src/energy into the
 * simulated machine.
 *
 * Every epoch the governor reads the machine's busy-time deltas, prices
 * them through energy::compute_energy / energy::accel_power_w at the
 * current DVFS level, and walks a discrete frequency ladder: one step
 * slower when the epoch's power exceeds the budget, one step faster when
 * it would still fit under the budget's headroom at the faster level.
 * Slower levels multiply every accelerator's compute speedup by the
 * ladder scale — PE service times stretch, which the critical-path
 * analyzer attributes as longer `pe_service`, and dynamic accelerator
 * power drops by energy::dvfs_power_factor (~scale^3).
 *
 * Checkpoint-reversible: the applied speedups live in each accelerator's
 * AccelParams (captured by Machine::checkpoint()), and the governor's own
 * Checkpoint carries the ladder level and accumulators; restore()
 * re-applies the level so a forked timeline resumes at the captured
 * operating point. Epoch events stop at the configured cutoff, so a
 * drained calendar stays drainable (the SweepSession fork contract).
 *
 * A budget <= 0 (the default) is fully inert: no events, no speed
 * changes, no division anywhere — mirroring the tenant_mba rate<=0 and
 * energy zero-PE guards.
 */

namespace accelflow::qos {

/** Power-cap configuration. */
struct PowerCapConfig {
  /** Package power budget in watts; <= 0 disables the governor. */
  double budget_w = 0.0;
  /** Governor epoch; one that is not positive, finite and within TimePs
   *  range in picoseconds leaves the governor inert. */
  double epoch_us = 100.0;
  /** Fraction of the budget the *faster* level's estimate must fit under
   *  before stepping back up (headroom against level flapping). */
  double step_up_headroom = 0.90;
  /** Discrete DVFS frequency ladder, fastest first. Entry 0 must be 1.0
   *  (nominal); later entries scale every accelerator's compute speedup
   *  and, cubed, its dynamic power. */
  std::vector<double> ladder = {1.0, 0.85, 0.70, 0.55, 0.40};
  /** Power model priced against the machine's activity; num_cores is
   *  overridden from the machine config at attach. */
  energy::PowerModel power;
  energy::AreaModel area;
};

/** Governor accounting. */
struct PowerStats {
  std::uint64_t epochs = 0;         ///< Epoch evaluations.
  std::uint64_t steps_down = 0;     ///< Level lowered (slower, cooler).
  std::uint64_t steps_up = 0;       ///< Level raised back toward nominal.
  std::uint64_t capped_epochs = 0;  ///< Epochs spent below nominal.
  double min_scale = 1.0;           ///< Slowest ladder scale reached.
  double max_power_w = 0.0;         ///< Hottest epoch estimate.
  double sum_power_w = 0.0;         ///< Sum over epochs (for the mean).

  double avg_power_w() const {
    return epochs > 0 ? sum_power_w / static_cast<double>(epochs) : 0.0;
  }
};

/** DVFS-style power governor over one machine. */
class PowerGovernor {
 public:
  /** Attaches to `machine`; call start() to begin governing. An invalid
   *  config (budget <= 0, bad epoch, empty ladder) leaves the governor
   *  inert. */
  PowerGovernor(core::Machine& machine, PowerCapConfig config);

  /** Schedules epoch evaluations from now until `until` (the issue+drain
   *  horizon). No event is scheduled past `until`, so the calendar still
   *  drains to quiescence. Inert configs schedule nothing. */
  void start(sim::TimePs until);

  /** Re-arms a stopped governor with a new horizon (the SweepSession
   *  fork/resume pattern — see workload::LoadGenerator::resume()). Only
   *  call when no epoch event is pending. */
  void resume(sim::TimePs until) { start(until); }

  bool active() const { return active_; }
  /** Current ladder index (0 = nominal frequency). */
  std::size_t level() const { return s_.level; }
  /** Current frequency scale applied to every accelerator. */
  double scale() const {
    return active_ ? config_.ladder[s_.level] : 1.0;
  }

  const PowerStats& stats() const { return s_.stats; }
  const PowerCapConfig& config() const { return config_; }

  /** Zeroes the accounting (end of warmup). The ladder level carries
   *  over: it is the operating point, not a measurement. */
  void reset_stats() { s_.stats = PowerStats{}; }

  /** Exports "qos.power.*" gauges and counters (OBSERVABILITY.md). */
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

 private:
  /** Cumulative machine busy times (the epoch delta's basis). */
  struct BusySnapshot {
    sim::TimePs core_busy = 0;
    std::array<sim::TimePs, accel::kNumAccelTypes> accel_busy{};
    sim::TimePs dispatcher_busy = 0;
    sim::TimePs dma_busy = 0;
  };

 public:
  /** The governor state, copied whole by checkpoint() (DESIGN.md §13).
   *  The speedups the level implies are captured by the accelerators'
   *  own checkpoints. */
  struct State {
    std::size_t level = 0;        ///< Ladder index (0 = nominal).
    BusySnapshot prev;            ///< Busy-time anchor of the next epoch.
    sim::TimePs epoch_start = 0;  ///< Start of the current epoch.
    PowerStats stats;             ///< Accounting.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }

  /** Restores state captured by checkpoint() and re-applies the level's
   *  speed scale (idempotent against a paired Machine::restore(), which
   *  already restored the per-accelerator speedups). Pair with resume()
   *  to re-arm the epoch event. */
  void restore(const Checkpoint& c);

 private:
  void on_epoch();
  BusySnapshot snapshot_busy() const;
  /** Epoch power estimate at DVFS scale `scale` for the given deltas. */
  double estimate_power_w(const energy::Activity& activity,
                          double scale) const;
  /** Applies ladder level `level`'s scale to every accelerator. */
  void apply_level(std::size_t level);

  core::Machine& machine_;
  PowerCapConfig config_;
  /** Valid config (budget > 0, epoch fits in TimePs, ladder sane). */
  bool active_ = false;
  /** Nominal per-type speedups captured at attach; level scales apply
   *  multiplicatively on top. */
  std::array<double, accel::kNumAccelTypes> base_speedup_{};
  sim::TimePs until_ = 0;
  State s_;
};

}  // namespace accelflow::qos

#endif  // ACCELFLOW_QOS_POWER_H_
