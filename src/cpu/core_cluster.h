#ifndef ACCELFLOW_CPU_CORE_CLUSTER_H_
#define ACCELFLOW_CPU_CORE_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

/**
 * @file
 * CPU core occupancy model.
 *
 * Application logic, RPC handler glue, interrupt handlers and CPU-fallback
 * tax operations all occupy cores; the accelerated architectures differ in
 * *how much* core time orchestration consumes, so core contention must be
 * modeled explicitly. Each core is a non-preemptive FIFO server (requests
 * are run-to-completion segments, as in a typical RPC server thread pool).
 */

namespace accelflow::cpu {

/** CPU cluster configuration (defaults per Table III / Section VI). */
struct CpuParams {
  int num_cores = 36;
  double clock_ghz = 2.4;
  /** Full cost of taking an interrupt: delivery, context switch, handler
   *  entry/exit. Charged to the interrupted core. */
  double interrupt_cycles = 10000;
  /** User-level notification from an accelerator (Table III: ~80 cycles). */
  double notification_cycles = 80;
  /** User-mode Enqueue instruction + A-DMA programming. */
  double enqueue_cycles = 60;
  /**
   * Processor-generation scaling (Section VII-C.4): app-logic speedup of
   * the modeled generation relative to Ice Lake. Tax operations benefit
   * less (they are memory/IO-bound), captured by tax_speed.
   */
  double app_speed = 1.0;
  double tax_speed = 1.0;
};

/** Per-cluster counters. */
struct CpuStats {
  std::uint64_t segments = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t notifications = 0;
  std::uint64_t enqueues = 0;
  sim::TimePs busy_time = 0;
  sim::TimePs interrupt_time = 0;
};

/** The 36-core cluster. */
class CoreCluster {
 public:
  using Callback = sim::Simulator::Callback;

  CoreCluster(sim::Simulator& sim, const CpuParams& params);

  int num_cores() const { return static_cast<int>(s_.free_at.size()); }
  const CpuParams& params() const { return s_.params; }

  /**
   * Runs a segment of `duration` on `core` (FIFO behind earlier work).
   * @return completion time; `done` fires then.
   */
  sim::TimePs run_on(int core, sim::TimePs duration, Callback done = nullptr);

  /**
   * Delivers an interrupt to `core`: charges interrupt_cycles plus
   * `handler_time`, then fires `done`.
   */
  sim::TimePs interrupt(int core, sim::TimePs handler_time,
                        Callback done = nullptr);

  /**
   * User-level notification (MWAIT-style wake): the core resumes after the
   * notification latency; only notification_cycles of core time.
   */
  sim::TimePs notify(int core, Callback done = nullptr);

  /** Charges the user-mode Enqueue instruction to `core`. */
  sim::TimePs charge_enqueue(int core);

  /** Index of the core that frees earliest (LdB's choice). */
  int least_loaded() const;

  /** Converts a cycle count at the core clock into time. */
  sim::TimePs cycles(double c) const { return clock_.cycles_to_ps(c); }

  /** Mean core utilization over [0, now]. */
  double utilization() const;

  const CpuStats& stats() const { return s_.stats; }

  /**
   * Adjusts the generation speed factors (Section VII-C.4). Used by
   * Machine::set_generation when a forked sweep point diverges from a
   * shared warmup checkpoint; already-scheduled segments are unaffected.
   */
  void set_speeds(double app_speed, double tax_speed) {
    s_.params.app_speed = app_speed;
    s_.params.tax_speed = tax_speed;
  }

  /** Core occupancy, counters and the (divergable) params, copied whole
   *  by checkpoint() (DESIGN.md §13). */
  struct State {
    CpuParams params;                  ///< Speed factors (divergable).
    std::vector<sim::TimePs> free_at;  ///< Per-core next-free times.
    CpuStats stats;                    ///< Counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  sim::TimePs occupy(int core, sim::TimePs duration, Callback done);

  sim::Simulator& sim_;
  State s_;
  sim::Clock clock_;
};

}  // namespace accelflow::cpu

#endif  // ACCELFLOW_CPU_CORE_CLUSTER_H_
