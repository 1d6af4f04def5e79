#ifndef ACCELFLOW_SIM_SERVER_H_
#define ACCELFLOW_SIM_SERVER_H_

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

/**
 * @file
 * Queueing-theoretic building blocks shared by many hardware models.
 */

namespace accelflow::sim {

/**
 * A bank of `k` identical non-preemptive servers fed by one unbounded FIFO.
 *
 * Jobs are dispatched to the earliest-free server; a job submitted at time t
 * with service time s completes at max(t, earliest_free) + s. This models
 * any serial resource with deterministic occupancy: CPU cores, the RELIEF
 * hardware manager, output dispatchers, DMA engines.
 *
 * Completion callbacks are scheduled on the simulator, so models can chain
 * work from them.
 */
class FifoServer {
 public:
  /** Completion-callback type (the simulator's allocation-free callable). */
  using Callback = Simulator::Callback;

  /** Creates a bank of `num_servers` servers, all free at time 0. */
  FifoServer(Simulator& sim, std::size_t num_servers)
      : sim_(sim), s_{std::vector<TimePs>(num_servers, 0)} {}

  /**
   * Enqueues a job.
   *
   * @param service_time busy time the job occupies one server for.
   * @param done invoked at completion time (may be empty).
   * @return the completion time.
   */
  TimePs submit(TimePs service_time, Callback done = nullptr) {
    return submit_at(sim_.now(), service_time, std::move(done));
  }

  /**
   * Enqueues a job whose inputs are only available at `ready` (>= now).
   * Service starts at max(ready, earliest free server).
   */
  TimePs submit_at(TimePs ready, TimePs service_time,
                   Callback done = nullptr);

  /** Earliest time any server becomes free (may be in the past). */
  TimePs earliest_free() const;

  /** The number of servers in the bank. */
  std::size_t num_servers() const { return s_.free_at.size(); }

  /** Total busy (service) time accumulated across all servers. */
  TimePs total_busy_time() const { return s_.busy_time; }

  /** Total time jobs spent waiting for a server. */
  TimePs total_wait_time() const { return s_.wait_time; }

  /**
   * Mean utilization over [0, now]: busy time / (servers * elapsed).
   * Returns 0 before any time has elapsed.
   */
  double utilization() const;

  /** The bank's mutable state, copied whole by checkpoint() (DESIGN.md
   *  §13). */
  struct State {
    std::vector<TimePs> free_at;  ///< Per-server next-free times.
    TimePs busy_time = 0;         ///< Accumulated busy time.
    TimePs wait_time = 0;         ///< Accumulated queueing time.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  Simulator& sim_;
  State s_;
};

/**
 * A bandwidth-limited channel: transfers serialize at `bytes_per_second`
 * after a fixed `latency`. Models DRAM channels and network links.
 */
class Channel {
 public:
  /** Creates a channel with the given bandwidth and fixed latency. */
  Channel(Simulator& sim, double bytes_per_second, TimePs latency)
      : sim_(sim), bytes_per_ps_(bytes_per_second / 1e12), latency_(latency) {}

  /**
   * Reserves the channel for `bytes` and returns the completion time
   * (start-of-service contention + serialization + fixed latency).
   *
   * @param ready_at earliest time the data is available at the channel
   *        (for chaining across network segments); defaults to now.
   */
  TimePs transfer(std::uint64_t bytes, TimePs ready_at = 0);

  /** Serialization time for `bytes` without contention or latency. */
  TimePs serialization_time(std::uint64_t bytes) const {
    return static_cast<TimePs>(static_cast<double>(bytes) / bytes_per_ps_ + 0.5);
  }

  /** The per-transfer fixed latency. */
  TimePs fixed_latency() const { return latency_; }
  /** Time the last reserved transfer finishes serializing. */
  TimePs busy_until() const { return s_.busy_until; }

  /** Total bytes moved. */
  std::uint64_t bytes_transferred() const { return s_.bytes; }

  /** Mean utilization over [0, now]. */
  double utilization() const;

  /** The channel's mutable state, copied whole by checkpoint() (DESIGN.md
   *  §13). */
  struct State {
    TimePs busy_until = 0;     ///< End of the last reserved transfer.
    TimePs busy_time = 0;      ///< Accumulated serialization time.
    std::uint64_t bytes = 0;   ///< Total bytes moved.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  Simulator& sim_;
  double bytes_per_ps_;
  TimePs latency_;
  State s_;
};

}  // namespace accelflow::sim

#endif  // ACCELFLOW_SIM_SERVER_H_
