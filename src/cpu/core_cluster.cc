#include "cpu/core_cluster.h"

#include <algorithm>
#include <cassert>

namespace accelflow::cpu {

CoreCluster::CoreCluster(sim::Simulator& sim, const CpuParams& params)
    : sim_(sim),
      s_{params,
         std::vector<sim::TimePs>(static_cast<std::size_t>(params.num_cores),
                                  0),
         {}},
      clock_(params.clock_ghz) {}

sim::TimePs CoreCluster::occupy(int core, sim::TimePs duration,
                                Callback done) {
  assert(core >= 0 && core < num_cores());
  auto& free = s_.free_at[static_cast<std::size_t>(core)];
  const sim::TimePs start = std::max(sim_.now(), free);
  const sim::TimePs end = start + duration;
  free = end;
  s_.stats.busy_time += duration;
  if (done) sim_.schedule_at(end, std::move(done));
  return end;
}

sim::TimePs CoreCluster::run_on(int core, sim::TimePs duration,
                                Callback done) {
  ++s_.stats.segments;
  return occupy(core, duration, std::move(done));
}

sim::TimePs CoreCluster::interrupt(int core, sim::TimePs handler_time,
                                   Callback done) {
  ++s_.stats.interrupts;
  const sim::TimePs cost = cycles(s_.params.interrupt_cycles) + handler_time;
  s_.stats.interrupt_time += cost;
  return occupy(core, cost, std::move(done));
}

sim::TimePs CoreCluster::notify(int core, Callback done) {
  ++s_.stats.notifications;
  return occupy(core, cycles(s_.params.notification_cycles), std::move(done));
}

sim::TimePs CoreCluster::charge_enqueue(int core) {
  ++s_.stats.enqueues;
  return occupy(core, cycles(s_.params.enqueue_cycles), nullptr);
}

int CoreCluster::least_loaded() const {
  const auto it = std::min_element(s_.free_at.begin(), s_.free_at.end());
  return static_cast<int>(it - s_.free_at.begin());
}

double CoreCluster::utilization() const {
  const sim::TimePs elapsed = sim_.now();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(s_.stats.busy_time) /
         (static_cast<double>(elapsed) * static_cast<double>(num_cores()));
}

}  // namespace accelflow::cpu
