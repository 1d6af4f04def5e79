#include "sim/server.h"

#include <algorithm>
#include <cassert>

namespace accelflow::sim {

TimePs FifoServer::submit_at(TimePs ready, TimePs service_time,
                             Callback done) {
  assert(!s_.free_at.empty());
  ready = std::max(ready, sim_.now());
  // Pick the earliest-free server (linear scan: server counts are small).
  auto it = std::min_element(s_.free_at.begin(), s_.free_at.end());
  const TimePs start = std::max(ready, *it);
  const TimePs end = start + service_time;
  *it = end;
  s_.busy_time += service_time;
  s_.wait_time += start - ready;
  if (done) sim_.schedule_at(end, std::move(done));
  return end;
}

TimePs FifoServer::earliest_free() const {
  return *std::min_element(s_.free_at.begin(), s_.free_at.end());
}

double FifoServer::utilization() const {
  const TimePs elapsed = sim_.now();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(s_.busy_time) /
         (static_cast<double>(elapsed) * static_cast<double>(num_servers()));
}

TimePs Channel::transfer(std::uint64_t bytes, TimePs ready_at) {
  const TimePs start = std::max({sim_.now(), ready_at, s_.busy_until});
  const TimePs ser = serialization_time(bytes);
  s_.busy_until = start + ser;
  s_.busy_time += ser;
  s_.bytes += bytes;
  return s_.busy_until + latency_;
}

double Channel::utilization() const {
  const TimePs elapsed = sim_.now();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(s_.busy_time) / static_cast<double>(elapsed);
}

}  // namespace accelflow::sim
