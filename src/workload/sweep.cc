#include "workload/sweep.h"

#include <cassert>
#include <numeric>

#include "workload/parallel_runner.h"

namespace accelflow::workload {

SweepSession::SweepSession(const ExperimentConfig& config)
    : config_(config),
      // Warmup generators and the governor stop at `warmup`, so the
      // machine can drain to quiescence before the fork point; run_point()
      // revives them per point.
      dep_(config, config.warmup, config.warmup) {}

void SweepSession::prepare() {
  assert(!dep_.has_checkpoint() && "prepare() already called");
  dep_.machine().sim().run_until(config_.warmup);
  // Drain every in-flight request: the kernel checkpoints only an empty
  // calendar (it throws otherwise), and at quiescence no component holds
  // a raw pointer into a half-finished flow.
  dep_.machine().sim().run();
  t_fork_ = dep_.machine().sim().now();
  dep_.checkpoint();
}

ExperimentResult SweepSession::run_point(const SweepPoint& point) {
  assert(dep_.has_checkpoint() && "call prepare() before run_point()");
  dep_.restore();
  if (point.mutate) point.mutate(dep_.machine());
  // Steady state only, as in run_experiment()'s post-warmup reset.
  dep_.reset_stats();
  const sim::TimePs issue_until = t_fork_ + config_.measure;
  dep_.resume(point.rate_factor, issue_until, issue_until + config_.drain);
  dep_.machine().sim().run_until(issue_until + config_.drain);
  return dep_.harvest();
}

std::vector<std::vector<ExperimentResult>> run_forked_sweeps(
    const std::vector<ExperimentConfig>& groups,
    const std::vector<std::vector<SweepPoint>>& points) {
  assert(groups.size() == points.size());
  std::vector<std::size_t> indices(groups.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  return ParallelRunner().map(indices, [&](std::size_t g) {
    SweepSession session(groups[g]);
    session.prepare();
    std::vector<ExperimentResult> out;
    out.reserve(points[g].size());
    for (const SweepPoint& p : points[g]) out.push_back(session.run_point(p));
    return out;
  });
}

}  // namespace accelflow::workload
