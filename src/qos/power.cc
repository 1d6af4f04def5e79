#include "qos/power.h"

#include <algorithm>
#include <cmath>

namespace accelflow::qos {

PowerGovernor::PowerGovernor(core::Machine& machine, PowerCapConfig config)
    : machine_(machine), config_(std::move(config)) {
  // Inertness guards: a non-positive budget, a degenerate epoch, or an
  // unusable ladder leaves the governor attached but doing nothing — no
  // events, no speed changes, no division anywhere. The epoch must be
  // finite and its picosecond length must fit in TimePs, since
  // sim::microseconds casts it.
  const double epoch_ps =
      config_.epoch_us * static_cast<double>(sim::kPsPerUs);
  active_ = config_.budget_w > 0 && config_.epoch_us > 0 &&
            std::isfinite(epoch_ps) && epoch_ps < 0x1p64 &&
            !config_.ladder.empty() && config_.ladder.front() > 0;
  if (!active_) return;
  for (double s : config_.ladder) {
    if (!std::isfinite(s) || s <= 0) {
      active_ = false;
      return;
    }
  }
  config_.power.num_cores = machine_.config().cpu.num_cores;
  for (const accel::AccelType t : accel::kAllAccelTypes) {
    base_speedup_[accel::index_of(t)] =
        machine_.accel(t).params().speedup;
  }
}

void PowerGovernor::start(sim::TimePs until) {
  if (!active_) return;
  until_ = until;
  s_.prev = snapshot_busy();
  s_.epoch_start = machine_.sim().now();
  const auto epoch = static_cast<sim::TimePs>(
      sim::microseconds(config_.epoch_us));
  const sim::TimePs next = machine_.sim().now() + epoch;
  if (next > until_) return;
  machine_.sim().schedule_at(next, [this] { on_epoch(); });
}

PowerGovernor::BusySnapshot PowerGovernor::snapshot_busy() const {
  BusySnapshot s;
  s.core_busy = machine_.cores().stats().busy_time;
  s.dma_busy = machine_.dma().stats().busy_time;
  for (const accel::AccelType t : accel::kAllAccelTypes) {
    const auto& acc = machine_.accel(t);
    s.accel_busy[accel::index_of(t)] = acc.stats().pe_busy_time;
    s.dispatcher_busy += acc.dispatcher_busy_time();
  }
  return s;
}

double PowerGovernor::estimate_power_w(const energy::Activity& activity,
                                       double scale) const {
  // Price the epoch through the energy model, swapping the accelerator
  // term for the DVFS-scaled one: dynamic accelerator power tracks
  // dvfs_power_factor(scale), everything else is frequency-independent.
  const energy::EnergyReport rep =
      energy::compute_energy(activity, config_.power, config_.area);
  const double elapsed_s = sim::to_seconds(activity.elapsed);
  if (elapsed_s <= 0) return 0.0;
  const double unscaled_accel_w = rep.accel_j / elapsed_s;
  const double scaled_accel_w =
      energy::accel_power_w(activity, config_.power, config_.area, scale);
  return rep.avg_power_w - unscaled_accel_w + scaled_accel_w;
}

void PowerGovernor::apply_level(std::size_t level) {
  const double scale = config_.ladder[level];
  for (const accel::AccelType t : accel::kAllAccelTypes) {
    machine_.accel(t).set_speedup(base_speedup_[accel::index_of(t)] *
                                  scale);
  }
}

void PowerGovernor::on_epoch() {
  const sim::TimePs now = machine_.sim().now();
  const BusySnapshot cur = snapshot_busy();

  energy::Activity act;
  act.elapsed = now - s_.epoch_start;
  act.core_busy = cur.core_busy - s_.prev.core_busy;
  for (std::size_t i = 0; i < act.accel_busy.size(); ++i) {
    act.accel_busy[i] = cur.accel_busy[i] - s_.prev.accel_busy[i];
  }
  act.dispatcher_busy = cur.dispatcher_busy - s_.prev.dispatcher_busy;
  act.dma_busy = cur.dma_busy - s_.prev.dma_busy;
  act.pes_per_accel = machine_.config().pes_per_accel;
  s_.prev = cur;
  s_.epoch_start = now;

  const double power_w = estimate_power_w(act, config_.ladder[s_.level]);
  ++s_.stats.epochs;
  s_.stats.sum_power_w += power_w;
  s_.stats.max_power_w = std::max(s_.stats.max_power_w, power_w);

  if (power_w > config_.budget_w && s_.level + 1 < config_.ladder.size()) {
    ++s_.level;
    ++s_.stats.steps_down;
    apply_level(s_.level);
  } else if (s_.level > 0 &&
             estimate_power_w(act, config_.ladder[s_.level - 1]) <
                 config_.step_up_headroom * config_.budget_w) {
    --s_.level;
    ++s_.stats.steps_up;
    apply_level(s_.level);
  }
  if (s_.level > 0) ++s_.stats.capped_epochs;
  s_.stats.min_scale = std::min(s_.stats.min_scale, config_.ladder[s_.level]);

  const auto epoch = static_cast<sim::TimePs>(
      sim::microseconds(config_.epoch_us));
  const sim::TimePs next = now + epoch;
  if (next > until_) return;  // Horizon reached: let the calendar drain.
  machine_.sim().schedule_at(next, [this] { on_epoch(); });
}

void PowerGovernor::restore(const Checkpoint& c) {
  s_ = c;
  if (active_) apply_level(s_.level);
}

void PowerGovernor::snapshot_metrics(obs::MetricsRegistry& reg) const {
  using Kind = obs::MetricsRegistry::Kind;
  reg.set("qos.power.budget_w", config_.budget_w, Kind::kGauge);
  reg.set("qos.power.scale", scale(), Kind::kGauge);
  reg.set("qos.power.epochs", static_cast<double>(s_.stats.epochs));
  reg.set("qos.power.capped_epochs",
          static_cast<double>(s_.stats.capped_epochs));
  reg.set("qos.power.steps_down", static_cast<double>(s_.stats.steps_down));
  reg.set("qos.power.steps_up", static_cast<double>(s_.stats.steps_up));
  reg.set("qos.power.avg_w", s_.stats.avg_power_w(), Kind::kGauge);
  reg.set("qos.power.max_w", s_.stats.max_power_w, Kind::kGauge);
}

}  // namespace accelflow::qos
