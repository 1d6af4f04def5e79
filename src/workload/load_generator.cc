#include "workload/load_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace accelflow::workload {

std::vector<double> alibaba_like_rates(std::size_t num_services,
                                       double average_rps,
                                       std::uint64_t seed) {
  // Production inter-service rates are heavily skewed; draw lognormal
  // factors and normalize so the suite average matches the paper's 13.4K.
  sim::Rng rng(seed);
  std::vector<double> rates(num_services);
  double sum = 0;
  for (double& r : rates) {
    r = rng.lognormal_mean_cv(1.0, 0.55);
    sum += r;
  }
  const double scale = average_rps * static_cast<double>(num_services) / sum;
  for (double& r : rates) r *= scale;
  return rates;
}

LoadGenerator::LoadGenerator(sim::Simulator& sim, RequestEngine& engine,
                             std::size_t service, Model model, double rps,
                             sim::TimePs until, std::uint64_t seed)
    : sim_(sim),
      engine_(engine),
      service_(service),
      model_(model) {
  s_.rps = checked_rps(rps);
  s_.until = until;
  s_.rng = sim::Rng(seed);
  schedule_next();
}

double LoadGenerator::checked_rps(double rps) {
  if (!(std::isfinite(rps) && rps > 0)) {
    throw std::invalid_argument("rps must be finite and > 0, got " +
                                std::to_string(rps));
  }
  return rps;
}

double LoadGenerator::current_rate() {
  switch (model_) {
    case Model::kPoisson:
      return s_.rps;
    case Model::kTrace: {
      // Redraw the rate multiplier every 10ms window: sustained bursts and
      // lulls like the production traces exhibit (Alibaba's inter-service
      // rates are strongly bursty at small time scales).
      if (sim_.now() >= s_.window_end) {
        s_.rate_multiplier = s_.rng.lognormal_mean_cv(1.0, 0.70);
        s_.window_end = sim_.now() + sim::milliseconds(10);
      }
      return s_.rps * s_.rate_multiplier;
    }
    case Model::kBursty: {
      // Serverless invocations: ON bursts at ~4x the mean separated by
      // quiet periods. Duty cycle ~28% keeps the mean at rps.
      if (sim_.now() >= s_.phase_end) {
        s_.on = !s_.on;
        const double mean_ms = s_.on ? 12.0 : 30.0;
        // Clamp the draw: a single pathological phase must not silence a
        // function for a whole measurement window.
        const double dur =
            std::clamp(s_.rng.exponential(mean_ms), 1.0,
                       (s_.on ? 4.0 : 2.5) * mean_ms);
        s_.phase_end = sim_.now() + sim::milliseconds(dur);
      }
      return s_.on ? s_.rps * 3.5 : s_.rps * 0.0;
    }
  }
  return s_.rps;
}

void LoadGenerator::schedule_next() {
  const double rate = current_rate();
  sim::TimePs gap;
  if (rate <= 0.0) {
    // OFF phase: re-evaluate at the phase boundary.
    gap = s_.phase_end > sim_.now() ? s_.phase_end - sim_.now()
                                    : sim::milliseconds(1);
  } else {
    gap = static_cast<sim::TimePs>(
        std::max(1.0, s_.rng.exponential(1e12 / rate)));
  }
  const sim::TimePs next = sim_.now() + gap;
  if (next >= s_.until) return;
  sim_.schedule_at(next, [this, rate] {
    if (rate > 0.0) {
      // With a router attached, every arrival advances the replicated
      // stream but only the owned subset is injected; without one, this
      // is exactly the single-machine path (inject everything).
      const std::uint64_t seq = s_.generated++;
      if (router_ == nullptr ||
          router_->route(service_, seq, sim_.now()) == self_shard_) {
        // Shed decision strictly after the ownership decision: replicated
        // cross-shard streams must agree on seq regardless of QoS state.
        if (admission_ == nullptr ||
            admission_->admit(static_cast<accel::TenantId>(service_))) {
          engine_.inject(service_);
          ++s_.admitted;
        } else {
          ++s_.shed;
        }
      }
    }
    schedule_next();
  });
}

}  // namespace accelflow::workload
