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
      model_(model),
      rps_(checked_rps(rps)),
      until_(until),
      rng_(seed) {
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
      return rps_;
    case Model::kTrace: {
      // Redraw the rate multiplier every 10ms window: sustained bursts and
      // lulls like the production traces exhibit (Alibaba's inter-service
      // rates are strongly bursty at small time scales).
      if (sim_.now() >= window_end_) {
        rate_multiplier_ = rng_.lognormal_mean_cv(1.0, 0.70);
        window_end_ = sim_.now() + sim::milliseconds(10);
      }
      return rps_ * rate_multiplier_;
    }
    case Model::kBursty: {
      // Serverless invocations: ON bursts at ~4x the mean separated by
      // quiet periods. Duty cycle ~28% keeps the mean at rps_.
      if (sim_.now() >= phase_end_) {
        on_ = !on_;
        const double mean_ms = on_ ? 12.0 : 30.0;
        // Clamp the draw: a single pathological phase must not silence a
        // function for a whole measurement window.
        const double dur =
            std::clamp(rng_.exponential(mean_ms), 1.0,
                       (on_ ? 4.0 : 2.5) * mean_ms);
        phase_end_ = sim_.now() + sim::milliseconds(dur);
      }
      return on_ ? rps_ * 3.5 : rps_ * 0.0;
    }
  }
  return rps_;
}

void LoadGenerator::schedule_next() {
  const double rate = current_rate();
  sim::TimePs gap;
  if (rate <= 0.0) {
    // OFF phase: re-evaluate at the phase boundary.
    gap = phase_end_ > sim_.now() ? phase_end_ - sim_.now()
                                  : sim::milliseconds(1);
  } else {
    gap = static_cast<sim::TimePs>(
        std::max(1.0, rng_.exponential(1e12 / rate)));
  }
  const sim::TimePs next = sim_.now() + gap;
  if (next >= until_) return;
  sim_.schedule_at(next, [this, rate] {
    if (rate > 0.0) {
      // With a router attached, every arrival advances the replicated
      // stream but only the owned subset is injected; without one, this
      // is exactly the single-machine path (inject everything).
      const std::uint64_t seq = generated_++;
      if (router_ == nullptr ||
          router_->route(service_, seq, sim_.now()) == self_shard_) {
        // Shed decision strictly after the ownership decision: replicated
        // cross-shard streams must agree on seq regardless of QoS state.
        if (admission_ == nullptr ||
            admission_->admit(static_cast<accel::TenantId>(service_))) {
          engine_.inject(service_);
          ++admitted_;
        } else {
          ++shed_;
        }
      }
    }
    schedule_next();
  });
}

}  // namespace accelflow::workload
