#include "check/analytical.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "accel/accelerator.h"
#include "mem/iommu.h"
#include "mem/memory_system.h"
#include "noc/interconnect.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace accelflow::check {

double erlang_c(int k, double a) {
  // Erlang-B by its numerically stable recursion, then convert:
  //   B(0) = 1,  B(n) = a B(n-1) / (n + a B(n-1))
  //   C(k) = k B(k) / (k - a (1 - B(k)))
  double b = 1.0;
  for (int n = 1; n <= k; ++n) {
    b = a * b / (static_cast<double>(n) + a * b);
  }
  return static_cast<double>(k) * b /
         (static_cast<double>(k) - a * (1.0 - b));
}

double mmk_mean_wait(int k, double lambda, double mu) {
  const double a = lambda / mu;
  return erlang_c(k, a) / (static_cast<double>(k) * mu - lambda);
}

double md1_mean_wait(double lambda, double service_s) {
  const double rho = lambda * service_s;
  return rho * service_s / (2.0 * (1.0 - rho));
}

namespace {

/** Frees every deposited output immediately: the PE service time is the
 *  whole story, as the closed forms assume. */
class ImmediateRelease final : public accel::OutputHandler {
 public:
  void handle_output(accel::Accelerator& acc, accel::SlotId slot) override {
    acc.release_output(slot);
  }
};

/** Open-loop Poisson source feeding one accelerator. */
class PoissonDriver {
 public:
  PoissonDriver(sim::Simulator& sim, accel::Accelerator& acc,
                const AnalyticalConfig& config, double interarrival_us)
      : sim_(sim),
        acc_(acc),
        config_(config),
        interarrival_us_(interarrival_us),
        rng_(config.seed),
        remaining_(config.jobs) {}

  void start() { arrive(); }

  std::uint64_t drops() const { return drops_; }
  sim::TimePs last_arrival() const { return last_arrival_; }

 private:
  void arrive() {
    last_arrival_ = sim_.now();
    accel::QueueEntry e;
    e.flow = obs::flow_id(config_.jobs - remaining_, 0);
    e.tenant = 1;
    e.payload.size_bytes = 0;  // Skip transfer and memory paths entirely.
    e.cpu_cost = config_.deterministic
                     ? sim::microseconds(config_.mean_service_us)
                     : sim::microseconds(
                           rng_.exponential(config_.mean_service_us));
    const accel::SlotId slot = acc_.try_enqueue(std::move(e));
    if (slot == accel::kInvalidSlot) {
      ++drops_;  // Statistically impossible with a sane queue; reported.
    } else {
      acc_.deliver_data(slot);
    }
    if (--remaining_ > 0) {
      sim_.schedule_after(
          sim::microseconds(rng_.exponential(interarrival_us_)),
          [this] { arrive(); });
    }
  }

  sim::Simulator& sim_;
  accel::Accelerator& acc_;
  const AnalyticalConfig& config_;
  double interarrival_us_;
  sim::Rng rng_;
  std::uint64_t remaining_;
  std::uint64_t drops_ = 0;
  sim::TimePs last_arrival_ = 0;
};

}  // namespace

AnalyticalResult run_analytical_check(const AnalyticalConfig& config) {
  AnalyticalResult out;

  // Rates. rho = lambda / (k mu), all in microsecond units here.
  const double mu = 1.0 / config.mean_service_us;       // Jobs/us/server.
  const double lambda =
      config.utilization * static_cast<double>(config.pes) * mu;
  const double interarrival_us = 1.0 / lambda;

  // Nominal prediction; refined below against the *realized* rates once
  // the run is over.
  out.predicted_util = config.utilization;
  out.predicted_wait_us =
      config.deterministic
          ? md1_mean_wait(lambda, config.mean_service_us)
          : mmk_mean_wait(config.pes, lambda, mu);

  // The modeled machine, stripped to the queueing skeleton: one
  // accelerator, no speedup, no queue->scratchpad latency, payloads of
  // zero bytes (nothing transfers, nothing translates), a queue deep
  // enough to never reject, and outputs freed the instant they deposit.
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::MemParams{});
  mem::Iommu iommu(sim, mem, mem::WalkParams{});
  accel::AccelParams params;
  params.type = accel::AccelType::kSer;
  params.num_pes = config.pes;
  params.input_queue_entries = 16384;
  params.output_queue_entries = 16384;
  params.overflow_capacity = 0;
  params.speedup = 1.0;
  params.queue_to_spad_latency_ns = 0.0;
  accel::Accelerator acc(sim, params, mem, iommu, noc::Location{0, {0, 0}});
  ImmediateRelease handler;
  acc.set_output_handler(&handler);

  PoissonDriver driver(sim, acc, config, interarrival_us);
  driver.start();
  sim.run();

  const accel::AccelStats& stats = acc.stats();
  out.jobs_measured = stats.input_queue_delay.count();
  out.simulated_wait_us = stats.input_queue_delay.mean_us();

  // Evaluate the closed form at the rates the finite sample actually
  // realized. Near saturation Wq amplifies load error by ~1/(1-rho)^2, so
  // the ~0.3% sampling wobble of 150k exponential draws would otherwise
  // swamp the model comparison with a few percent of spurious "error".
  const double window_us = sim::to_microseconds(driver.last_arrival());
  if (out.jobs_measured > 1 && window_us > 0.0) {
    const double lambda_hat =
        static_cast<double>(out.jobs_measured - 1) / window_us;
    const double service_hat_us =
        sim::to_microseconds(stats.pe_busy_time) /
        static_cast<double>(out.jobs_measured);
    out.predicted_util = lambda_hat * service_hat_us /
                         static_cast<double>(config.pes);
    out.predicted_wait_us =
        config.deterministic
            ? md1_mean_wait(lambda_hat, service_hat_us)
            : mmk_mean_wait(config.pes, lambda_hat, 1.0 / service_hat_us);
  }
  // Utilization over the arrival window: the drain tail after the last
  // arrival would otherwise dilute rho.
  const double window = static_cast<double>(driver.last_arrival());
  out.simulated_util =
      window > 0 ? static_cast<double>(stats.pe_busy_time) /
                       (window * static_cast<double>(config.pes))
                 : 0.0;

  out.wait_error = std::abs(out.simulated_wait_us - out.predicted_wait_us) /
                   out.predicted_wait_us;
  out.util_error = std::abs(out.simulated_util - out.predicted_util) /
                   out.predicted_util;

  std::ostringstream os;
  if (driver.drops() > 0) {
    os << driver.drops() << " arrivals rejected by a full queue; ";
  }
  if (out.jobs_measured != config.jobs) {
    os << "measured " << out.jobs_measured << " of " << config.jobs
       << " jobs; ";
  }
  if (out.wait_error > config.tolerance) {
    os << "mean wait off by " << out.wait_error * 100 << "% (sim "
       << out.simulated_wait_us << "us vs " << out.predicted_wait_us
       << "us " << (config.deterministic ? "M/D/1" : "M/M/k") << "); ";
  }
  if (out.util_error > config.tolerance) {
    os << "utilization off by " << out.util_error * 100 << "% (sim "
       << out.simulated_util << " vs " << out.predicted_util << "); ";
  }
  out.detail = os.str();
  out.passed = out.detail.empty();
  return out;
}

}  // namespace accelflow::check
