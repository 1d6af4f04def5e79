#ifndef ACCELFLOW_WORKLOAD_LOAD_GENERATOR_H_
#define ACCELFLOW_WORKLOAD_LOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "qos/admission.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/request_engine.h"

/**
 * @file
 * Open-loop load generation.
 *
 * Three arrival models reproduce the paper's drivers:
 *  - Poisson at a fixed rate (the Fig. 12 load sweeps),
 *  - a synthetic production trace with per-service base rates averaging
 *    13.4K RPS and bursty rate modulation (the Alibaba traces of [54]),
 *  - a bursty ON/OFF process with heavy-tailed bursts (the Azure serverless
 *    traces of [87]).
 */

namespace accelflow::workload {

/** Per-service base rates used with the synthetic production trace. */
std::vector<double> alibaba_like_rates(std::size_t num_services,
                                       double average_rps = 13400.0,
                                       std::uint64_t seed = 0xA11BABA);

/**
 * Shard-ownership decision for one arrival (the cluster layer's
 * load-balancer tier implements this — see cluster/balancer.h).
 *
 * Under sharded serving every shard runs *replicated* arrival streams:
 * identical LoadGenerators drawing from identical RNG states, so the
 * arrival calendars agree bit-for-bit across shards with no cross-shard
 * communication. A router then decides which shard *owns* each arrival;
 * the owner injects it, every other shard drops it on the floor. For
 * that to stay consistent, route() must be a pure function of its
 * arguments plus state that is itself identical on every shard (e.g. the
 * barrier-synchronized load snapshot) — never of per-shard state.
 */
class ArrivalRouter {
 public:
  virtual ~ArrivalRouter() = default;

  /**
   * Returns the shard index owning arrival number `seq` of `service`.
   * `seq` is the generator's running arrival count (identical across the
   * replicated streams); `now` the arrival's simulated time.
   */
  virtual std::size_t route(std::size_t service, std::uint64_t seq,
                            sim::TimePs now) const = 0;
};

/** Self-scheduling open-loop arrival process for one service. */
class LoadGenerator {
 public:
  enum class Model : std::uint8_t {
    kPoisson,   ///< Constant-rate Poisson.
    kTrace,     ///< Rate-modulated Poisson (Alibaba-like burstiness).
    kBursty,    ///< ON/OFF bursts (Azure-like serverless invocations).
  };

  /**
   * Starts generating invocations of `service` into `engine`.
   *
   * @param rps mean arrival rate; std::invalid_argument unless finite
   *            and > 0.
   * @param until stop issuing at this simulated time.
   */
  LoadGenerator(sim::Simulator& sim, RequestEngine& engine,
                std::size_t service, Model model, double rps,
                sim::TimePs until, std::uint64_t seed);

  std::uint64_t generated() const { return s_.generated; }

  /** Arrivals this generator actually injected (== generated() without a
   *  router; the owned subset of the replicated stream with one). */
  std::uint64_t admitted() const { return s_.admitted; }

  /** Owned arrivals refused by the admission controller (DESIGN.md §19). */
  std::uint64_t shed() const { return s_.shed; }

  /**
   * Attaches a QoS admission controller (DESIGN.md §19): from now on each
   * owned arrival is offered to `admission` first and dropped — counted in
   * shed(), never injected — when it declines. Null detaches. Shedding
   * happens *after* the ownership decision, so replicated cross-shard
   * streams stay aligned; the controller must outlive the generator.
   */
  void set_admission(qos::AdmissionController* admission) {
    admission_ = admission;
  }

  /**
   * Attaches a shard-ownership router: from now on only arrivals that
   * route() assigns to `self_shard` are injected, though every arrival
   * still advances the (replicated) stream identically. Null detaches
   * (every arrival owned). The router must outlive the generator.
   */
  void set_router(const ArrivalRouter* router, std::size_t self_shard) {
    router_ = router;
    self_shard_ = self_shard;
  }

  /**
   * The generator's arrival-process state, copied whole by checkpoint()
   * (DESIGN.md §13). Checkpoints are taken at quiescence, when the
   * generator has stopped (its last event fell past `until`) and no
   * self-scheduling event is pending; resume() revives it.
   */
  struct State {
    double rps = 0;                ///< Mean arrival rate.
    sim::TimePs until = 0;         ///< Issue cutoff.
    sim::Rng rng;                  ///< Arrival stream.
    std::uint64_t generated = 0;   ///< Invocations issued so far.
    std::uint64_t admitted = 0;    ///< Owned arrivals injected.
    std::uint64_t shed = 0;        ///< Owned arrivals refused (QoS).
    double rate_multiplier = 1.0;  ///< kTrace window multiplier.
    sim::TimePs window_end = 0;    ///< kTrace window boundary.
    /** kBursty ON/OFF state (starts OFF so the first toggle opens a
     *  burst). */
    bool on = false;
    sim::TimePs phase_end = 0;     ///< kBursty phase boundary.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }

  /** Restores state captured by checkpoint(). Does not schedule events:
   *  pair with resume(). */
  void restore(const Checkpoint& c) { s_ = c; }

  /**
   * Revives a stopped generator at the current simulated time: sets a new
   * rate and cutoff, then schedules the next arrival. Used by the fork
   * engine to re-arm warmup generators at each sweep point's target rate.
   * Only call when no arrival event for this generator is pending.
   * Throws std::invalid_argument unless `rps` is finite and > 0.
   */
  void resume(double rps, sim::TimePs until) {
    s_.rps = checked_rps(rps);
    s_.until = until;
    schedule_next();
  }

 private:
  /** `rps` if finite and > 0; throws std::invalid_argument otherwise (a
   *  NaN or infinite rate would never stop scheduling arrivals). */
  static double checked_rps(double rps);
  void schedule_next();
  double current_rate();

  sim::Simulator& sim_;
  RequestEngine& engine_;
  std::size_t service_;
  Model model_;
  State s_;
  const ArrivalRouter* router_ = nullptr;  ///< Shard-ownership filter.
  std::size_t self_shard_ = 0;             ///< Shard this generator feeds.
  qos::AdmissionController* admission_ = nullptr;  ///< QoS shed decision.
};

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_LOAD_GENERATOR_H_
