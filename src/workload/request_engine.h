#ifndef ACCELFLOW_WORKLOAD_REQUEST_ENGINE_H_
#define ACCELFLOW_WORKLOAD_REQUEST_ENGINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/machine.h"
#include "core/orchestrator.h"
#include "mem/address.h"
#include "qos/admission.h"
#include "sim/arena.h"
#include "stats/latency_recorder.h"
#include "workload/service.h"

/**
 * @file
 * Drives end-to-end service invocations through an orchestrator: walks each
 * request's stage list (CPU segments and parallel chain groups), samples
 * per-chain branch flags and payloads deterministically, and records
 * end-to-end latency per service.
 *
 * Determinism note: request arrival processes, per-request flags, and
 * per-chain cost streams are seeded independently of the architecture under
 * test, so two architectures see the *same* request sequence and the same
 * branch outcomes — experiments are paired.
 */

namespace accelflow::workload {

/** Per-service measurement state. */
struct ServiceStats {
  stats::LatencyRecorder latency;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< Timeout or error outcome.
  std::uint64_t fallbacks = 0;  ///< Requests with >=1 CPU-fallback chain.
  std::uint64_t faulted = 0;    ///< Requests with >=1 fault-recovered chain.
};

/** Executes requests against one machine + orchestrator. */
class RequestEngine {
 public:
  /**
   * @param services one runtime Service per colocated service; the index
   *        doubles as the tenant ID.
   */
  RequestEngine(core::Machine& machine, core::Orchestrator& orch,
                std::vector<Service*> services, std::uint64_t seed);

  /** Injects one invocation of services[s] at the current simulated time. */
  void inject(std::size_t s);

  /**
   * Injects a nested (machine-internal) sub-request of services[s]; fires
   * `deliver` with the response size when it completes, after the wire RTT.
   */
  void inject_internal(std::size_t s, double wire_rtt_us,
                       std::function<void(std::uint64_t)> deliver);

  /** Number of colocated services. */
  std::size_t num_services() const { return services_.size(); }
  const Service& service(std::size_t s) const { return *services_[s]; }

  const ServiceStats& stats(std::size_t s) const { return s_.stats[s]; }

  /** Resets the per-service recorders (end of warmup). */
  void reset_stats();

  std::uint64_t total_completed() const;
  std::uint64_t total_issued() const;
  std::uint64_t in_flight() const { return active_.size(); }

  /**
   * Deadline budget per accelerator step for SLO runs (Section IV-C);
   * kTimeNever disables stamping. The per-service form lets short-SLO
   * services carry tighter step deadlines than long chains.
   */
  void set_step_deadline_budget(sim::TimePs budget) {
    s_.step_budgets.assign(services_.size(), budget);
  }
  void set_step_deadline_budgets(std::vector<sim::TimePs> budgets) {
    s_.step_budgets = std::move(budgets);
  }

  /**
   * Attaches a QoS admission controller (DESIGN.md §19): every request
   * completion reports its end-to-end latency so the controller's SLO
   * hysteresis tracks the tenant it belongs to. Null detaches; the
   * controller must outlive the engine.
   */
  void set_admission(qos::AdmissionController* admission) {
    admission_ = admission;
  }

  /**
   * The engine's measurement and determinism state, copied whole by
   * checkpoint() (DESIGN.md §13). In-flight requests hold raw pointers
   * into the simulator calendar and are *not* part of it: restore() drops
   * them (workload::SweepSession only checkpoints at a quiescent point
   * where none exist). The request-id cursor is included so forked runs
   * draw the same per-request RNG streams as a straight-through run.
   */
  struct State {
    std::vector<ServiceStats> stats;       ///< Per-service recorders.
    accel::RequestId next_id = 1;          ///< Request-id cursor.
    std::vector<sim::TimePs> step_budgets; ///< SLO step budgets.
    /** Per-service cursor into its rotating buffer pool. */
    std::vector<std::size_t> pool_next;
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }

  /** Restores state captured by checkpoint(); drops in-flight requests
   *  and bulk-frees their arena storage. */
  void restore(const Checkpoint& c);

 private:
  struct ActiveRequest {
    std::size_t service = 0;
    accel::RequestId id = 0;
    int core = 0;
    std::size_t stage = 0;
    int pending_chains = 0;
    bool failed = false;
    bool fell_back = false;
    bool faulted = false;
    sim::TimePs arrived = 0;
    sim::Rng rng;
    /** Arena-backed chain contexts of the current stage (chain_arena_). */
    std::vector<core::ChainContext*> chains;
    /** Set for nested sub-requests: fired with the response size. */
    std::function<void(std::uint64_t)> on_complete;
    sim::TimePs wire_rtt = 0;
  };

  ActiveRequest* create_request(std::size_t s);
  void advance(ActiveRequest* r);
  void launch_chains(ActiveRequest* r, const StageSpec& stage);
  void complete(ActiveRequest* r);
  /** Returns the current stage's chain contexts to the arena. */
  void release_chains(ActiveRequest* r);
  mem::VirtAddr buffer_for(std::size_t service, std::uint64_t bytes);

  core::Machine& machine_;
  core::Orchestrator& orch_;
  std::vector<Service*> services_;
  State s_;
  std::uint64_t seed_;
  qos::AdmissionController* admission_ = nullptr;  ///< SLO latency feedback.
  std::unordered_map<accel::RequestId, ActiveRequest*> active_;
  // Hot-path arenas: requests and chain contexts churn at the arrival
  // rate; slab recycling avoids a malloc/free pair per object and lets
  // restore() bulk-free everything in flight.
  sim::Arena<ActiveRequest> request_arena_;
  sim::Arena<core::ChainContext> chain_arena_;
  // Per-service rotating buffer pools: realistic TLB locality.
  struct BufferPool {
    std::unique_ptr<mem::AddressSpace> space;
    std::vector<mem::VirtAddr> buffers;
  };
  std::vector<BufferPool> pools_;
};

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_REQUEST_ENGINE_H_
