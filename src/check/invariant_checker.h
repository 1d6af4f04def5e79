#ifndef ACCELFLOW_CHECK_INVARIANT_CHECKER_H_
#define ACCELFLOW_CHECK_INVARIANT_CHECKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/machine.h"
#include "core/trace_analysis.h"
#include "core/validation_hooks.h"
#include "obs/span.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

/**
 * @file
 * The runtime invariant checker of the validation subsystem (TESTING.md):
 * a passive observer that attaches to a Machine and continuously asserts
 * conservation invariants while a simulation runs.
 *
 * What it checks, continuously:
 *  - every chain the orchestrator admits terminates exactly once
 *    (completed, rejected or timed out) — no lost or double-finished flows;
 *  - no stage executes out of Trace order: the observed invocation sequence
 *    of each flow must match the static walk_chain() expansion of its
 *    program under the chain's sampled branch flags (TraceLibrary::walk);
 *  - payload sizes evolve exactly as ChainEnv::transformed_size dictates
 *    between consecutive stages (remote responses excepted: their size is
 *    a fresh draw);
 *  - per-accelerator queue conservation: allocations == releases +
 *    occupancy, occupancy within configured capacity, dispatches ==
 *    recorded input sizes, and overflow_enqueues == overflow_drains +
 *    overflow_occupancy;
 *  - simulated time never moves backwards (via sim::EventProbe) and the
 *    kernel never had to clamp a past-time schedule;
 *  - DMA conservation: every issued transfer's bytes are delivered by its
 *    completion time (bytes-in == bytes-out at quiescence).
 *
 * Violations carry the offending flow-id and an excerpt of the most recent
 * spans from the tracer ring, so a failure names the chain and shows what
 * the machine was doing (see Violation::span_excerpt).
 *
 * Like obs::Tracer, the checker only observes: it never schedules events,
 * draws randomness, or feeds anything back into a model, so a checked run
 * is bit-identical to an unchecked run (asserted by
 * tests/test_determinism_matrix.cc). When no checker is attached the cost
 * is one null-pointer branch per instrumented site.
 */

/** Validation subsystem: invariants, differential fuzzing, analytics. */
namespace accelflow::check {

/** Tuning knobs for the invariant checker. */
struct CheckerConfig {
  /** Violations recorded before further ones are only counted. */
  std::size_t max_violations = 16;
  /** Recent spans included in each violation report. */
  std::size_t excerpt_spans = 12;
  /** Ring capacity of the checker's own flight recorder (used only when
   *  the machine has no tracer attached). */
  std::size_t flight_recorder_spans = 4096;
  /** Keep the full observed stage sequence per flow (the differential
   *  fuzzer compares these across architectures). Off by default: the
   *  sequences grow with the run. */
  bool record_sequences = false;
  /** Run the queue audit on every chain finish (cheap: a few dozen
   *  integer compares) in addition to final_audit(). */
  bool audit_on_finish = true;
};

/** One observed invocation stage of a flow (record_sequences mode). */
struct StageRecord {
  accel::AccelType type{};     ///< Accelerator that (logically) ran it.
  std::uint64_t bytes = 0;     ///< Payload size entering the stage.
  bool on_cpu = false;         ///< Executed on a core (fallback/Non-acc).
};

/** One detected invariant violation. */
struct Violation {
  std::string what;            ///< Human-readable description.
  obs::FlowId flow = 0;        ///< Offending flow; 0 = machine-level.
  sim::TimePs at = 0;          ///< Simulated time of detection.
  std::string span_excerpt;    ///< Recent spans from the tracer ring.
};

/** Aggregate checker activity (for reports and tests). */
struct CheckerStats {
  std::uint64_t chains_started = 0;
  std::uint64_t chains_finished = 0;
  std::uint64_t stages_checked = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t events_observed = 0;
  std::uint64_t audits = 0;
  /** Violations beyond CheckerConfig::max_violations (counted, dropped). */
  std::uint64_t violations_dropped = 0;
};

/**
 * The runtime invariant checker. Attach one instance to one Machine for
 * the duration of one simulation; call final_audit() before the machine is
 * destroyed, then detach().
 */
class InvariantChecker final : public core::ValidationHooks,
                               public sim::EventProbe {
 public:
  explicit InvariantChecker(CheckerConfig config = {});
  ~InvariantChecker() override;

  /**
   * Registers with `machine`: installs itself as the machine's validation
   * observer and the kernel's event probe, and — when the machine has no
   * tracer — attaches its own small flight-recorder ring so violation
   * reports can include recent spans. `lib` provides the trace programs
   * for the static chain expansion; both must outlive the attachment.
   */
  void attach(core::Machine& machine, const core::TraceLibrary& lib);

  /** Unregisters from the machine (safe to call when never attached). */
  void detach();

  // --- core::ValidationHooks -------------------------------------------
  void on_chain_start(const core::ChainContext& ctx,
                      core::AtmAddr first) override;
  void on_chain_finish(const core::ChainContext& ctx,
                       const core::ChainResult& result) override;
  void on_stage(const core::ChainContext& ctx, accel::AccelType type,
                std::uint64_t payload_bytes, bool on_cpu) override;
  void on_dma(std::uint64_t bytes, sim::TimePs complete_at) override;

  // --- sim::EventProbe --------------------------------------------------
  void on_event(sim::TimePs now) override;

  // --- Audits -----------------------------------------------------------

  /** Checks the per-accelerator queue/counter conservation identities. */
  void audit_queues();

  /**
   * End-of-run audit. Runs audit_queues() plus the whole-run identities;
   * when the calendar is empty (a run driven to quiescence) additionally
   * asserts that no chain is still in flight, every dispatched job
   * deposited an output, no DMA bytes remain undelivered, and the kernel
   * never clamped a past-time schedule.
   */
  void final_audit();

  // --- Results ----------------------------------------------------------

  /** True when no violation has been detected. */
  bool ok() const { return s_.violations.empty(); }

  /** Detected violations, in detection order (capped; see CheckerStats). */
  const std::vector<Violation>& violations() const { return s_.violations; }

  /** Activity counters. */
  const CheckerStats& stats() const { return s_.stats; }

  /** Multi-line human-readable report of all violations (empty when ok). */
  std::string report() const;

  /**
   * The observed stage sequence of `flow`, or nullptr when unknown.
   * Only populated with CheckerConfig::record_sequences. A flow restarted
   * by a later request stage accumulates across its restarts.
   */
  const std::vector<StageRecord>* sequence(obs::FlowId flow) const;

  /** All flows with a recorded sequence (record_sequences mode). */
  std::vector<obs::FlowId> recorded_flows() const;

 private:
  /** Per-flow in-flight validation state. */
  struct FlowState {
    /** Expected invocation sequence from the static chain walk. */
    std::vector<accel::AccelType> expected;
    /** remote_before[i]: a network wait precedes invocation i, so the
     *  payload entering i is a fresh response draw (size unchecked). */
    std::vector<bool> remote_before;
    std::size_t next = 0;        ///< Index of the next expected invocation.
    std::uint64_t last_bytes = 0;
    accel::AccelType last_type{};
    core::ChainEnv* env = nullptr;
  };

 public:
  /**
   * The checker's observation state, copied whole by checkpoint()
   * (DESIGN.md §13; the attachment is not part of it). The
   * checkpoint-and-fork sweep engine takes and restores it so an attached
   * checker tracks each forked timeline independently — a restored
   * request-id cursor reuses flow ids, which would otherwise trip the
   * "flow finished twice" invariant. Restoring rewinds violations too:
   * audit (or inspect) a point's violations before running the next.
   * FlowState::env aliases the caller-owned Service objects, which
   * outlive the sweep session, so copying the pointers is sound.
   */
  struct State {
    sim::TimePs last_event_time = 0;  ///< Monotonicity watermark.
    std::unordered_map<obs::FlowId, FlowState> active;  ///< In-flight flows.
    std::unordered_set<obs::FlowId> finished;  ///< Terminated flow ids.
    std::unordered_map<obs::FlowId, std::vector<StageRecord>>
        sequences;  ///< record_sequences mode captures.
    /** Min-heap of (complete_at, bytes) for issued, undelivered
     *  transfers. */
    std::vector<std::pair<sim::TimePs, std::uint64_t>> dma_inflight;
    std::uint64_t dma_issued_bytes = 0;     ///< DMA bytes issued.
    std::uint64_t dma_delivered_bytes = 0;  ///< DMA bytes delivered.
    std::vector<Violation> violations;      ///< Violations so far.
    CheckerStats stats;                     ///< Activity counters.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  /** Restores state captured by checkpoint() on this same checker. */
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  /** Records (or counts, past the cap) one violation. */
  void violate(std::string what, obs::FlowId flow);

  /** Formats the newest spans of the tracer ring for a report. */
  std::string span_excerpt() const;

  /** Pops DMA heap entries delivered by `now`. */
  void retire_dma(sim::TimePs now);

  CheckerConfig config_;
  core::Machine* machine_ = nullptr;
  const core::TraceLibrary* lib_ = nullptr;
  std::unique_ptr<obs::Tracer> own_tracer_;
  bool installed_tracer_ = false;

  State s_;
};

}  // namespace accelflow::check

#endif  // ACCELFLOW_CHECK_INVARIANT_CHECKER_H_
