#ifndef ACCELFLOW_CORE_ORCH_BASELINES_H_
#define ACCELFLOW_CORE_ORCH_BASELINES_H_

#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/accelerator.h"
#include "core/orchestrator.h"
#include "core/trace_analysis.h"
#include "sim/random.h"

/**
 * @file
 * The baseline orchestrators of Section VI.
 *
 * All baselines execute the same logical op sequence (the library's
 * memoized walk_chain) on the same accelerator hardware; they differ in
 * who coordinates each step:
 *
 *  - Non-acc     : everything on the initiating core, priced by
 *                  core::price_cpu_segment like every CPU fallback.
 *  - CPU-Centric : the core invokes one accelerator at a time and takes an
 *                  interrupt on each completion (Section III).
 *  - RELIEF      : a centralized hardware manager is interrupted on every
 *                  accelerator completion (~1.5us each) and issues the next
 *                  op; the base design funnels all accelerator admissions
 *                  through one shared 64-entry queue (Section VII-A.2); the
 *                  PerAccTypeQ variant lifts that to per-type queues.
 *  - Cohort      : statically linked accelerator pairs forward directly;
 *                  every other transition returns to the core, which polls
 *                  shared-memory queues (cheaper than an interrupt).
 *
 * When enqueue retries run out, the rest of the chain runs on the core
 * from the failed invoke on, as Non-acc runs a whole chain (run_on_cpu).
 */

namespace accelflow::core {

/** Tuning knobs for the baseline coordination costs. */
struct BaselineCosts {
  /** Core-side handler after a completion interrupt (CPU-Centric). */
  double interrupt_handler_cycles = 1500;
  /** Occasionally the handler lands behind other kernel work and costs a
   *  multiple of the base (tail events that shape P99, not the mean). */
  double interrupt_tail_prob = 0.06;
  double interrupt_tail_factor = 6.0;
  /** Cohort's software-queue poll + dequeue on the core. */
  double cohort_poll_cycles = 4000;
  /** The consuming core sweeps its software queues at this period; a
   *  completion waits up to one period before it is noticed. */
  double cohort_poll_interval_us = 6.0;
  /** When the polling core is tied up in application work, a completion
   *  sits in the queue much longer: Cohort's tail-latency weakness. */
  double cohort_stall_prob = 0.24;
  double cohort_stall_min_us = 20.0;
  double cohort_stall_max_us = 110.0;
  /** Cohort's direct pair-to-pair hand-off control overhead. */
  double cohort_link_ns = 50;
  /** Output-dispatcher instructions in baselines (no trace logic). */
  double plain_dispatcher_instrs = 5;
  /** Enqueue retry budget before falling back to the CPU. */
  int enqueue_retries = 10;
  double enqueue_retry_delay_ns = 300;
  double response_timeout_ms = 10.0;
};

/** Modes of the shared baseline executor. */
enum class BaselineMode : std::uint8_t {
  kNonAcc,
  kCpuCentric,
  kRelief,
  kCohort,
};

/** Counters for baseline orchestration activity. */
struct BaselineStats {
  std::uint64_t chains = 0;
  std::uint64_t completed = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t manager_events = 0;
  std::uint64_t polls = 0;
  std::uint64_t linked_hops = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t central_queue_waits = 0;
  std::uint64_t timeouts = 0;  ///< Network waits that timed out.
  sim::TimePs orchestration_time = 0;  ///< Pure coordination time.
};

/**
 * One orchestrator implementation covering Non-acc, CPU-Centric, RELIEF
 * (with or without the centralized queue) and Cohort.
 */
class BaselineOrchestrator : public Orchestrator,
                             public accel::OutputHandler {
 public:
  /** Throws std::invalid_argument naming a `costs` field that is not
   *  finite and >= 0. */
  BaselineOrchestrator(BaselineMode mode, Machine& machine,
                       const TraceLibrary& lib, bool relief_central_queue,
                       const BaselineCosts& costs = {});
  ~BaselineOrchestrator() override;

  void run_chain(ChainContext* ctx, AtmAddr first) override;
  std::string_view name() const override;
  void handle_output(accel::Accelerator& acc, accel::SlotId slot) override;
  std::unique_ptr<OrchCheckpoint> save_checkpoint() const override;
  void restore_checkpoint(const OrchCheckpoint& c) override;

  const BaselineStats& stats() const { return s_.stats; }

  /** Cohort's statically linked producer->consumer accelerator pairs. */
  static const std::set<std::pair<accel::AccelType, accel::AccelType>>&
  default_cohort_links();

  /**
   * The orchestrator's own mutable state, copied whole by checkpoint()
   * (DESIGN.md §13). Only meaningful at a quiescent point: in-flight
   * chains and central-queue issues hold raw pointers and are cleared on
   * restore rather than captured (workload::SweepSession checkpoints with
   * none in flight).
   */
  struct State : OrchCheckpoint {
    sim::Rng rng{0xC0408};               ///< Tail/stall draw stream.
    BaselineStats stats;                 ///< Counters.
    std::size_t central_tokens = 64;     ///< RELIEF in-flight budget.
    bool central_pump_scheduled = false; ///< Pump event pending.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }

  /** Restores state captured by checkpoint(); drops in-flight chains. */
  void restore(const Checkpoint& c);

 private:
  struct Chain {
    ChainContext* ctx = nullptr;
    /** The logical-op program (owned by the library's walk memo). */
    const std::vector<LogicalOp>* ops = nullptr;
    std::size_t i = 0;  ///< Next op to execute.
    std::uint64_t bytes = 0;
    accel::AccelType last_accel{};
    bool has_last_accel = false;
  };

  /** Advances the chain from ops[i] at `ready`. */
  void step(Chain* c, sim::TimePs ready);

  /** Issues ops[i] (an invoke) into its accelerator. */
  void issue_invoke(Chain* c, sim::TimePs ready, bool direct_hop);

  /** In-flight issue of one accelerator op (retry state). */
  struct Issue {
    Chain* c = nullptr;
    accel::Accelerator* dst = nullptr;
    accel::QueueEntry entry;
    noc::Location src;
    std::uint64_t dma_bytes = 0;
    int attempts = 0;
  };
  void try_issue(std::shared_ptr<Issue> issue, sim::TimePs when);
  /** The admitted issue's payload DMA into input slot `slot`, from `when`;
   *  the slot becomes ready when it lands. */
  void launch(const Issue& issue, accel::SlotId slot, sim::TimePs when);

  /**
   * RELIEF base design: all issues pass through one FIFO. The manager only
   * dispatches the head; a head whose accelerator queue is full blocks
   * everything behind it (head-of-line blocking across accelerator types).
   */
  void pump_central_queue();

  /**
   * Runs ctx's chain on its core from the invoke of `pending` on `bytes`,
   * continuing at trace `word` / position mark `pm`: Non-acc from the
   * first invoke, the other modes from an invoke whose enqueue retries
   * ran out. Network waits release the core; a zero-time segment goes on
   * at once.
   */
  void run_on_cpu(ChainContext* ctx, std::uint64_t word, std::uint8_t pm,
                  std::uint64_t bytes, accel::AccelType pending);

  void finish(ChainContext* ctx, bool timed_out, bool fell_back);

  Machine& machine_;
  const TraceLibrary& lib_;
  BaselineMode mode_;
  bool central_queue_;
  BaselineCosts costs_;
  State s_;
  std::unordered_map<ChainContext*, std::unique_ptr<Chain>> chains_;
  std::set<std::pair<accel::AccelType, accel::AccelType>> cohort_links_;
  // RELIEF central queue (base design): FIFO of pending issues sharing
  // one budget (s_.central_tokens) across all accelerator types.
  std::deque<std::shared_ptr<Issue>> central_fifo_;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_ORCH_BASELINES_H_
