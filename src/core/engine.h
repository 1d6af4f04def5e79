#ifndef ACCELFLOW_CORE_ENGINE_H_
#define ACCELFLOW_CORE_ENGINE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "accel/accelerator.h"
#include "core/chain.h"
#include "core/machine.h"
#include "core/trace_analysis.h"
#include "core/tenant_mba.h"
#include "core/trace_library.h"
#include "core/validation_hooks.h"
#include "qos/policy.h"
#include "sim/pool.h"
#include "stats/summary.h"

/**
 * @file
 * The AccelFlow execution engine: the output-dispatcher FSM of Figure 8,
 * the user-mode Enqueue path with retry/fallback (starvation freedom), the
 * overflow path (deadlock freedom), ATM continuation loading, network-wait
 * arming with timeouts, per-tenant trace throttling (Section IV-D), and
 * soft-SLO deadline propagation (Section IV-C).
 *
 * Ablation flags reproduce the Figure 13 ladder: with dispatcher_branches
 * off, branch resolution round-trips to the centralized hardware manager
 * ("Direct"); with dispatcher_transforms off, data transformations and
 * large-payload handling do too ("CntrFlow"). zero_overhead gives the
 * "Ideal" system of Figure 14.
 */

namespace accelflow::core {

/**
 * Resilience policy for fault-injected runs (DESIGN.md §14).
 *
 * The engine arms a per-chain hop watchdog whenever a fault sink is
 * attached to the machine (Machine::fault_hooks()): if a hop produces no
 * output within the timeout and the chain is no longer held by any
 * accelerator, the hop is declared lost (a PE hard-failure consumed the
 * entry) and re-issued with exponential backoff; after `hop_retries`
 * losses the chain continues on the CPU, which always completes. A
 * slow-but-alive hop (still queued, executing, or overflowed) is never
 * re-issued — the watchdog just re-arms with a doubled timeout.
 *
 * Repeated losses on one accelerator drive a per-type health state
 * machine: Healthy -> Unhealthy after `unhealthy_threshold` consecutive
 * losses (new work re-routes to the CPU for `quarantine_us`), then
 * Probation (work admitted again), then back to Healthy after
 * `probation_successes` completed hops — or straight back to Unhealthy
 * on the first loss during probation.
 *
 * With no fault sink attached nothing here runs, so a fault-free
 * timeline is bit-identical to one built without this subsystem.
 */
struct ResilienceConfig {
  bool enabled = true;            ///< Master switch (watchdogs + health).
  double hop_timeout_us = 50.0;   ///< Watchdog per accelerator hop.
  int hop_retries = 3;            ///< Re-issues before CPU fallback.
  double backoff_base_us = 5.0;   ///< First retry delay.
  double backoff_factor = 2.0;    ///< Delay multiplier per retry.
  int unhealthy_threshold = 3;    ///< Consecutive losses to quarantine.
  double quarantine_us = 200.0;   ///< Re-route window before probation.
  int probation_successes = 8;    ///< Clean hops to regain full health.
};

/** Engine configuration. Glue-instruction counts follow Section VII-B.2. */
struct EngineConfig {
  bool dispatcher_branches = true;    ///< Off = Fig. 13 "Direct".
  bool dispatcher_transforms = true;  ///< Off = Fig. 13 "CntrFlow".
  bool zero_overhead = false;         ///< Fig. 14 "Ideal".

  /** Always false: the dispatcher FSM is the only chain executor. Kept
   *  read-only so perfbench/ builds. */
  static constexpr bool compile = false;

  int enqueue_retries = 3;
  double enqueue_retry_delay_ns = 300.0;
  double response_timeout_ms = 10.0;
  /** Max concurrently-executing traces per tenant (Section IV-D). */
  std::uint32_t tenant_max_active = 1u << 30;

  double base_instrs = 15.0;       ///< FSM work with no branch/end/XF.
  double branch_instrs = 7.0;      ///< Extra for resolving a branch.
  double eot_atm_instrs = 12.0;    ///< End of trace with an ATM address.
  double eot_notify_instrs = 20.0; ///< End of trace with DMA + notify.
  double transform_instrs = 12.0;  ///< DTE control for a 2KB payload.
  double dte_gbps = 50.0;          ///< Data Transform Engine throughput.
  /** Manager events per ablation fallback (interrupt, fetch state,
   *  decide, write back): multiplies manager_event_us. */
  double manager_fallback_events = 4.0;

  /** Per-tenant MBA-style bandwidth limits on the A-DMA path (IV-D). */
  MbaConfig mba;

  /** Fault-recovery policy; active only with a fault sink attached. */
  ResilienceConfig resilience;

  /**
   * Multi-tenant QoS policy (DESIGN.md §19): per-tenant active-chain
   * quotas and scheduling priorities honored at chain start. The default
   * (no tenants) is a behavioral no-op.
   */
  qos::QosPolicy qos;
};

/** Engine-level counters (Sections VII-B.2, VII-B.6). */
struct EngineStats {
  std::uint64_t chains_started = 0;
  std::uint64_t chains_completed = 0;
  std::uint64_t enqueue_fallbacks = 0;   ///< Enqueue retries exhausted.
  std::uint64_t overflow_fallbacks = 0;  ///< Overflow area full.
  /** Fallbacks by the accelerator type that rejected the work (Fig. 19). */
  std::array<std::uint64_t, accel::kNumAccelTypes> fallbacks_by_type{};
  /** Invocation attempts per type (denominator for fallback shares). */
  std::array<std::uint64_t, accel::kNumAccelTypes> attempts_by_type{};
  std::uint64_t timeouts = 0;            ///< TCP wait-slot timeouts.
  std::uint64_t deferred_arms = 0;       ///< Wait-arming deferred: queue full.
  std::uint64_t manager_fallbacks = 0;   ///< Ablations only.
  std::uint64_t atm_loads = 0;
  std::uint64_t notifications = 0;
  std::uint64_t tenant_throttled = 0;
  /** Subset of tenant_throttled: the QosPolicy per-tenant quota (not the
   *  global tenant_max_active knob) was the binding cap (DESIGN.md §19). */
  std::uint64_t quota_throttled = 0;
  // Per-tenant accounting (grow-on-demand, indexed by tenant id): the
  // end-to-end evidence that a chain's tenant tag survives re-routing —
  // CPU fallback, quarantine, cross-shard RPCs (DESIGN.md §19 tests).
  std::vector<std::uint64_t> completed_by_tenant;
  std::vector<std::uint64_t> faulted_by_tenant;
  std::vector<std::uint64_t> fallback_by_tenant;
  // Fault-recovery accounting (DESIGN.md §14; zero on fault-free runs).
  std::uint64_t hop_timeouts = 0;       ///< Hops declared lost by watchdogs.
  std::uint64_t hop_retries = 0;        ///< Lost hops re-issued.
  std::uint64_t hop_probes = 0;         ///< Watchdog fired, chain alive.
  std::uint64_t retry_exhausted_fallbacks = 0;  ///< Retries spent -> CPU.
  std::uint64_t health_fallbacks = 0;   ///< Re-routed: target quarantined.
  std::uint64_t unhealthy_transitions = 0;  ///< Healthy -> Unhealthy edges.
  std::uint64_t probation_recoveries = 0;   ///< Probation -> Healthy edges.
  std::uint64_t chains_faulted = 0;     ///< Completed but needed recovery.
  // Glue-instruction accounting per output-dispatcher operation.
  stats::Summary glue_instrs;
  std::uint64_t glue_branch_ops = 0;
  std::uint64_t glue_transform_ops = 0;
  std::uint64_t glue_eot_ops = 0;
};

/**
 * The AccelFlow orchestration engine. One instance drives one Machine.
 *
 * It is the Orchestrator of AccelFlow, its Figure-13 ablation rungs and
 * the Figure-14 Ideal system (make_orchestrator names each), and it
 * implements accel::OutputHandler: every accelerator's output dispatcher
 * delegates its Figure-8 semantics here.
 */
class AccelFlowEngine : public accel::OutputHandler, public Orchestrator {
 public:
  /** @param name the architecture name the Orchestrator reports; it must
   *  outlive the engine (make_orchestrator passes name_of(kind)). Throws
   *  std::invalid_argument naming a time or instruction count that is
   *  not finite and >= 0, or a rate that is not finite and > 0. */
  AccelFlowEngine(Machine& machine, const TraceLibrary& lib,
                  const EngineConfig& config,
                  std::string_view name = "AccelFlow");
  ~AccelFlowEngine() override;

  /**
   * run_trace(): begins executing the chain starting at `first` on behalf
   * of ctx->core. Handles tenant throttling, the user-mode Enqueue with
   * retries, and the initial payload DMA. ctx->on_done fires when control
   * returns to the CPU.
   */
  void start_chain(ChainContext* ctx, AtmAddr first);

  void run_chain(ChainContext* ctx, AtmAddr first) override {
    start_chain(ctx, first);
  }
  std::string_view name() const override { return name_; }
  const AccelFlowEngine* engine() const override { return this; }
  std::unique_ptr<OrchCheckpoint> save_checkpoint() const override;
  void restore_checkpoint(const OrchCheckpoint& c) override;

  void handle_output(accel::Accelerator& acc, accel::SlotId slot) override {
    run_dispatcher_fsm(acc, slot);
  }

  const EngineStats& stats() const { return s_.stats; }
  const EngineConfig& config() const { return config_; }

  /** Active traces for `tenant` (Section IV-D counter). */
  std::uint32_t tenant_active(accel::TenantId tenant) const;

  /**
   * Exports the orchestration-level counters under "engine.*" dotted names
   * (chains, fallbacks, timeouts, glue-instruction totals); pairs with
   * Machine::snapshot_metrics() for the hardware side.
   */
  void snapshot_metrics(obs::MetricsRegistry& reg) const;

  /**
   * Per-accelerator health for graceful degradation (ResilienceConfig).
   * Deterministic state: it is part of the engine Checkpoint.
   */
  struct Health {
    enum class State : std::uint8_t { kHealthy = 0, kUnhealthy, kProbation };
    State state = State::kHealthy;
    int consecutive_losses = 0;  ///< Lost hops since the last clean one.
    int probation_successes = 0; ///< Clean hops since entering probation.
    sim::TimePs quarantine_until = 0;
  };

  /** Health of `t` (tests / benches inspect quarantine behaviour). */
  const Health& health(accel::AccelType t) const {
    return s_.health[accel::index_of(t)];
  }

 private:
  /** The machine's tracer, or nullptr when tracing is off. Fetched per
   *  call so attaching after engine construction works. */
  obs::Tracer* trc() const { return machine_.tracer(); }
  /** The machine's validation checker, or nullptr when checking is off.
   *  Fetched per call for the same late-attach reason as trc(). */
  ValidationHooks* chk() const { return machine_.checker(); }
  /** Enqueue with retry; falls back to the CPU when the queue stays full. */
  void enqueue_with_retry(ChainContext* ctx, accel::QueueEntry entry,
                          accel::AccelType target, int attempt);

  /**
   * Continues interpretation of `e`'s trace at the output dispatcher of
   * `acc` (Figure 8). `e` is a copy of the output-queue entry; `slot` is
   * released once the entry has moved on.
   */
  void run_dispatcher_fsm(accel::Accelerator& acc, accel::SlotId slot);

  /** Forwards `e` into `target`'s input queue via an A-DMA engine. */
  void forward(accel::Accelerator& from, accel::QueueEntry e,
               accel::AccelType target, sim::TimePs ready, bool armed_wait,
               RemoteKind wait_kind);

  /**
   * Arms the network wait of receive entry `e` at `dst` (core::
   * await_response): in input slot `slot`, or — when the queue was full
   * (kInvalidSlot) — deferred until the response lands.
   */
  void arm_wait(accel::Accelerator& dst, accel::SlotId slot,
                accel::QueueEntry e, RemoteKind kind);

  /** A network wait timed out: the chain ends, failed. `on_cpu` marks a
   *  wait the CPU fallback path owned. */
  void time_out_chain(ChainContext* ctx, bool on_cpu);

  /** Stamps e's soft-SLO deadline (Section IV-C) when the chain has a
   *  budget. It is relative to now, so early finishers pass slack on.
   *  SchedPolicy::kEdf dispatches by it; every policy counts misses. */
  void stamp_deadline(accel::QueueEntry& e) const {
    const sim::TimePs budget = e.ctx->step_deadline_budget;
    if (budget != sim::kTimeNever) {
      e.deadline = machine_.sim().now() + budget;
    }
  }

  /** The A-DMA moves `e` from `from` to `to`, starting at `start`, with
   *  any payload past the inline data through the memory buffer. Returns
   *  the arrival time. */
  sim::TimePs move_entry(const accel::QueueEntry& e, noc::Location from,
                         noc::Location to, sim::TimePs start);

  /** End of trace, no address: DMA to memory + user-level notification. */
  void finish_to_cpu(accel::Accelerator& from, accel::QueueEntry e,
                     sim::TimePs ready);

  /** Round trip to the centralized manager (ablation fallback path) for
   *  chain `flow`. */
  sim::TimePs manager_round_trip(const accel::Accelerator& at,
                                 sim::TimePs ready, obs::FlowId flow);

  /**
   * Graceful CPU fallback: the watchdog stands down, and the denied
   * operation plus the control ops up to the next invoke run on the
   * initiating core (core::price_cpu_segment, stopping at invokes). The
   * chain then re-enters the ensemble at that invoke, awaits a network
   * response on the core before re-entering, or completes. The trace only
   * stays on the CPU while accelerators keep rejecting it.
   */
  void continue_chain_on_cpu(ChainContext* ctx, std::uint64_t word,
                             std::uint8_t pm, std::uint64_t payload_bytes,
                             accel::AccelType pending);

  /** Enqueues a data-ready entry (re-arming the watchdog) unless `dst`
   *  is quarantined, which sends it to the CPU instead. */
  void forward_into_queue(accel::Accelerator& dst, accel::QueueEntry e);

  /** Admits a data-ready entry into `dst`'s input queue, using the
   *  overflow area when full and the CPU when that is full too. */
  void admit(accel::Accelerator& dst, const accel::QueueEntry& e);

  /** Chain ended now with `res`'s flags: bookkeeping + tenant counter +
   *  queued chain starts. */
  void complete_chain(ChainContext* ctx, ChainResult res);

  // --- Fault resilience (DESIGN.md §14) ---------------------------------

  /** Watchdogs (and the health machine) run only in fault-injected runs. */
  bool resilience_active() const {
    return config_.resilience.enabled && machine_.fault_hooks() != nullptr;
  }
  /** (Re-)arms the watchdog of e's chain (ChainContext::hop) for the
   *  hand-off of `e` to `target`, recording its trace word, position mark
   *  and payload size. A re-arm for the same hop (equal target/word/pm)
   *  keeps its retry count. */
  void arm_hop(const accel::QueueEntry& e, accel::AccelType target,
               sim::TimePs in_flight_until);
  /** Stands ctx's watchdog down (hop progressed or chain done) and
   *  cancels a pending re-issue. A pending timer stays and drops itself
   *  when it fires disarmed. */
  void disarm_hop(ChainContext* ctx);
  /** Sets the watchdog deadline to now + `delay` at a reserved stamp,
   *  moving the timer only if it would otherwise fire late. */
  void set_watchdog(ChainContext* ctx, sim::TimePs delay);
  /** Posts ctx's timer at its watchdog deadline stamp. */
  void post_watchdog(ChainContext* ctx);
  /** The timer posted at seq `seq` fired: time out at the deadline stamp,
   *  re-post towards a later deadline, or drop when disarmed. */
  void on_watchdog(ChainContext* ctx, std::uint64_t seq);
  /** Records a known future delivery time on ctx's armed watchdog. */
  void note_hop_wait(ChainContext* ctx, sim::TimePs until);
  /** Watchdog fired: probe liveness, then retry / fall back / re-arm. */
  void on_hop_timeout(ChainContext* ctx);
  /** Backoff elapsed: rebuild the lost entry and re-issue it. */
  void retry_hop(ChainContext* ctx);
  /** A hop on `t` produced output: feeds the health state machine. */
  void record_hop_success(accel::AccelType t);
  /** A hop on `t` was lost: feeds the health state machine. */
  void record_hop_failure(accel::AccelType t);
  /** True while `t` is quarantined (lazily advances Unhealthy->Probation):
   *  counts the re-route and marks ctx faulted. */
  bool reroute_unhealthy(ChainContext* ctx, accel::AccelType t);

  sim::TimePs instr_time(double instrs) const;

  /** Grow-on-demand slot of the flat per-tenant active-trace counter. */
  std::uint32_t& tenant_slot(accel::TenantId tenant) {
    if (tenant >= s_.tenant_active.size()) {
      s_.tenant_active.resize(static_cast<std::size_t>(tenant) + 1, 0);
    }
    return s_.tenant_active[tenant];
  }

  std::string_view name_;
  Machine& machine_;
  const TraceLibrary& lib_;
  EngineConfig config_;
  struct PendingStart {
    ChainContext* ctx;
    AtmAddr first;
  };

 public:
  /**
   * The engine's own orchestration state, copied whole by checkpoint()
   * (DESIGN.md §13). `throttled` holds raw ChainContext pointers, so a
   * checkpoint is only meaningful at a quiescent point (no chain in
   * flight), where the deque is empty — workload::SweepSession
   * guarantees that.
   */
  struct State {
    EngineStats stats;  ///< Counters.
    /** Per-tenant active-trace counts, indexed by tenant id. Tenant ids
     *  are small and dense (request-engine services), so a flat array
     *  replaces the old hash map: the Section IV-D throttle check on
     *  every chain start/finish becomes one indexed load. */
    std::vector<std::uint32_t> tenant_active;
    std::deque<PendingStart> throttled;  ///< Waiting starts (empty).
    /** Per-accelerator health (indexed by accel::index_of; §14). */
    std::array<Health, accel::kNumAccelTypes> health{};
  };

  /** State plus the limiter's and the entry pool's checkpoints. */
  struct Checkpoint : OrchCheckpoint, State {
    TenantBandwidthLimiter::Checkpoint mba;                 ///< Buckets.
    sim::TicketPool<accel::QueueEntry>::Checkpoint parked;  ///< In-flight.
  };

  Checkpoint checkpoint() const;

  void restore(const Checkpoint& c) {
    s_ = c;
    mba_.restore(c.mba);
    parked_.restore(c.parked);
  }

 private:
  State s_;
  TenantBandwidthLimiter mba_;
  /** Entries in flight between kernel callbacks (DMA arrivals, enqueue
   *  retries, deferred wait-arms): callbacks capture the 4-byte ticket,
   *  not the 80-byte entry (see sim/callback.h's capture budget). */
  sim::TicketPool<accel::QueueEntry> parked_;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_ENGINE_H_
