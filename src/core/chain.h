#ifndef ACCELFLOW_CORE_CHAIN_H_
#define ACCELFLOW_CORE_CHAIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "accel/queue_entry.h"
#include "accel/types.h"
#include "core/trace_library.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace accelflow::cpu {
class CoreCluster;
}  // namespace accelflow::cpu

/**
 * @file
 * The orchestration-level context of one accelerator chain: everything the
 * ensemble executes from one CPU hand-off until control returns to the CPU
 * (one or more ATM-linked traces, possibly spanning network waits).
 *
 * The workload layer creates one ChainContext per chain, samples its branch
 * flags once (so every orchestrator sees identical outcomes and
 * architectures can be compared pairwise), and supplies the cost/size
 * environment through ChainEnv.
 *
 * Also the chain protocol every orchestrator shares (chain.cc): the
 * Orchestrator interface, the one network-wait model (await_response),
 * the one CPU execution model (price_cpu_segment) and the one queue-entry
 * builder (make_queue_entry).
 */

namespace accelflow::core {

struct ChainContext;
class ValidationHooks;

/**
 * Workload-provided environment for chain execution: operation costs, data
 * size evolution, and remote response behaviour. One instance per service.
 */
class ChainEnv {
 public:
  virtual ~ChainEnv() = default;

  /**
   * CPU-equivalent cost of the next invocation of `type` in this chain
   * (a fresh draw from the service's calibrated distribution, scaled by the
   * current payload size). The accelerator runs it `speedup` times faster;
   * the Non-acc baseline runs it at full cost on a core.
   */
  virtual sim::TimePs op_cpu_cost(ChainContext& ctx, accel::AccelType type,
                                  std::uint64_t payload_bytes) = 0;

  /** Output size of `type` for an input of `bytes` (deterministic). */
  virtual std::uint64_t transformed_size(accel::AccelType type,
                                         std::uint64_t bytes) = 0;

  /** Latency until the network response for `kind` arrives. Fresh draw. */
  virtual sim::TimePs remote_latency(ChainContext& ctx, RemoteKind kind) = 0;

  /** Size of the response payload for `kind`. Fresh draw. */
  virtual std::uint64_t response_size(ChainContext& ctx, RemoteKind kind) = 0;

  /**
   * Hook for network waits whose responder is *this same machine*: nested
   * RPCs between colocated services. If the environment handles the call,
   * it takes `deliver` (moves from it), must invoke
   * `deliver(response_bytes)` when the (recursively executed) callee
   * finishes, and returns true; returning false leaves `deliver` intact
   * and makes the caller fall back to the sampled
   * remote_latency()/response_size() model (an off-machine responder).
   */
  virtual bool nested_call(ChainContext& ctx, RemoteKind kind,
                           std::function<void(std::uint64_t)>& deliver) {
    (void)ctx;
    (void)kind;
    (void)deliver;
    return false;
  }
};

/** Outcome of a chain execution, delivered to ChainContext::on_done. */
struct ChainResult {
  bool ok = true;
  bool cpu_fallback = false;  ///< Part or all ran on the CPU.
  bool timeout = false;       ///< A TCP wait slot timed out.
  bool faulted = false;       ///< Needed fault recovery (DESIGN.md §14).
  sim::TimePs completed_at = 0;
};

/**
 * One chain's hop watchdog (DESIGN.md §14), owned by the AccelFlow engine
 * and active only in fault-injected runs. It holds enough of the pending
 * hand-off to re-issue it if the accelerator loses it, the deadline of the
 * eager watchdog event, and the chain's single watchdog timer. Re-arming
 * writes the deadline; the timer moves only when it would fire late.
 */
struct HopWatch {
  bool armed = false;              ///< A hop is owed (arm .. disarm).
  accel::AccelType target = accel::AccelType::kTcp;  ///< Owes the output.
  std::uint8_t pm = 0;             ///< Position mark at hand-off.
  int retries = 0;                 ///< Re-issues of this hop so far.
  std::uint64_t word = 0;          ///< Trace word at hand-off.
  std::uint64_t bytes = 0;         ///< Payload size at hand-off.
  sim::TimePs timeout = 0;         ///< Current watchdog delay.
  /** Known future delivery (DMA arrival, remote response): the chain
   *  cannot be lost before this time; kTimeNever for unbounded nested
   *  waits, 0 once the entry is queued (holds_chain() covers it). */
  sim::TimePs in_flight_until = 0;
  /** The watchdog's (time, seq) stamp: where the eager per-arm event
   *  would fire. deadline == kTimeNever while no watchdog is due. */
  sim::TimePs deadline = sim::kTimeNever;
  std::uint64_t deadline_seq = 0;  ///< Reserved seq of the deadline.
  /** The one pending watchdog event, at timer_at; it may be stale (an
   *  earlier deadline) and then re-posts itself at the current one. */
  sim::EventId timer = sim::kInvalidEventId;
  sim::TimePs timer_at = 0;        ///< Fire time of `timer`.
  sim::EventId backoff = sim::kInvalidEventId;  ///< Pending re-issue.
};

/** Mutable per-chain execution state. */
struct ChainContext {
  accel::RequestId request = 0;
  std::uint32_t chain = 0;  ///< Index among the request's parallel chains.
  accel::TenantId tenant = 0;
  int core = 0;  ///< Initiating core: notified at the end of the chain.

  /** Branch outcomes, sampled once per chain. */
  accel::PayloadFlags flags;
  /** Size of the payload handed to the first accelerator. */
  std::uint64_t initial_bytes = 1024;
  mem::VirtAddr buffer_va = 0;  ///< Backing buffer for large payloads.

  /** Soft-SLO deadline budget per accelerator step (kTimeNever = no SLO). */
  sim::TimePs step_deadline_budget = sim::kTimeNever;
  std::uint8_t priority = 0;

  ChainEnv* env = nullptr;
  sim::Rng rng;  ///< Seeded per (request, chain): draws align across archs.

  /** Fired exactly once when control finally returns to the CPU. */
  std::function<void(const ChainResult&)> on_done;

  // --- Counters the orchestrators fill in (reported by benches) ---------
  std::uint32_t accel_invocations = 0;
  std::uint32_t branches = 0;
  std::uint32_t transforms = 0;
  std::uint32_t mid_notifies = 0;
  std::uint32_t remote_calls = 0;
  /** Set by the orchestrator when this chain needed fault recovery (a lost
   *  hop was re-issued, or work re-routed around a quarantined
   *  accelerator); copied into ChainResult::faulted on completion. */
  bool faulted = false;
  bool done = false;

  /** The engine's hop watchdog for this chain (fault-injected runs). */
  HopWatch hop;

  /** Convenience: finishes the chain exactly once. */
  void finish(const ChainResult& r) {
    if (done) return;
    done = true;
    if (on_done) {
      // Move the callback out before invoking: when the closure owns the
      // context (AccelFlowRuntime parks the Invocation shared_ptr inside
      // it), leaving it stored would form a reference cycle and leak. This
      // way the closure — possibly along with *this — is destroyed when
      // the local goes out of scope, so finish() must be the caller's last
      // touch of the context.
      auto done_cb = std::move(on_done);
      on_done = nullptr;
      done_cb(r);
    }
  }
};

/** How await_response() resolved a network wait, decided when armed. */
struct ResponseWait {
  enum class Kind : std::uint8_t {
    kNested,    ///< ChainEnv::nested_call() took it: the callee delivers.
    kTimeout,   ///< The sampled latency exceeds the timeout.
    kResponse,  ///< The response lands within the timeout.
  };
  Kind kind = Kind::kNested;
  /** kResponse: when the response lands and deliver fires. */
  sim::TimePs at = sim::kTimeNever;
};

/**
 * The network-wait model of every orchestrator (DESIGN.md §8). Counts the
 * call in ctx.remote_calls, then offers it to ChainEnv::nested_call().
 * Otherwise it samples remote_latency(): past `timeout`, `on_timeout`
 * fires at now + timeout; within it, the response lands at `from` +
 * latency, where response_size() is sampled and handed to `deliver`.
 * The callback that applies is posted before this returns, so the caller
 * can do its own arm-time bookkeeping from the result before it fires.
 */
ResponseWait await_response(sim::Simulator& sim, ChainContext& ctx,
                            RemoteKind kind, sim::TimePs from,
                            sim::TimePs timeout,
                            sim::Simulator::Callback on_timeout,
                            std::function<void(std::uint64_t)> deliver);

/**
 * The queue entry that hands ctx's payload of `bytes` to accelerator op
 * `op`, continuing at trace `word` / position mark `pm`: tenant, flow,
 * buffer and priority come from ctx, and the op's CPU-equivalent cost is
 * sampled now. The deadline keeps its default; callers that carry one
 * set it.
 */
accel::QueueEntry make_queue_entry(ChainContext& ctx, accel::AccelType op,
                                   std::uint64_t word, std::uint8_t pm,
                                   std::uint64_t bytes);

/** Core time of one software format conversion: ~2 GB/s on a core. */
sim::TimePs cpu_transform_time(std::uint64_t bytes);

/** Where a price_cpu_segment() walk stopped, and what the core spent. */
struct CpuSegment {
  enum class Stop : std::uint8_t {
    kInvoke,  ///< At an accelerator invoke (stop_at_invoke only).
    kRemote,  ///< At a network wait for `remote`.
    kEnd,     ///< At the chain's END_NOTIFY.
  };
  Stop stop = Stop::kEnd;
  /** kInvoke: the invoke's accelerator. kRemote: that of the receive
   *  trace's first invoke, which runs on the response. */
  accel::AccelType accel = accel::AccelType::kTcp;
  RemoteKind remote = RemoteKind::kNone;  ///< kRemote: what is awaited.
  std::uint8_t pm = 0;      ///< Position mark after `accel`'s invoke.
  std::uint64_t word = 0;   ///< Trace word holding `accel`'s invoke.
  std::uint64_t bytes = 0;  ///< Payload size at the stop.
  sim::TimePs time = 0;     ///< Core time of the segment.
};

/**
 * The CPU execution model of every orchestrator (DESIGN.md §8): prices a
 * chain segment run on ctx's core. First the invoke of `pending` runs
 * unaccelerated on the `bytes` payload (checker stage, op_cpu_cost /
 * tax_speed, transformed_size); then the ops from trace `word` / position
 * mark `pm` are interpreted: 20 cycles per branch, cpu_transform_time /
 * tax_speed per transform, notifies counted. With `stop_at_invoke` the
 * walk stops at the next invoke; without it, invokes run inline as
 * `pending` did. It always stops at a network wait and at the end.
 * Nothing is scheduled: the caller occupies the core for `time` and acts
 * on the stop.
 */
CpuSegment price_cpu_segment(const TraceLibrary& lib,
                             const cpu::CoreCluster& cores,
                             ValidationHooks* chk, ChainContext& ctx,
                             std::uint64_t word, std::uint8_t pm,
                             std::uint64_t bytes, accel::AccelType pending,
                             bool stop_at_invoke);

class AccelFlowEngine;

/**
 * Opaque snapshot of an orchestrator's mutable state, produced by
 * Orchestrator::save_checkpoint() and consumed by restore_checkpoint().
 * Each concrete orchestrator's Checkpoint derives from it (DESIGN.md
 * §13); callers only move the handle around.
 */
struct OrchCheckpoint {
  virtual ~OrchCheckpoint() = default;
};

/** Executes trace chains on a Machine (core/orchestrator.h lists them). */
class Orchestrator {
 public:
  virtual ~Orchestrator() = default;

  /**
   * Executes the chain starting at `first` (run_trace). ctx->on_done fires
   * when control returns to the initiating core.
   */
  virtual void run_chain(ChainContext* ctx, AtmAddr first) = 0;

  virtual std::string_view name() const = 0;

  /** The engine, when this orchestrator is AccelFlow-based (else null). */
  virtual const AccelFlowEngine* engine() const { return nullptr; }

  /**
   * Captures the orchestrator's mutable state (counters, RNG streams,
   * admission budgets) for the checkpoint-and-fork sweep engine. Only
   * meaningful at a quiescent point — no chain in flight.
   */
  virtual std::unique_ptr<OrchCheckpoint> save_checkpoint() const = 0;

  /** Restores state captured by save_checkpoint() on this same
   *  orchestrator type (asserts on a mismatched handle). */
  virtual void restore_checkpoint(const OrchCheckpoint& c) = 0;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_CHAIN_H_
