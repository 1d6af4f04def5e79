#ifndef ACCELFLOW_OBS_SPAN_H_
#define ACCELFLOW_OBS_SPAN_H_

#include <cstdint>
#include <string_view>

#include "sim/time.h"

/**
 * @file
 * The span vocabulary of the observability layer: which subsystem emitted
 * an event, what lifecycle stage it describes, and the fixed-size record
 * that the ring buffer stores (see obs/tracer.h).
 *
 * Every value here is a closed enum rather than a free-form string so a
 * recorded event is a few plain words (no allocation, no hashing) and the
 * Chrome-trace names are resolved only at export time. The taxonomy is
 * documented for users in OBSERVABILITY.md; keep the two in sync.
 */

/** Observability layer: span tracing and the metrics registry. */
namespace accelflow::obs {

/**
 * The subsystem that emitted an event. Each subsystem exports as one
 * Chrome-trace "process", so Perfetto groups its tracks together.
 */
enum class Subsys : std::uint8_t {
  kEngine = 0,  ///< AccelFlow engine / orchestrators (core/).
  kAccel = 1,   ///< Accelerator hardware model (accel/accelerator).
  kDma = 2,     ///< A-DMA engine pool (accel/dma).
  kNoc = 3,     ///< Package interconnect (noc/interconnect).
  kMem = 4,     ///< Memory-side translation: TLBs + IOMMU (mem/).
  kCpu = 5,     ///< Core-side activity: interrupts, notifications.
  kNet = 6,     ///< Rack network between machine shards (cluster/).
};

/** Number of Subsys values (array sizing). */
inline constexpr std::size_t kNumSubsys = 7;

/** Stable lower-case name of a subsystem (the Chrome-trace category). */
constexpr std::string_view name_of(Subsys s) {
  constexpr std::string_view kNames[kNumSubsys] = {
      "engine", "accel", "dma", "noc", "mem", "cpu", "net"};
  return kNames[static_cast<std::size_t>(s)];
}

/**
 * What lifecycle stage of an Invocation a span describes. One kind maps to
 * one Chrome-trace event name; the set mirrors the paper's "where time
 * goes" decomposition (Figs. 11-14): queueing, dispatch, PE execution, DMA,
 * NoC hops, translation, and interrupts/completions.
 */
enum class SpanKind : std::uint8_t {
  kChain = 0,       ///< Flow-event name tying one chain's spans together.
  kEnqueue,         ///< User-mode Enqueue + initial payload DMA.
  kQueueWait,       ///< Input-queue residency (enqueue -> dispatch).
  kPeExecute,       ///< PE occupancy: wipe + spad load + compute.
  kDispatcherFsm,   ///< Output-dispatcher FSM occupancy (Figure 8).
  kDmaTransfer,     ///< One A-DMA engine moving an entry/payload.
  kNocTransfer,     ///< A package-interconnect transfer (mesh route).
  kNocLink,         ///< The inter-chiplet link leg of a transfer.
  kTlbMiss,         ///< Accelerator translation-cache miss (instant).
  kIommuWalk,       ///< IOMMU page-table walk (queueing + levels).
  kPageFault,       ///< Walk ended in a fault; OS round trip follows.
  kInterrupt,       ///< Baseline completion interrupt on a core.
  kManagerEvent,    ///< Centralized-manager occupancy (RELIEF/ablations).
  kNotify,          ///< End-of-trace result DMA + user-level notification.
  kChainDone,       ///< Control returned to the CPU (instant).
  kCpuFallback,     ///< Chain (segment) fell back to the core (instant).
  kOverflow,        ///< Entry routed via the in-memory overflow area.
  kTimeout,         ///< TCP wait-slot timeout (instant).
  kHopRetry,        ///< Lost hop re-issued by the watchdog (instant, §14).
  kNetHop,          ///< One rack-network hop between machine shards.
};

/** Number of SpanKind values (array sizing). */
inline constexpr std::size_t kNumSpanKinds = 20;

/** Stable snake_case name of a span kind (the Chrome-trace event name). */
constexpr std::string_view name_of(SpanKind k) {
  constexpr std::string_view kNames[kNumSpanKinds] = {
      "chain",          "enqueue",      "queue_wait",  "pe_execute",
      "dispatcher_fsm", "dma_transfer", "noc_transfer", "noc_link",
      "tlb_miss",       "iommu_walk",   "page_fault",  "interrupt",
      "manager_event",  "notify",       "chain_done",  "cpu_fallback",
      "overflow",       "timeout",      "hop_retry",   "net_hop"};
  return kNames[static_cast<std::size_t>(k)];
}

/**
 * Inverse of name_of(Subsys): resolves an exported Chrome-trace category
 * back to its subsystem. Returns false (and leaves `out` untouched) for
 * unknown names — offline consumers (tools/trace_summary, the critical-
 * path pass) use this to re-ingest exported traces.
 */
constexpr bool subsys_from_name(std::string_view name, Subsys* out) {
  for (std::size_t s = 0; s < kNumSubsys; ++s) {
    if (name_of(static_cast<Subsys>(s)) == name) {
      *out = static_cast<Subsys>(s);
      return true;
    }
  }
  return false;
}

/**
 * Inverse of name_of(SpanKind): resolves an exported Chrome-trace event
 * name back to its span kind. Returns false for unknown names.
 */
constexpr bool kind_from_name(std::string_view name, SpanKind* out) {
  for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
    if (name_of(static_cast<SpanKind>(k)) == name) {
      *out = static_cast<SpanKind>(k);
      return true;
    }
  }
  return false;
}

/**
 * Chrome-trace phase of a recorded event.
 *
 * kComplete ("X") carries a duration; kInstant ("i") a point in time; the
 * three flow phases ("s"/"t"/"f") link one chain's spans across threads
 * and processes into the ATM-chain arrow Perfetto draws.
 */
enum class Phase : std::uint8_t {
  kComplete = 0,  ///< "X": ts + dur.
  kInstant,       ///< "i": thread-scoped instant.
  kFlowBegin,     ///< "s": start of a flow (chain admitted).
  kFlowStep,      ///< "t": intermediate flow binding point.
  kFlowEnd,       ///< "f": end of a flow (control back on the CPU).
};

/**
 * Identifier linking every span of one Invocation (one chain execution).
 * Derived deterministically from the request id and the chain index, so a
 * traced and an untraced run agree on ids and reruns diff cleanly.
 */
using FlowId = std::uint64_t;

/** Builds the FlowId of chain `chain` of request `request`. */
constexpr FlowId flow_id(std::uint64_t request, std::uint32_t chain) {
  return (request << 8) | (chain & 0xFFu);
}

/** Conventional track (tid) on the engine process carrying centralized-
 *  manager spans (ablation round trips, baseline manager events), kept
 *  clear of the per-core tracks (which use tid = core index). */
inline constexpr std::uint32_t kManagerTid = 500;

/**
 * One recorded event. Fixed-size plain data: recording is a couple of
 * stores into the ring buffer, never an allocation (see obs/tracer.h for
 * the zero-overhead contract).
 */
struct SpanEvent {
  sim::TimePs ts = 0;    ///< Begin time (ps).
  sim::TimePs dur = 0;   ///< Duration (ps); 0 for instants/flows.
  FlowId flow = 0;       ///< Owning chain, 0 = unattributed.
  std::uint64_t arg = 0; ///< Kind-specific payload (usually bytes).
  std::uint32_t tid = 0; ///< Synthetic thread within the subsystem.
  Subsys subsys = Subsys::kEngine;  ///< Emitting subsystem (the "process").
  SpanKind kind = SpanKind::kChain; ///< Lifecycle stage.
  Phase phase = Phase::kComplete;   ///< Chrome-trace phase.
};

}  // namespace accelflow::obs

#endif  // ACCELFLOW_OBS_SPAN_H_
