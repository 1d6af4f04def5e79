#ifndef ACCELFLOW_CRITPATH_CRITPATH_H_
#define ACCELFLOW_CRITPATH_CRITPATH_H_

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "accel/types.h"
#include "obs/span.h"
#include "obs/tracer.h"
#include "sim/time.h"

/**
 * @file
 * Critical-path analysis over the span tracer's flow records (DESIGN.md
 * §16): per chain, every picosecond between flow begin (the user-mode
 * Enqueue) and flow end (control back on the CPU) is attributed to exactly
 * one component Category — queue wait, PE service, glue, DMA, NoC,
 * translation, dispatch or residual core time.
 *
 * The attribution is a sweep over the chain's recorded spans: at every
 * instant the *highest-priority* overlapping span category wins (see
 * priority_of for the tie-breaking order), and uncovered time falls to
 * Category::kCore. Because each instant is assigned exactly once, the
 * per-chain attribution satisfies the conservation identity by
 * construction:
 *
 *     sum over categories of attributed time == chain end - chain begin
 *
 * The Analyzer still re-verifies the identity arithmetically for every
 * chain it closes (a broken identity means a bug in segment clipping or
 * accumulation, and AF_CHECK=1 turns it into a hard failure — see
 * workload::run_experiment).
 *
 * Like the tracer and the invariant checker, the pass only observes:
 * it consumes SpanEvents either post-hoc (analyze(Tracer)) or streaming
 * (observe() per event) and never feeds anything back into a model.
 */

/** Critical-path analysis over span/flow records (DESIGN.md §16). */
namespace accelflow::critpath {

/**
 * Component category a nanosecond of chain latency is attributed to. The
 * set mirrors the paper's latency decompositions (Figs. 11/17): where a
 * chain's end-to-end time was spent, with one residual bucket (kCore) for
 * time no instrumented component covers.
 */
enum class Category : std::uint8_t {
  kDispatch = 0,  ///< Engine-side issue/return: enqueue + notify spans.
  kQueue,         ///< Accelerator input-queue residency (pure wait).
  kPeService,     ///< PE occupancy: wipe + spad load + compute.
  kGlue,          ///< Dispatcher FSMs, manager occupancy, interrupts.
  kDma,           ///< A-DMA engine occupancy (minus its NoC legs).
  kNoc,           ///< Package-interconnect transfers and link legs.
  kTranslation,   ///< IOMMU walks (translation stalls).
  kNetwork,       ///< Rack-network hops between machine shards.
  kCore,          ///< Residual: CPU segments, faults, uncovered waits.
};

/** Number of Category values (array sizing). */
inline constexpr std::size_t kNumCategories = 9;

/** Stable snake_case name of a category (JSON keys, table rows). */
constexpr std::string_view name_of(Category c) {
  constexpr std::string_view kNames[kNumCategories] = {
      "dispatch", "queue",       "pe_service", "glue",    "dma",
      "noc",      "translation", "network",    "core"};
  return kNames[static_cast<std::size_t>(c)];
}

/**
 * Tie-breaking priority when spans of different categories overlap the
 * same instant of one chain: the higher value wins. The order puts the
 * most specific resource on top — a translation stall inside a PE-execute
 * span is translation, the NoC leg inside a DMA transfer is NoC, and the
 * delivery DMA overlapping a queue-wait span is DMA (queue wait is the
 * residual "pure wait" of its window). kCore never competes: it is the
 * gap filler for uncovered time.
 */
constexpr int priority_of(Category c) {
  constexpr int kPriority[kNumCategories] = {
      /*dispatch=*/2, /*queue=*/1,       /*pe_service=*/4,
      /*glue=*/3,     /*dma=*/5,         /*noc=*/6,
      /*translation=*/7, /*network=*/8,  /*core=*/0};
  return kPriority[static_cast<std::size_t>(c)];
}

/**
 * Maps a span kind to the category its duration is attributed to.
 * Returns false for kinds that carry no attributable duration (instants,
 * flow markers).
 */
constexpr bool category_of(obs::SpanKind kind, Category* out) {
  switch (kind) {
    case obs::SpanKind::kEnqueue:
    case obs::SpanKind::kNotify:
      *out = Category::kDispatch;
      return true;
    case obs::SpanKind::kQueueWait:
      *out = Category::kQueue;
      return true;
    case obs::SpanKind::kPeExecute:
      *out = Category::kPeService;
      return true;
    case obs::SpanKind::kDispatcherFsm:
    case obs::SpanKind::kManagerEvent:
    case obs::SpanKind::kInterrupt:
      *out = Category::kGlue;
      return true;
    case obs::SpanKind::kDmaTransfer:
      *out = Category::kDma;
      return true;
    case obs::SpanKind::kNocTransfer:
    case obs::SpanKind::kNocLink:
      *out = Category::kNoc;
      return true;
    case obs::SpanKind::kIommuWalk:
      *out = Category::kTranslation;
      return true;
    case obs::SpanKind::kNetHop:
      *out = Category::kNetwork;
      return true;
    default:
      return false;
  }
}

/** One chain's closed attribution record (Options::keep_chains mode). */
struct ChainAttribution {
  obs::FlowId flow = 0;        ///< The chain's flow id.
  std::uint32_t service = 0;   ///< Service (tenant) index, from chain end.
  sim::TimePs begin = 0;       ///< Flow-begin time (user-mode Enqueue).
  sim::TimePs end = 0;         ///< Flow-end time (chain done / timeout).
  bool timed_out = false;      ///< Chain ended on the timeout path.
  /** Attributed time per category; sums to latency() (the identity). */
  std::array<sim::TimePs, kNumCategories> by_category{};

  /** End-to-end chain latency. */
  sim::TimePs latency() const { return end - begin; }

  /** Sum of the attributed segments (== latency() by the identity). */
  sim::TimePs attributed() const {
    sim::TimePs sum = 0;
    for (const sim::TimePs t : by_category) sum += t;
    return sum;
  }

  /** The dominant (bottleneck) category; earlier enum wins ties. */
  Category dominant() const {
    std::size_t best = 0;
    for (std::size_t c = 1; c < kNumCategories; ++c) {
      if (by_category[c] > by_category[best]) best = c;
    }
    return static_cast<Category>(best);
  }
};

/** Aggregate attribution of one service (or of the whole trace). */
struct ServiceAttribution {
  std::uint32_t service = 0;   ///< Service (tenant) index.
  std::string name;            ///< Display name ("service<N>" fallback).
  std::uint64_t chains = 0;    ///< Closed chains aggregated here.
  std::uint64_t timeouts = 0;  ///< Chains that ended on the timeout path.
  sim::TimePs total_latency = 0;  ///< Sum of chain latencies.
  /** Attributed time per category, summed over chains. */
  std::array<sim::TimePs, kNumCategories> by_category{};
  /**
   * Bottleneck histogram: how many chains had each category dominant.
   * The per-service table and the auto-tuner read the argmax of this.
   */
  std::array<std::uint64_t, kNumCategories> bottleneck_chains{};
  /** Queue-wait time attributed per accelerator class (sums to
   *  by_category[kQueue]); names the saturated queue for the tuner. */
  std::array<sim::TimePs, accel::kNumAccelTypes> queue_by_accel{};
  /** PE-service time attributed per accelerator class (sums to
   *  by_category[kPeService]). */
  std::array<sim::TimePs, accel::kNumAccelTypes> pe_by_accel{};

  /** The dominant category by total attributed time; earlier enum wins
   *  ties. */
  Category dominant() const {
    std::size_t best = 0;
    for (std::size_t c = 1; c < kNumCategories; ++c) {
      if (by_category[c] > by_category[best]) best = c;
    }
    return static_cast<Category>(best);
  }

  /** Mean end-to-end latency in microseconds (0 when empty). */
  double mean_latency_us() const {
    if (chains == 0) return 0.0;
    return sim::to_microseconds(total_latency) /
           static_cast<double>(chains);
  }
};

/** Analyzer activity counters (tests, tools). */
struct AnalyzerStats {
  std::uint64_t events = 0;      ///< SpanEvents observed.
  std::uint64_t chains = 0;      ///< Chains closed and attributed.
  std::uint64_t incomplete = 0;  ///< Still open when finish() ran.
  std::uint64_t unbegun = 0;     ///< Ends whose begin the ring dropped.
  std::uint64_t reopened = 0;    ///< Begins that interrupted an open chain.
};

/**
 * The critical-path analysis pass.
 *
 * Feed it SpanEvents either post-hoc — analyze(tracer) consumes a whole
 * ring — or streaming, one observe() per event in recording order; a
 * chain is attributed the moment its end instant (chain_done / timeout)
 * arrives, so streaming use holds only the open chains' spans. Chains
 * whose begin was overwritten by the tracer's flight-recorder ring are
 * counted in stats().unbegun and skipped — the ring drops oldest-first,
 * so a surviving begin guarantees the chain's record is complete.
 */
class Analyzer {
 public:
  /** Analysis options. */
  struct Options {
    /** Display names per service index (the ExperimentConfig's spec
     *  names); missing entries render as "service<N>". */
    std::vector<std::string> service_names;
    /** Keep every closed ChainAttribution (tests and per-chain tools);
     *  off by default — aggregates alone hold constant memory. */
    bool keep_chains = false;
  };

  /** Creates an analyzer with default options. */
  Analyzer();

  /** Creates an analyzer. */
  explicit Analyzer(Options options);

  /** Observes one recorded event (streaming entry point). */
  void observe(const obs::SpanEvent& ev);

  /** Consumes the tracer's whole ring (oldest to newest), then finish(). */
  void analyze(const obs::Tracer& tracer);

  /**
   * Ends the pass: chains still open are dropped (counted in
   * stats().incomplete). Idempotent; analyze() calls it internally.
   */
  void finish();

  /** Closed per-chain records, in close order (Options::keep_chains). */
  const std::vector<ChainAttribution>& chains() const { return chains_; }

  /** Per-service aggregates, sorted by service index. */
  const std::vector<ServiceAttribution>& services() const {
    return services_;
  }

  /** Whole-trace aggregate (every closed chain). */
  const ServiceAttribution& total() const { return total_; }

  /** Activity counters. */
  const AnalyzerStats& stats() const { return stats_; }

  /**
   * Conservation-identity violations (empty on a healthy pass). Each
   * entry names the flow and the mismatching sums; workload experiments
   * turn a non-empty list into a hard failure under AF_CHECK=1.
   */
  const std::vector<std::string>& violations() const { return violations_; }

  /**
   * Writes the aggregated attribution as stable JSON: per-service and
   * total attribution in microseconds, shares, bottleneck histograms and
   * per-accelerator queue/PE decompositions. Byte-stable for identical
   * inputs (fixed float formatting, index-ordered services) — the golden
   * test compares these bytes.
   */
  void write_json(std::ostream& os) const;

 private:
  /** One buffered attributable span of an open chain. */
  struct Seg {
    sim::TimePs begin = 0;
    sim::TimePs end = 0;
    Category category = Category::kCore;
    /** Accelerator-class index for queue/PE segments; 0xFF otherwise. */
    std::uint8_t accel = 0xFF;
  };

  /** Per-chain buffering between flow begin and flow end. */
  struct OpenChain {
    bool open = false;       ///< Begin marker seen.
    sim::TimePs begin = 0;   ///< Flow-begin timestamp.
    std::vector<Seg> segs;   ///< Attributable spans observed so far.
  };

  /** Attributes and retires one chain ending at `end`. */
  void close_chain(obs::FlowId flow, OpenChain& chain, sim::TimePs end,
                   std::uint32_t service, bool timed_out);

  /** The per-service aggregate for `service` (created on demand). */
  ServiceAttribution& service_slot(std::uint32_t service);

  Options options_;
  std::unordered_map<obs::FlowId, OpenChain> open_;
  std::vector<ChainAttribution> chains_;
  std::vector<ServiceAttribution> services_;
  ServiceAttribution total_;
  AnalyzerStats stats_;
  std::vector<std::string> violations_;
  bool finished_ = false;
};

/**
 * Parses a Chrome trace-event JSON file produced by
 * obs::Tracer::export_chrome_json() back into SpanEvents and feeds them
 * to `analyzer` (then finish()). Handles the exporter's one-event-per-
 * line layout only — not a general JSON parser (the same contract as
 * tools/trace_summary). Returns the number of events ingested, or -1 if
 * the file cannot be read.
 */
long long analyze_chrome_json(const std::string& path, Analyzer& analyzer);

}  // namespace accelflow::critpath

#endif  // ACCELFLOW_CRITPATH_CRITPATH_H_
