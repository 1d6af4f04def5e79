#ifndef ACCELFLOW_OBS_TRACER_H_
#define ACCELFLOW_OBS_TRACER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.h"

/**
 * @file
 * The invocation-level span tracer: a per-run ring buffer of SpanEvents
 * with Chrome trace-event JSON export (loadable in Perfetto or
 * chrome://tracing).
 *
 * Zero-overhead-when-off contract (the same discipline as sim/log.h):
 * instrumented components hold a `Tracer*` that is null by default, and
 * every instrumentation point is guarded by a single null-pointer branch.
 * No tracer object exists in an untraced run, so disabled tracing costs
 * one predictable branch per site and nothing else.
 *
 * Determinism contract: the tracer only *records*. It never schedules
 * events, samples randomness, or feeds anything back into a model, so a
 * traced run is event-for-event and bit-for-bit identical to an untraced
 * run (asserted by tests/test_obs.cc).
 *
 * Threading: one Tracer belongs to one simulation (one thread), exactly
 * like sim::Simulator. Parallel sweeps attach at most one tracer to one
 * experiment point (see workload::ExperimentConfig::tracer).
 */

namespace accelflow::obs {

/**
 * Records spans into a bounded ring buffer and exports them as Chrome
 * trace-event JSON.
 *
 * When the buffer is full the oldest events are overwritten (and counted
 * in dropped()), so a long run keeps its most recent window — the standard
 * flight-recorder behaviour for always-on tracing.
 */
class Tracer {
 public:
  /** Default ring capacity (events). ~48 bytes per event. */
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  /** Creates a tracer whose ring holds `capacity` events. */
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  // --- Recording --------------------------------------------------------

  /**
   * Records a complete span ("X") on `tid` of `subsys` covering
   * [begin, end], attributed to chain `flow`: the flow_id() of the chain
   * the recording site works for, or 0 for a span that serves no chain
   * (critpath::Analyzer ignores those).
   */
  void complete(Subsys subsys, SpanKind kind, std::uint32_t tid,
                sim::TimePs begin, sim::TimePs end, std::uint64_t arg,
                FlowId flow);

  /** Records an instant event ("i") at `at`, attributed to `flow`. */
  void instant(Subsys subsys, SpanKind kind, std::uint32_t tid,
               sim::TimePs at, std::uint64_t arg, FlowId flow);

  /**
   * Records a flow event. Flow events bind to the nearest enclosing or
   * following slice on the same (subsys, tid), so emit them alongside a
   * complete span at the same timestamp (the engine does this at chain
   * start, every forward, and chain end).
   */
  void flow(Phase phase, Subsys subsys, std::uint32_t tid, sim::TimePs at,
            FlowId id);

  // --- Track naming -----------------------------------------------------

  /** Names the Chrome-trace thread `tid` of `subsys` (e.g. "TCP.pe3"). */
  void name_thread(Subsys subsys, std::uint32_t tid, std::string name);

  // --- Introspection ----------------------------------------------------

  /** Events currently held (<= capacity()). */
  std::size_t size() const { return size_; }

  /** Ring capacity in events. */
  std::size_t capacity() const { return ring_.size(); }

  /** Events overwritten because the ring was full. */
  std::uint64_t dropped() const { return dropped_; }

  /**
   * Discards all buffered events and resets the recording counters;
   * capacity and thread names are kept. Recording-side
   * state only — clearing between measurement windows (the auto-tuner
   * does this before every forked probe) never perturbs the simulation,
   * exactly like recording itself.
   */
  void clear() {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
    recorded_ = 0;
  }

  /** Total events ever recorded (including later-overwritten ones). */
  std::uint64_t recorded() const { return recorded_; }

  /** Invokes `fn(const SpanEvent&)` oldest-to-newest (for tests/tools). */
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }

  // --- Export -----------------------------------------------------------

  /**
   * Writes the buffered events as Chrome trace-event JSON:
   * `{"traceEvents": [...], "displayTimeUnit": "ns"}`. Timestamps are
   * microseconds with nanosecond precision; subsystems export as
   * processes, synthetic tids as named threads, chains as flow events.
   * Output depends only on the recorded events, so fixed-seed runs
   * produce byte-identical files (the golden test relies on this).
   */
  void export_chrome_json(std::ostream& os) const;

 private:
  void push(const SpanEvent& ev);

  std::vector<SpanEvent> ring_;
  std::size_t head_ = 0;  ///< Index of the oldest event.
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  /** (subsys, tid) -> display name, emitted as metadata at export. */
  std::map<std::pair<std::uint8_t, std::uint32_t>, std::string> thread_names_;
};

}  // namespace accelflow::obs

#endif  // ACCELFLOW_OBS_TRACER_H_
