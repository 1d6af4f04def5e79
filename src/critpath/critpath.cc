#include "critpath/critpath.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <tuple>

#include "accel/accelerator.h"

namespace accelflow::critpath {

namespace {

/** Sentinel accelerator index for segments outside queue/PE tracks. */
constexpr std::uint8_t kNoAccel = 0xFF;

/** Formats picoseconds as microseconds with ns precision ("12.345"),
 *  byte-stable across platforms (same discipline as the tracer export). */
void write_us(std::ostream& os, sim::TimePs ps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ps / 1'000'000,
                static_cast<unsigned>((ps / 1'000) % 1'000));
  os << buf;
}

/** Formats a unit-interval share with fixed 6-decimal precision. */
void write_share(std::ostream& os, sim::TimePs part, sim::TimePs whole) {
  char buf[32];
  const double v =
      whole == 0 ? 0.0
                 : static_cast<double>(part) / static_cast<double>(whole);
  std::snprintf(buf, sizeof buf, "%.6f", v);
  os << buf;
}

/** Writes one {"category": us, ...} object over all categories. */
void write_category_us(std::ostream& os,
                       const std::array<sim::TimePs, kNumCategories>& by) {
  os << '{';
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    if (c != 0) os << ',';
    os << '"' << name_of(static_cast<Category>(c)) << "\":";
    write_us(os, by[c]);
  }
  os << '}';
}

/** Writes one {"accel": us, ...} object over all accelerator classes. */
void write_accel_us(
    std::ostream& os,
    const std::array<sim::TimePs, accel::kNumAccelTypes>& by) {
  os << '{';
  for (std::size_t a = 0; a < accel::kNumAccelTypes; ++a) {
    if (a != 0) os << ',';
    os << '"' << accel::name_of(static_cast<accel::AccelType>(a)) << "\":";
    write_us(os, by[a]);
  }
  os << '}';
}

}  // namespace

Analyzer::Analyzer() = default;

Analyzer::Analyzer(Options options) : options_(std::move(options)) {}

void Analyzer::observe(const obs::SpanEvent& ev) {
  ++stats_.events;
  switch (ev.phase) {
    case obs::Phase::kFlowBegin: {
      OpenChain& chain = open_[ev.flow];
      if (chain.open) {
        // A new incarnation of this flow id started while the previous one
        // was still open: the previous close instant must have been lost
        // (it never reaches us out of order), so drop the stale record.
        ++stats_.reopened;
        chain.segs.clear();
      }
      chain.open = true;
      chain.begin = ev.ts;
      // Pre-begin segments are kept: the engine records the enqueue span
      // immediately before the flow-begin marker at the same timestamp,
      // and close_chain clips every segment to [begin, end] anyway.
      return;
    }
    case obs::Phase::kFlowStep:
    case obs::Phase::kFlowEnd:
      // The chain-done / timeout instant is the authoritative end marker;
      // flow bindings are presentation-only.
      return;
    case obs::Phase::kInstant: {
      if (ev.kind != obs::SpanKind::kChainDone &&
          ev.kind != obs::SpanKind::kTimeout) {
        return;  // Telemetry instants (faults, misses) carry no time.
      }
      const auto it = open_.find(ev.flow);
      if (it == open_.end() || !it->second.open) {
        // The flow's begin fell out of the flight-recorder ring. Recording
        // order is monotonic, so the rest of the record is incomplete too:
        // skip the chain rather than attribute a truncated window.
        ++stats_.unbegun;
        if (it != open_.end()) open_.erase(it);
        return;
      }
      close_chain(ev.flow, it->second,
                  /*end=*/ev.ts,
                  /*service=*/static_cast<std::uint32_t>(ev.arg),
                  /*timed_out=*/ev.kind == obs::SpanKind::kTimeout);
      open_.erase(it);
      return;
    }
    case obs::Phase::kComplete: {
      Category category;
      if (ev.flow == 0 || !category_of(ev.kind, &category)) return;
      std::uint8_t accel_idx = kNoAccel;
      if (ev.subsys == obs::Subsys::kAccel &&
          (category == Category::kQueue || category == Category::kPeService)) {
        const std::uint32_t idx = ev.tid / accel::Accelerator::kTidStride;
        if (idx < accel::kNumAccelTypes) {
          accel_idx = static_cast<std::uint8_t>(idx);
        }
      }
      // Buffer even if no begin marker arrived yet (see kFlowBegin above).
      open_[ev.flow].segs.push_back(
          Seg{ev.ts, ev.ts + ev.dur, category, accel_idx});
      return;
    }
  }
}

void Analyzer::analyze(const obs::Tracer& tracer) {
  tracer.for_each([this](const obs::SpanEvent& ev) { observe(ev); });
  finish();
}

void Analyzer::finish() {
  if (finished_) return;
  finished_ = true;
  for (const auto& [flow, chain] : open_) {
    (void)flow;
    if (chain.open) ++stats_.incomplete;
  }
  open_.clear();
  std::sort(services_.begin(), services_.end(),
            [](const ServiceAttribution& a, const ServiceAttribution& b) {
              return a.service < b.service;
            });
}

ServiceAttribution& Analyzer::service_slot(std::uint32_t service) {
  for (ServiceAttribution& s : services_) {
    if (s.service == service) return s;
  }
  ServiceAttribution s;
  s.service = service;
  if (service < options_.service_names.size()) {
    s.name = options_.service_names[service];
  } else {
    s.name = "service" + std::to_string(service);
  }
  services_.push_back(std::move(s));
  return services_.back();
}

void Analyzer::close_chain(obs::FlowId flow, OpenChain& chain, sim::TimePs end,
                           std::uint32_t service, bool timed_out) {
  ChainAttribution out;
  out.flow = flow;
  out.service = service;
  out.begin = chain.begin;
  out.end = end < chain.begin ? chain.begin : end;
  out.timed_out = timed_out;

  // Per-accelerator splits of the queue / PE-service categories: which
  // class's queue (or PE pool) the winning instants belonged to.
  std::array<sim::TimePs, accel::kNumAccelTypes> queue_by_accel{};
  std::array<sim::TimePs, accel::kNumAccelTypes> pe_by_accel{};

  // Sweep line over the chain's window. Each boundary opens (+1) or
  // closes (-1) one clipped segment; between consecutive boundaries the
  // highest-priority category with a positive active count owns the
  // interval, and intervals nothing covers fall to kCore. Every instant
  // of [begin, end] is assigned to exactly one category, so the
  // conservation identity holds by construction.
  struct Boundary {
    sim::TimePs t;
    int delta;  // +1 open, -1 close.
    std::uint8_t category;
    std::uint8_t accel;
  };
  std::vector<Boundary> bounds;
  bounds.reserve(chain.segs.size() * 2);
  for (const Seg& seg : chain.segs) {
    const sim::TimePs b = std::max(seg.begin, out.begin);
    const sim::TimePs e = std::min(seg.end, out.end);
    if (e <= b) continue;  // Outside the window (or zero-length).
    const auto c = static_cast<std::uint8_t>(seg.category);
    bounds.push_back(Boundary{b, +1, c, seg.accel});
    bounds.push_back(Boundary{e, -1, c, seg.accel});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) {
              return std::tie(a.t, a.delta, a.category, a.accel) <
                     std::tie(b.t, b.delta, b.category, b.accel);
            });

  std::array<int, kNumCategories> active{};
  std::array<int, accel::kNumAccelTypes> active_queue{};
  std::array<int, accel::kNumAccelTypes> active_pe{};
  auto winner = [&]() -> Category {
    Category best = Category::kCore;
    int best_priority = priority_of(Category::kCore);
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      const auto cat = static_cast<Category>(c);
      if (active[c] > 0 && priority_of(cat) > best_priority) {
        best = cat;
        best_priority = priority_of(cat);
      }
    }
    return best;
  };
  auto attribute = [&](sim::TimePs from, sim::TimePs to) {
    if (to <= from) return;
    const Category cat = winner();
    const sim::TimePs span = to - from;
    out.by_category[static_cast<std::size_t>(cat)] += span;
    // Split queue / PE time onto the lowest-index active accelerator
    // class (deterministic; overlap of same-category spans from two
    // classes within one chain is rare).
    const auto* per_accel = cat == Category::kQueue       ? &active_queue
                            : cat == Category::kPeService ? &active_pe
                                                          : nullptr;
    if (per_accel != nullptr) {
      for (std::size_t a = 0; a < accel::kNumAccelTypes; ++a) {
        if ((*per_accel)[a] > 0) {
          (cat == Category::kQueue ? queue_by_accel : pe_by_accel)[a] += span;
          break;
        }
      }
    }
  };

  sim::TimePs cursor = out.begin;
  std::size_t i = 0;
  while (i < bounds.size()) {
    const sim::TimePs t = bounds[i].t;
    attribute(cursor, t);
    cursor = t;
    // Apply every boundary at this instant before measuring the next
    // interval (zero-length intervals attribute nothing).
    for (; i < bounds.size() && bounds[i].t == t; ++i) {
      const Boundary& b = bounds[i];
      active[b.category] += b.delta;
      if (b.accel != kNoAccel) {
        if (b.category == static_cast<std::uint8_t>(Category::kQueue)) {
          active_queue[b.accel] += b.delta;
        } else {
          active_pe[b.accel] += b.delta;
        }
      }
    }
  }
  attribute(cursor, out.end);

  // The identity is structural; re-check it arithmetically anyway so an
  // accumulation bug cannot ship silently (AF_CHECK aborts on these).
  if (out.attributed() != out.latency()) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "flow %" PRIu64 ": attributed %" PRIu64
                  " ps != latency %" PRIu64 " ps",
                  static_cast<std::uint64_t>(flow),
                  static_cast<std::uint64_t>(out.attributed()),
                  static_cast<std::uint64_t>(out.latency()));
    violations_.emplace_back(buf);
  }

  ++stats_.chains;
  auto fold = [&](ServiceAttribution& agg) {
    ++agg.chains;
    if (out.timed_out) ++agg.timeouts;
    agg.total_latency += out.latency();
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      agg.by_category[c] += out.by_category[c];
    }
    ++agg.bottleneck_chains[static_cast<std::size_t>(out.dominant())];
    for (std::size_t a = 0; a < accel::kNumAccelTypes; ++a) {
      agg.queue_by_accel[a] += queue_by_accel[a];
      agg.pe_by_accel[a] += pe_by_accel[a];
    }
  };
  fold(service_slot(service));
  fold(total_);
  if (options_.keep_chains) chains_.push_back(out);
}

namespace {

/** Writes one service (or the total) aggregate as a JSON object. */
void write_service_json(std::ostream& os, const ServiceAttribution& s) {
  os << "{\"service\":" << s.service << ",\"name\":\"" << s.name
     << "\",\"chains\":" << s.chains << ",\"timeouts\":" << s.timeouts
     << ",\"mean_latency_us\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", s.mean_latency_us());
  os << buf;
  os << ",\"bottleneck\":\"" << name_of(s.dominant()) << "\"";
  os << ",\"attribution_us\":";
  write_category_us(os, s.by_category);
  os << ",\"attribution_share\":{";
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    if (c != 0) os << ',';
    os << '"' << name_of(static_cast<Category>(c)) << "\":";
    write_share(os, s.by_category[c], s.total_latency);
  }
  os << "},\"bottleneck_chains\":{";
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    if (c != 0) os << ',';
    os << '"' << name_of(static_cast<Category>(c))
       << "\":" << s.bottleneck_chains[c];
  }
  os << "},\"queue_us_by_accel\":";
  write_accel_us(os, s.queue_by_accel);
  os << ",\"pe_us_by_accel\":";
  write_accel_us(os, s.pe_by_accel);
  os << '}';
}

}  // namespace

void Analyzer::write_json(std::ostream& os) const {
  os << "{\"schema\":\"accelflow-critpath-v1\"";
  os << ",\"events\":" << stats_.events << ",\"chains\":" << stats_.chains
     << ",\"incomplete\":" << stats_.incomplete
     << ",\"unbegun\":" << stats_.unbegun
     << ",\"reopened\":" << stats_.reopened
     << ",\"violations\":" << violations_.size();
  os << ",\"services\":[\n";
  for (std::size_t i = 0; i < services_.size(); ++i) {
    if (i != 0) os << ",\n";
    write_service_json(os, services_[i]);
  }
  os << "\n],\"total\":";
  write_service_json(os, total_);
  os << "}\n";
}

namespace {

// --- Chrome-trace line parsing (same contract as tools/trace_summary) ---

/** Value of `"key":"value"` in `line`, or "" when absent. */
std::string find_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

/** Value of `"key":N` in `line`, or 0 when absent (integers only). */
std::uint64_t find_u64(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

/**
 * Parses the exporter's fixed "us.nnn" timestamp back to picoseconds
 * exactly (integer arithmetic; no double rounding). Sub-ns precision was
 * already truncated at export, so re-ingested attributions are exact in
 * the nanosecond domain.
 */
sim::TimePs find_ts(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return 0;
  const char* p = line.c_str() + pos + needle.size();
  char* rest = nullptr;
  const std::uint64_t us = std::strtoull(p, &rest, 10);
  sim::TimePs ps = us * sim::kPsPerUs;
  if (rest != nullptr && *rest == '.') {
    ps += std::strtoull(rest + 1, nullptr, 10) * sim::kPsPerNs;
  }
  return ps;
}

}  // namespace

long long analyze_chrome_json(const std::string& path, Analyzer& analyzer) {
  std::ifstream in(path);
  if (!in) return -1;
  long long events = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = find_string(line, "ph");
    if (ph.empty() || ph == "M") continue;
    obs::SpanEvent ev;
    ev.ts = find_ts(line, "ts");
    ev.tid = static_cast<std::uint32_t>(find_u64(line, "tid"));
    if (ph == "X" || ph == "i") {
      obs::Subsys subsys;
      obs::SpanKind kind;
      if (!obs::subsys_from_name(find_string(line, "cat"), &subsys)) continue;
      if (!obs::kind_from_name(find_string(line, "name"), &kind)) continue;
      ev.subsys = subsys;
      ev.kind = kind;
      ev.flow = find_u64(line, "flow");
      ev.arg = find_u64(line, "arg");
      if (ph == "X") {
        ev.phase = obs::Phase::kComplete;
        ev.dur = find_ts(line, "dur");
      } else {
        ev.phase = obs::Phase::kInstant;
      }
    } else if (ph == "s" || ph == "t" || ph == "f") {
      ev.phase = ph == "s"   ? obs::Phase::kFlowBegin
                 : ph == "t" ? obs::Phase::kFlowStep
                             : obs::Phase::kFlowEnd;
      ev.flow = find_u64(line, "id");
      ev.kind = obs::SpanKind::kChain;
    } else {
      continue;
    }
    analyzer.observe(ev);
    ++events;
  }
  analyzer.finish();
  return events;
}

}  // namespace accelflow::critpath
