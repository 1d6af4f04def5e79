#include "obs/tracer.h"

#include <cinttypes>
#include <cstdio>

namespace accelflow::obs {

namespace {

/** Chrome-trace pid of a subsystem (pids are 1-based for readability). */
int pid_of(Subsys s) { return static_cast<int>(s) + 1; }

/** Formats picoseconds as microseconds with ns precision ("12.345"). */
void write_ts(std::ostream& os, sim::TimePs ps) {
  // Fixed %.3f formatting keeps export byte-stable across platforms for
  // the golden-file test (ostream double formatting is locale-sensitive).
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ps / 1'000'000,
                static_cast<unsigned>((ps / 1'000) % 1'000));
  os << buf;
}

void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

Tracer::Tracer(std::size_t capacity) { ring_.resize(capacity ? capacity : 1); }

void Tracer::push(const SpanEvent& ev) {
  ++recorded_;
  if (size_ == ring_.size()) {
    // Full: overwrite the oldest event (flight-recorder semantics).
    ring_[head_] = ev;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
    return;
  }
  ring_[(head_ + size_) % ring_.size()] = ev;
  ++size_;
}

void Tracer::complete(Subsys subsys, SpanKind kind, std::uint32_t tid,
                      sim::TimePs begin, sim::TimePs end, std::uint64_t arg,
                      FlowId flow) {
  SpanEvent ev;
  ev.ts = begin;
  ev.dur = end > begin ? end - begin : 0;
  ev.flow = flow;
  ev.arg = arg;
  ev.tid = tid;
  ev.subsys = subsys;
  ev.kind = kind;
  ev.phase = Phase::kComplete;
  push(ev);
}

void Tracer::instant(Subsys subsys, SpanKind kind, std::uint32_t tid,
                     sim::TimePs at, std::uint64_t arg, FlowId flow) {
  SpanEvent ev;
  ev.ts = at;
  ev.flow = flow;
  ev.arg = arg;
  ev.tid = tid;
  ev.subsys = subsys;
  ev.kind = kind;
  ev.phase = Phase::kInstant;
  push(ev);
}

void Tracer::flow(Phase phase, Subsys subsys, std::uint32_t tid,
                  sim::TimePs at, FlowId id) {
  SpanEvent ev;
  ev.ts = at;
  ev.flow = id;
  ev.tid = tid;
  ev.subsys = subsys;
  ev.kind = SpanKind::kChain;
  ev.phase = phase;
  push(ev);
}

void Tracer::name_thread(Subsys subsys, std::uint32_t tid, std::string name) {
  thread_names_[{static_cast<std::uint8_t>(subsys), tid}] = std::move(name);
}

void Tracer::export_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata: one process per subsystem, plus every registered thread name.
  for (std::size_t s = 0; s < kNumSubsys; ++s) {
    const auto subsys = static_cast<Subsys>(s);
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid_of(subsys)
       << ",\"args\":{\"name\":\"" << name_of(subsys) << "\"}}";
  }
  for (const auto& [key, name] : thread_names_) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
       << pid_of(static_cast<Subsys>(key.first)) << ",\"tid\":" << key.second
       << ",\"args\":{\"name\":\"";
    write_escaped(os, name);
    os << "\"}}";
  }

  for_each([&](const SpanEvent& ev) {
    sep();
    const int pid = pid_of(ev.subsys);
    switch (ev.phase) {
      case Phase::kComplete:
      case Phase::kInstant: {
        const bool is_x = ev.phase == Phase::kComplete;
        os << "{\"name\":\"" << name_of(ev.kind) << "\",\"cat\":\""
           << name_of(ev.subsys) << "\",\"ph\":\"" << (is_x ? 'X' : 'i')
           << "\",\"ts\":";
        write_ts(os, ev.ts);
        if (is_x) {
          os << ",\"dur\":";
          write_ts(os, ev.dur);
        } else {
          os << ",\"s\":\"t\"";  // Thread-scoped instant.
        }
        os << ",\"pid\":" << pid << ",\"tid\":" << ev.tid << ",\"args\":{";
        os << "\"flow\":" << ev.flow;
        if (ev.arg != 0) os << ",\"arg\":" << ev.arg;
        os << "}}";
        break;
      }
      case Phase::kFlowBegin:
      case Phase::kFlowStep:
      case Phase::kFlowEnd: {
        const char ph = ev.phase == Phase::kFlowBegin  ? 's'
                        : ev.phase == Phase::kFlowStep ? 't'
                                                       : 'f';
        os << "{\"name\":\"chain\",\"cat\":\"flow\",\"ph\":\"" << ph
           << "\",\"id\":" << ev.flow << ",\"ts\":";
        write_ts(os, ev.ts);
        os << ",\"pid\":" << pid << ",\"tid\":" << ev.tid;
        // Binding point "enclosing slice" renders the chain arrows from
        // span to span rather than from instant markers.
        if (ph == 'f') os << ",\"bp\":\"e\"";
        os << "}";
        break;
      }
    }
  });

  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

}  // namespace accelflow::obs
