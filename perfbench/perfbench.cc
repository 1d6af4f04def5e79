/**
 * @file
 * End-to-end benchmark binary (perfbench/README.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--smoke] [--spans <file>]
 *
 * Runs one workload through the simulator's public entry points and prints
 * one JSON object as the last line of stdout:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * With --trace 0 the metrics are the end-to-end ones, timed with no tracer,
 * checker or span ring attached. With --trace 1 they are the per-layer ones:
 * an untraced run timed per public call, a run with an obs::Tracer whose
 * spans critpath::Analyzer attributes, and a run under the
 * check::InvariantChecker. Every run uses the library defaults (heap
 * calendar, interpreted chains); the ambient AF_* knobs are refused.
 * Exit status is 0 only when every correctness check passed.
 */

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/invariant_checker.h"
#include "cluster/datacenter.h"
#include "core/chain_program.h"
#include "core/orchestrator.h"
#include "core/trace_templates.h"
#include "critpath/critpath.h"
#include "fault/fault_injector.h"
#include "obs/tracer.h"
#include "qos/admission.h"
#include "workload/experiment.h"
#include "workload/load_generator.h"
#include "workload/request_engine.h"
#include "workload/suites.h"

namespace {

using namespace accelflow;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host-speed reference. Shared cloud cores alternate between a fast mode
 * and a slow one (another tenant's load on the same physical cores), and
 * the share of time spent in each varies from run to run: the simulator's
 * median event rate moves by tens of percent between runs of one seed. A
 * fixed kernel of the same character -- sorting 64 KiB of random keys:
 * branchy, cache-resident, high IPC -- runs right after each timed sample,
 * and the sample's rate is scaled to the kernel's nominal time. The kernel
 * is benchmark code, so no change to the simulator moves it.
 */
class SpeedReference {
 public:
  /** Nominal host seconds of one chunk: rates are reported at this speed. */
  static constexpr double kNominalS = 1e-3;

  SpeedReference() : keys_(16384), work_(16384) {
    std::uint64_t x = 0x5EED;
    for (std::uint32_t& k : keys_) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      k = static_cast<std::uint32_t>(x >> 32);
    }
  }

  /** `events` executed in `seconds`, scaled to the nominal host speed. */
  double normalize(std::uint64_t events, double seconds) {
    const Clock::time_point t0 = Clock::now();
    work_ = keys_;
    std::sort(work_.begin(), work_.end());
    const double chunk = seconds_between(t0, Clock::now());
    return static_cast<double>(events) / seconds * (chunk / kNominalS);
  }

 private:
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> work_;
};

SpeedReference& speed_reference() {
  static SpeedReference ref;
  return ref;
}

/**
 * The run's host event rate from its normalized samples: their lower
 * decile, which reads the slow mode of the host that every run visits.
 */
double host_speed(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 10];
}

// --- Command line ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /** Short simulated windows: the smoke test's mode, not a benchmark. */
  bool smoke = false;
  /** Where --trace 1 writes its host spans (none when empty). */
  std::string spans_path;
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else {
      std::cerr << "perfbench: unknown or incomplete argument '" << a
                << "'\n";
      return false;
    }
  }
  if (!(o.seconds > 0.0) || o.seconds > 600.0) {
    std::cerr << "perfbench: --seconds must be in (0, 600]\n";
    return false;
  }
  return true;
}

/** The library's environment knobs: each one changes what a run measures
 *  (backends, checking, faults, QoS, window lengths, thread counts). */
constexpr const char* kAmbientKnobs[] = {
    "AF_CHECK", "AF_FAULTS",      "AF_QOS",          "AF_SCHED",
    "AF_COMPILE", "AF_BENCH_FAST", "AF_BENCH_THREADS"};

// --- Host spans --------------------------------------------------------------

/**
 * Host-time spans around calls into the simulator's public functions, kept
 * in memory and written as JSON at exit. Each span names the layer whose
 * function it wraps; `parent` links a call to the phase that issued it and
 * `rep` groups the spans of one repetition.
 */
class HostSpans {
 public:
  int open(const char* layer, const char* name) {
    spans_.push_back({layer, name, now(), 0.0, current_, rep_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  /** Closes span `id` and returns its duration in seconds. */
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now();
    current_ = s.parent;
    return s.end_s - s.begin_s;
  }

  /** Runs `fn` inside a span; `*seconds` receives its duration. */
  template <typename Fn>
  void time(const char* layer, const char* name, Fn&& fn,
            double* seconds = nullptr) {
    const int id = open(layer, name);
    fn();
    const double d = close(id);
    if (seconds != nullptr) *seconds = d;
  }

  void next_rep() { ++rep_; }

  void write_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"unit\": \"s\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %zu, \"parent\": %d, \"rep\": %d, "
                    "\"layer\": \"%s\", \"name\": \"%s\", "
                    "\"begin\": %.9f, \"end\": %.9f}",
                    i, s.parent, s.rep, s.layer.c_str(), s.name.c_str(),
                    s.begin_s, s.end_s);
      os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }

 private:
  struct Span {
    std::string layer;
    std::string name;
    double begin_s = 0;
    double end_s = 0;
    int parent = -1;
    int rep = 0;
  };

  double now() const { return seconds_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
  int rep_ = 0;
};

// --- Checks ------------------------------------------------------------------

/** Correctness verdict: every failed check is named on stderr. */
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

// --- Result fingerprints -------------------------------------------------------

/** Every simulated quantity the benchmark reports, byte-exact: two runs of
 *  the same seed must produce equal strings. */
std::string fingerprint(const workload::ExperimentResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& s : r.services) {
    os << s.name << ' ' << s.completed << ' ' << s.failed << ' '
       << s.fallbacks << ' ' << s.faulted << ' ' << s.latency.count() << ' '
       << s.latency.p50() << ' ' << s.latency.p99() << ' '
       << s.latency.max() << ' ' << s.latency.mean() << '\n';
  }
  const core::EngineStats& e = r.engine;
  os << r.elapsed << ' ' << r.core_busy << ' ' << r.accel_busy << ' '
     << r.dma_busy << ' ' << r.interrupts << ' ' << r.overflow_enqueues
     << ' ' << r.overflow_rejections << ' ' << r.accel_invocations << ' '
     << r.tlb_lookups << ' ' << r.tlb_misses << ' ' << r.page_faults << ' '
     << r.deadline_misses << ' ' << e.chains_completed << ' '
     << e.enqueue_fallbacks << ' ' << e.overflow_fallbacks << ' '
     << e.hop_timeouts << ' ' << e.hop_retries << ' ' << e.chains_faulted
     << ' ' << e.health_fallbacks << ' ' << e.quota_throttled << ' '
     << r.faults.total() << ' ' << r.qos_shed_total << '\n';
  return os.str();
}

std::string fingerprint(const cluster::ClusterResult& r) {
  std::ostringstream os;
  for (const auto& s : r.shards) os << fingerprint(s);
  os << r.network.messages << ' ' << r.network.bytes << ' '
     << r.network.total_latency << ' ' << r.remote_rpcs << ' '
     << r.balancer_decisions << ' ' << r.elapsed << '\n';
  return os.str();
}

// --- Simulated end-to-end metrics ----------------------------------------------

/** Per-service latency and outcome counts. */
struct ServiceOutcome {
  stats::LatencyRecorder latency;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

/** Outcomes pooled over measured windows: the shards of a cluster and the
 *  sub-seed units of a run, as if measured in one longer window. */
struct Outcomes {
  std::vector<ServiceOutcome> services;
  std::uint64_t shed = 0;
  sim::TimePs measured = 0;  ///< Simulated measure time pooled.

  void add(const workload::ExperimentResult& r) {
    services.resize(std::max(services.size(), r.services.size()));
    for (std::size_t s = 0; s < r.services.size(); ++s) {
      services[s].latency.merge(r.services[s].latency);
      services[s].completed += r.services[s].completed;
      services[s].failed += r.services[s].failed;
    }
    shed += r.qos_shed_total;
  }
  void add(const workload::ExperimentResult& r, sim::TimePs measure) {
    add(r);
    measured += measure;
  }
  void add(const cluster::ClusterResult& r, sim::TimePs measure) {
    for (const auto& shard : r.shards) add(shard);
    measured += measure;
  }
};

struct SimMetrics {
  double p50_us = 0;
  double p99_us = 0;
  double goodput_rps = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;

  double served_frac() const {
    const double offered = static_cast<double>(completed + shed);
    return offered > 0 ? static_cast<double>(completed - failed) / offered
                       : 0.0;
  }
};

/** Fig. 11 convention: latency percentiles averaged over driven services
 *  (those that recorded any latency). */
SimMetrics sim_metrics(const Outcomes& o) {
  SimMetrics m;
  std::size_t driven = 0;
  for (const ServiceOutcome& s : o.services) {
    m.completed += s.completed;
    m.failed += s.failed;
    if (s.latency.count() == 0) continue;
    m.p50_us += sim::to_microseconds(s.latency.p50());
    m.p99_us += sim::to_microseconds(s.latency.p99());
    ++driven;
  }
  if (driven > 0) {
    m.p50_us /= static_cast<double>(driven);
    m.p99_us /= static_cast<double>(driven);
  }
  m.shed = o.shed;
  if (o.measured > 0) {
    m.goodput_rps = static_cast<double>(m.completed - m.failed) /
                    sim::to_seconds(o.measured);
  }
  return m;
}

// --- Per-layer counters ---------------------------------------------------------

/** Hardware and orchestration counters of one or more machines, read
 *  through each layer's public stats accessors after a harvest. Hardware
 *  counters cover the whole simulated run, warmup included (as
 *  workload::harvest_result reports utilization). */
struct LayerCounts {
  int machines = 0;
  std::uint64_t accel_jobs = 0;
  std::uint64_t overflow_enqueues = 0;
  std::uint64_t overflow_rejections = 0;
  double pe_util_max = 0;
  std::uint64_t dma_transfers = 0;
  sim::TimePs dma_engine_wait = 0;
  double dma_util_sum = 0;
  std::uint64_t noc_hops = 0;
  std::uint64_t noc_inter_bytes = 0;
  std::uint64_t tlb_lookups = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t iommu_walks = 0;
  double cpu_util_sum = 0;
  std::uint64_t interrupts = 0;
  double glue_instrs = 0;
  std::uint64_t glue_ops = 0;
  std::uint64_t cpu_fallbacks = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t hop_timeouts = 0;
  std::uint64_t hop_retries = 0;
  std::uint64_t chains_faulted = 0;
  std::uint64_t health_fallbacks = 0;
  std::uint64_t quota_throttled = 0;
  std::size_t pending_high_water = 0;

  void add(core::Machine& m, const workload::ExperimentResult& r) {
    ++machines;
    accel_jobs += r.accel_invocations;
    overflow_enqueues += r.overflow_enqueues;
    overflow_rejections += r.overflow_rejections;
    for (const double u : r.accel_utilization) {
      pe_util_max = std::max(pe_util_max, u);
    }
    dma_transfers += m.dma().stats().transfers;
    dma_engine_wait += m.dma().stats().engine_wait;
    dma_util_sum += r.dma_utilization;
    noc_hops += m.net().stats().hops;
    noc_inter_bytes += m.net().stats().inter_bytes;
    tlb_lookups += r.tlb_lookups;
    tlb_misses += r.tlb_misses;
    iommu_walks += m.iommu().stats().walks;
    cpu_util_sum += r.core_utilization;
    interrupts += r.interrupts;
    const core::EngineStats& e = r.engine;
    glue_instrs += e.glue_instrs.sum();
    glue_ops += e.glue_instrs.count();
    cpu_fallbacks += e.enqueue_fallbacks + e.overflow_fallbacks;
    faults_injected += r.faults.total();
    hop_timeouts += e.hop_timeouts;
    hop_retries += e.hop_retries;
    chains_faulted += e.chains_faulted;
    health_fallbacks += e.health_fallbacks;
    quota_throttled += e.quota_throttled;
    pending_high_water = std::max(pending_high_water,
                                  m.sim().kernel_stats().pending_high_water);
  }
};

// --- Metric output ----------------------------------------------------------------

class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void print(bool correct) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(m.value) ? m.value : -1.0);
      os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

/** Critical-path attribution, per-chain mean in simulated microseconds. */
void put_critpath(Report& rep, const critpath::Analyzer& a) {
  const critpath::ServiceAttribution& t = a.total();
  const double chains = std::max<double>(1.0, static_cast<double>(t.chains));
  for (std::size_t c = 0; c < critpath::kNumCategories; ++c) {
    const std::string name = "critpath." +
                             std::string(critpath::name_of(
                                 static_cast<critpath::Category>(c))) +
                             "_us";
    rep.put(name, sim::to_microseconds(t.by_category[c]) / chains, "us");
  }
  rep.put("critpath.chains", static_cast<double>(t.chains), "count");
  rep.put("critpath.violations", static_cast<double>(a.violations().size()),
          "count");
}

void put_layers(Report& rep, const LayerCounts& l) {
  const double n = std::max(1, l.machines);
  rep.put("accel.jobs", static_cast<double>(l.accel_jobs), "count");
  rep.put("accel.overflow_enqueues", static_cast<double>(l.overflow_enqueues),
          "count");
  rep.put("accel.overflow_rejections",
          static_cast<double>(l.overflow_rejections), "count");
  rep.put("accel.pe_util_max", l.pe_util_max, "ratio");
  rep.put("dma.transfers", static_cast<double>(l.dma_transfers), "count");
  rep.put("dma.engine_wait_us", sim::to_microseconds(l.dma_engine_wait),
          "us");
  rep.put("dma.utilization", l.dma_util_sum / n, "ratio");
  rep.put("noc.hops", static_cast<double>(l.noc_hops), "count");
  rep.put("noc.inter_bytes", static_cast<double>(l.noc_inter_bytes), "B");
  rep.put("mem.tlb.miss_rate",
          l.tlb_lookups > 0 ? static_cast<double>(l.tlb_misses) /
                                  static_cast<double>(l.tlb_lookups)
                            : 0.0,
          "ratio");
  rep.put("mem.iommu.walks", static_cast<double>(l.iommu_walks), "count");
  rep.put("cpu.utilization", l.cpu_util_sum / n, "ratio");
  rep.put("cpu.interrupts", static_cast<double>(l.interrupts), "count");
  rep.put("core.glue_instrs_mean",
          l.glue_ops > 0 ? l.glue_instrs / static_cast<double>(l.glue_ops)
                         : 0.0,
          "instr");
  rep.put("core.cpu_fallbacks", static_cast<double>(l.cpu_fallbacks),
          "count");
  rep.put("fault.injected", static_cast<double>(l.faults_injected), "count");
  rep.put("fault.hop_timeouts", static_cast<double>(l.hop_timeouts), "count");
  rep.put("fault.hop_retries", static_cast<double>(l.hop_retries), "count");
  rep.put("fault.chains_faulted", static_cast<double>(l.chains_faulted),
          "count");
  rep.put("fault.health_fallbacks", static_cast<double>(l.health_fallbacks),
          "count");
  rep.put("qos.quota_throttled", static_cast<double>(l.quota_throttled),
          "count");
  rep.put("sim.pending_high_water", static_cast<double>(l.pending_high_water),
          "count");
}

/** Peak resident set in MiB since the last reset_peak_rss(): the kernel's
 *  high-water mark VmHWM. (getrusage()'s ru_maxrss survives execve, so
 *  under run.py it would report Python's peak.) */
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/** Returns freed heap to the kernel and restarts the VmHWM high-water mark
 *  (clear_refs "5"), so the next peak is the next repetition's own. A burst
 *  that grows one unit's heap then does not set the whole run's peak. */
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// --- Workload definitions ---------------------------------------------------------

/** Independent sub-seed units per run. The simulated metrics pool their
 *  measured windows, so one burst-heavy window cannot swing a tail
 *  percentile; the host metrics take the median over repetitions. */
constexpr std::size_t kMachineUnits = 8;
constexpr std::size_t kClusterUnits = 4;

constexpr double kBaseRps = 13400.0;  // Table III average per service.
constexpr std::size_t kVictim = 1;      // ReadHomeTimeline-like.
constexpr std::size_t kAntagonist = 0;  // ComposePost-like (heavy).

/** The paper's headline scenario: one Table III machine, the eight
 *  SocialNetwork services under Alibaba-like trace-modulated arrivals. */
workload::ExperimentConfig social_alibaba(std::uint64_t seed, double scale) {
  workload::ExperimentConfig cfg;
  cfg.kind = core::OrchKind::kAccelFlow;
  cfg.specs = workload::social_network_specs();
  cfg.load_model = workload::LoadGenerator::Model::kTrace;
  cfg.per_service_rps =
      workload::alibaba_like_rates(cfg.specs.size(), kBaseRps);
  cfg.warmup = sim::milliseconds(20 * scale);
  cfg.measure = sim::milliseconds(400 * scale);
  cfg.drain = sim::milliseconds(25 * scale);
  cfg.seed = seed;
  return cfg;
}

/** The multi-tenant drill: an SLO'd victim beside a 3x-quota antagonist on
 *  a 2-PE ensemble under 1% uniform faults, with admission control,
 *  quotas, reserved input slots and priority aging on. */
workload::ExperimentConfig qos_antagonist(std::uint64_t seed, double scale) {
  workload::ExperimentConfig cfg;
  cfg.kind = core::OrchKind::kAccelFlow;
  cfg.specs = workload::social_network_specs();
  cfg.load_model = workload::LoadGenerator::Model::kPoisson;
  cfg.per_service_rps.assign(cfg.specs.size(), 0.0);
  cfg.per_service_rps[kVictim] = 4000.0;
  cfg.per_service_rps[kAntagonist] = 3.0 * 6000.0;
  cfg.machine.pes_per_accel = 2;
  cfg.warmup = sim::milliseconds(10 * scale);
  cfg.measure = sim::milliseconds(400 * scale);
  cfg.drain = sim::milliseconds(10 * scale);
  cfg.seed = seed;
  cfg.faults = fault::FaultPlan::uniform(0.01, 0xFA017 ^ seed);

  qos::QosPolicy p;
  p.tenants.resize(cfg.specs.size());
  qos::TenantSlo& victim = p.tenants[kVictim];
  victim.cls = qos::TenantClass::kLatencySensitive;
  victim.p99_target = sim::microseconds(600.0);
  victim.min_rps = 1.5 * 4000.0;  // Floor above its offer: never shed.
  victim.priority = 2;
  p.tenants[kAntagonist].quota_rps = 6000.0;
  p.reserved_input_slots = 4;
  p.aging_quantum_us = 25.0;
  cfg.qos = p;
  return cfg;
}

/** Four shards behind a consistent-hash balancer with 25% remote nested
 *  RPCs, Poisson load. Rates scale with the shard count, so a rung factor
 *  f offers every shard f x the single-machine base rate. */
cluster::ClusterConfig cluster_ladder(std::uint64_t seed, double scale) {
  cluster::ClusterConfig cfg;
  cfg.shards = 4;
  cfg.policy = cluster::BalancePolicy::kConsistentHash;
  cfg.remote_rpc_fraction = 0.25;
  // One thread: the window engine's workers meet at a barrier every
  // lookahead window, so their wall time follows the slowest core in each
  // window; on shared cores that spread requests_per_s by 24% (IQR over
  // ten seeds). The traced mode measures the N-thread speed-up.
  cfg.threads = 1;
  workload::ExperimentConfig& e = cfg.experiment;
  e.kind = core::OrchKind::kAccelFlow;
  e.specs = workload::social_network_specs();
  e.load_model = workload::LoadGenerator::Model::kPoisson;
  e.rps_per_service = kBaseRps * static_cast<double>(cfg.shards);
  e.warmup = sim::milliseconds(10 * scale);
  e.measure = sim::milliseconds(20 * scale);
  e.drain = sim::milliseconds(5 * scale);
  e.seed = seed;
  return cfg;
}

/** Fixed rate factors spanning the SLO knee (about 2.9x at the seed
 *  commit): the host work per ladder does not move when the knee moves. */
constexpr double kRungs[] = {1.0, 2.0, 2.6, 2.8, 3.0, 3.2};
/** The rung whose latency the end-to-end metrics report: the highest one
 *  below the knee, where P99 is steady across seeds. */
constexpr std::size_t kLatencyRung = 2;

/** The paper's SLO: 5x each service's unloaded Non-acc P50. */
std::vector<sim::TimePs> slo_targets(const workload::ExperimentConfig& e) {
  std::vector<sim::TimePs> slos =
      workload::unloaded_latency(e, core::OrchKind::kNonAcc);
  for (sim::TimePs& s : slos) s *= 5;
  return slos;
}

/** The calendar and chain backends the library defaults resolved to. */
std::string calendar_name(const sim::Simulator& sim) {
  return sim.backend() == sim::SchedBackend::kHeap ? "heap" : "wheel";
}
std::string chains_name(const core::EngineConfig& e) {
  return e.compile || core::af_compile_enabled() ? "compiled" : "interpreted";
}

// --- Single-machine unit -------------------------------------------------------------

/** Optional observers of one unit run. */
struct Probes {
  obs::Tracer* tracer = nullptr;
  critpath::Analyzer* analyzer = nullptr;  ///< Fed from `tracer`.
  check::InvariantChecker* checker = nullptr;
};

/** Simulated time per tracer drain: the ring must hold one slice. */
constexpr sim::TimePs kTraceSlice = sim::milliseconds(1);
/** Simulated time per host-speed sample of an untraced run. */
constexpr sim::TimePs kTimingSlice = sim::milliseconds(5);
/** Slices with fewer events (idle drain tails) give no speed sample. */
constexpr std::uint64_t kMinSliceEvents = 1000;

struct UnitRun {
  workload::ExperimentResult result;
  LayerCounts layers;
  std::uint64_t events = 0;
  std::uint64_t completed_all = 0;  ///< Warmup, measure and drain.
  double setup_s = 0;    ///< Host time before the first simulated event.
  double run_s = 0;      ///< Host time inside Simulator::run_until.
  double core_s = 0;     ///< Templates + orchestrator construction.
  double build_s = 0;    ///< Services, RequestEngine, generators.
  double harvest_s = 0;  ///< workload::harvest_result.
  double analyze_s = 0;  ///< critpath::Analyzer over the tracer ring.
  double wall_s = 0;     ///< The whole unit.
  /** Kernel events per nominal host second of each untraced slice. */
  std::vector<double> slice_rates;
  std::uint64_t dropped = 0;
  std::string calendar;
  std::string chains;
};

/** Advances to `t` in slices: an untraced run samples its host speed per
 *  slice, a traced one drains the tracer ring into the analyzer per slice
 *  so the ring never wraps. Slicing run_until changes nothing simulated:
 *  the calendar runs the same events in the same order. */
void advance(core::Machine& machine, sim::TimePs t, const Probes& probes,
             UnitRun& out, HostSpans& spans) {
  sim::Simulator& sim = machine.sim();
  const bool traced = probes.analyzer != nullptr;
  for (sim::TimePs now = sim.now(); now < t;) {
    now = std::min(t, now + (traced ? kTraceSlice : kTimingSlice));
    const std::uint64_t e0 = sim.executed_events();
    const Clock::time_point t0 = Clock::now();
    sim.run_until(now);
    const double dt = seconds_between(t0, Clock::now());
    const std::uint64_t events = sim.executed_events() - e0;
    if (!traced) {
      if (events >= kMinSliceEvents) {
        out.slice_rates.push_back(speed_reference().normalize(events, dt));
      }
      continue;
    }
    double s = 0;
    spans.time("critpath", "Analyzer::observe", [&] {
      probes.tracer->for_each(
          [&](const obs::SpanEvent& ev) { probes.analyzer->observe(ev); });
    }, &s);
    out.analyze_s += s;
    out.dropped += probes.tracer->dropped();
    probes.tracer->clear();
  }
}

/**
 * One workload::run_experiment, rebuilt from the public calls it makes so
 * each step can be timed: Machine, templates, services, orchestrator,
 * fault injector, RequestEngine, admission, generators, warmup,
 * measure + drain, harvest_result.
 */
UnitRun run_unit(const workload::ExperimentConfig& cfg, const Probes& probes,
                 HostSpans& spans) {
  UnitRun out;
  const int unit = spans.open("workload", "unit");
  const int setup = spans.open("workload", "setup");
  const qos::QosPolicy policy = workload::resolve_qos_policy(cfg);
  std::unique_ptr<core::Machine> machine;
  spans.time("core", "Machine", [&] {
    machine = std::make_unique<core::Machine>(
        workload::with_qos(cfg.machine, policy));
  });
  if (probes.tracer != nullptr) machine->set_tracer(probes.tracer);
  core::TraceLibrary lib;
  double t_templates = 0;
  spans.time("core", "register_templates", [&] {
    core::register_templates(lib);
    workload::register_relief_traces(lib);
  }, &t_templates);
  if (probes.checker != nullptr) probes.checker->attach(*machine, lib);

  std::vector<std::unique_ptr<workload::Service>> services;
  std::vector<workload::Service*> service_ptrs;
  double t_services = 0;
  spans.time("workload", "build_services", [&] {
    services = workload::build_services(cfg.specs, lib);
    for (auto& s : services) service_ptrs.push_back(s.get());
  }, &t_services);

  core::EngineConfig engine_config = cfg.engine;
  if (policy.enabled()) engine_config.qos = policy;
  std::unique_ptr<core::Orchestrator> orch;
  double t_orch = 0;
  spans.time("core", "make_orchestrator", [&] {
    orch = core::make_orchestrator(cfg.kind, *machine, lib, engine_config);
  }, &t_orch);
  out.calendar = calendar_name(machine->sim());
  out.chains = chains_name(engine_config);

  std::unique_ptr<fault::FaultInjector> injector;
  if (cfg.faults.enabled() && orch->engine() != nullptr) {
    spans.time("fault", "FaultInjector", [&] {
      injector =
          std::make_unique<fault::FaultInjector>(machine->sim(), cfg.faults);
      machine->set_fault_hooks(injector.get());
    });
  }

  std::unique_ptr<workload::RequestEngine> engine;
  double t_engine = 0;
  spans.time("workload", "RequestEngine", [&] {
    engine = std::make_unique<workload::RequestEngine>(
        *machine, *orch, service_ptrs, cfg.seed);
    if (!cfg.step_deadline_budgets.empty()) {
      engine->set_step_deadline_budgets(cfg.step_deadline_budgets);
    } else {
      engine->set_step_deadline_budget(cfg.step_deadline_budget);
    }
  }, &t_engine);

  std::unique_ptr<qos::AdmissionController> admission;
  if (policy.enabled()) {
    spans.time("qos", "AdmissionController", [&] {
      admission =
          std::make_unique<qos::AdmissionController>(machine->sim(), policy);
      engine->set_admission(admission.get());
    });
  }

  const sim::TimePs issue_until = cfg.warmup + cfg.measure;
  std::vector<std::unique_ptr<workload::LoadGenerator>> gens;
  double t_gens = 0;
  spans.time("workload", "LoadGenerator", [&] {
    for (std::size_t s = 0; s < services.size(); ++s) {
      const double rps = cfg.per_service_rps.empty()
                             ? cfg.rps_per_service
                             : cfg.per_service_rps[s];
      if (rps <= 0) continue;
      gens.push_back(std::make_unique<workload::LoadGenerator>(
          machine->sim(), *engine, s, cfg.load_model, rps, issue_until,
          cfg.seed ^ (0x10AD + 1315423911ull * (s + 1))));
      if (admission != nullptr) gens.back()->set_admission(admission.get());
    }
  }, &t_gens);
  out.setup_s = spans.close(setup);
  out.core_s = t_templates + t_orch;
  out.build_s = t_services + t_engine + t_gens;

  const int run = spans.open("sim", "run");
  spans.time("sim", "run_until.warmup",
             [&] { advance(*machine, cfg.warmup, probes, out, spans); });
  out.completed_all = engine->total_completed();
  engine->reset_stats();
  if (injector != nullptr) injector->reset_stats();
  if (admission != nullptr) admission->reset_stats();
  spans.time("sim", "run_until.measure", [&] {
    advance(*machine, issue_until + cfg.drain, probes, out, spans);
  });
  out.run_s = spans.close(run) - out.analyze_s;

  spans.time("workload", "harvest_result", [&] {
    out.result = workload::harvest_result(*machine, *orch, *engine);
    if (injector != nullptr) out.result.faults = injector->stats();
    if (admission != nullptr) {
      out.result.qos_tenants = admission->tenant_stats();
      out.result.qos_shed_total = admission->total_shed();
    }
  }, &out.harvest_s);
  out.completed_all += out.result.total_completed();
  out.events = machine->sim().executed_events();
  out.layers.add(*machine, out.result);
  if (probes.checker != nullptr) {
    spans.time("check", "final_audit", [&] {
      probes.checker->final_audit();
      probes.checker->detach();
    });
  }
  if (probes.analyzer != nullptr) {
    double s = 0;
    spans.time("critpath", "Analyzer::finish",
               [&] { probes.analyzer->finish(); }, &s);
    out.analyze_s += s;
  }
  out.wall_s = spans.close(unit);
  return out;
}

/**
 * Replaces pooled latency percentiles by the median over units of each
 * unit's own. Under trace-modulated arrivals a tail percentile is
 * heavy-tailed across windows: one extreme burst in one unit would decide
 * a pooled P99, while the median unit is the run's typical window.
 */
void take_unit_medians(SimMetrics& m, const std::vector<SimMetrics>& units) {
  std::vector<double> p50, p99;
  for (const SimMetrics& u : units) {
    p50.push_back(u.p50_us);
    p99.push_back(u.p99_us);
  }
  m.p50_us = median(p50);
  m.p99_us = median(p99);
}

void put_end_to_end(Report& rep, const SimMetrics& m, double rps,
                    double setup_s, double rss_mb) {
  rep.put("requests_per_s", rps, "req/s");
  rep.put("setup_s", setup_s, "s");
  rep.put("sim_p50_us", m.p50_us, "us");
  rep.put("sim_p99_us", m.p99_us, "us");
  rep.put("served_frac", m.served_frac(), "ratio");
  rep.put("peak_rss_mb", rss_mb, "MiB");
}

void check_sim_metrics(Checks& checks, const SimMetrics& m) {
  checks.expect(m.completed > 0, "completed > 0");
  checks.expect(m.p50_us > 0 && m.p50_us <= m.p99_us,
                "0 < sim_p50_us <= sim_p99_us");
}

/** The per-layer metrics that only the cluster produces; zero elsewhere. */
void put_cluster_zeros(Report& rep) {
  for (const char* n : {"cluster.prepare_s", "cluster.point_s"}) {
    rep.put(n, 0.0, "s");
  }
  rep.put("cluster.thread_speedup", 0.0, "ratio");
  rep.put("cluster.remote_rpcs", 0.0, "count");
  rep.put("cluster.net_messages", 0.0, "count");
  rep.put("cluster.slo_max_load", 0.0, "x");
  rep.put("snapshot.checkpoint_ms", 0.0, "ms");
  rep.put("snapshot.restore_ms", 0.0, "ms");
}

void put_qos(Report& rep, const workload::ExperimentResult& r) {
  rep.put("qos.shed", static_cast<double>(r.qos_shed_total), "count");
  double ant = 0.0;
  if (r.qos_shed_total > 0 && kAntagonist < r.qos_tenants.size()) {
    ant = static_cast<double>(r.qos_tenants[kAntagonist].shed) /
          static_cast<double>(r.qos_shed_total);
  }
  rep.put("qos.shed_antagonist_frac", ant, "ratio");
  rep.put("qos.victim_p99_us",
          r.qos_tenants.empty() ? 0.0 : r.services[kVictim].p99_us, "us");
}

void run_machine_workload(
    const std::vector<workload::ExperimentConfig>& units, const Options& opt,
    Report& rep, Checks& checks, HostSpans& spans) {
  // Timed phase: cycle through the sub-seed units until each ran once and
  // --seconds elapsed. A unit's later passes must reproduce its first.
  const std::size_t n = units.size();
  std::vector<double> setups, speeds, rss, runs, cores, builds, harvests,
      walls0;
  std::vector<UnitRun> firsts;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < n || seconds_between(start, Clock::now()) < opt.seconds; ++i) {
    const std::size_t k = i % n;
    reset_peak_rss();
    UnitRun u = run_unit(units[k], Probes{}, spans);
    rss.push_back(peak_rss_mb());
    spans.next_rep();
    setups.push_back(u.setup_s);
    speeds.insert(speeds.end(), u.slice_rates.begin(), u.slice_rates.end());
    runs.push_back(u.run_s);
    cores.push_back(u.core_s);
    builds.push_back(u.build_s);
    harvests.push_back(u.harvest_s);
    if (k == 0) walls0.push_back(u.wall_s);
    if (i < n) {
      firsts.push_back(std::move(u));
    } else {
      checks.expect(fingerprint(u.result) == fingerprint(firsts[k].result) &&
                        u.events == firsts[k].events,
                    "unit " + std::to_string(k) + " reproduces its first pass");
    }
  }
  const UnitRun& first = firsts.front();
  std::cerr << "perfbench: calendar=" << first.calendar
            << " chains=" << first.chains << " checker=off units=" << n
            << " reps=" << runs.size() << " slices=" << speeds.size() << "\n";
  checks.expect(first.calendar == "heap" && first.chains == "interpreted",
                "library defaults resolved to heap + interpreted");

  Outcomes pooled;
  std::vector<SimMetrics> per_unit;
  for (std::size_t k = 0; k < n; ++k) {
    pooled.add(firsts[k].result, units[k].measure);
    Outcomes one;
    one.add(firsts[k].result, units[k].measure);
    per_unit.push_back(sim_metrics(one));
  }
  SimMetrics m = sim_metrics(pooled);
  take_unit_medians(m, per_unit);
  check_sim_metrics(checks, m);
  rep.attempted = m.completed + m.shed;
  rep.failed = m.failed;
  double events = 0, completed_all = 0, run_s = 0;
  for (const UnitRun& u : firsts) {
    events += static_cast<double>(u.events);
    completed_all += static_cast<double>(u.completed_all);
    run_s += u.run_s;
  }
  if (!opt.trace) {
    put_end_to_end(rep, m, completed_all / events * host_speed(speeds),
                   median(setups), median(rss));
    return;
  }

  // Per-layer runs on the first unit. The rebuilt steps must equal the
  // library's one-call entry point; the traced run feeds a tracer to the
  // critical-path analyzer; the checked run attaches the invariant checker.
  const workload::ExperimentConfig& cfg = units.front();
  const workload::ExperimentResult& r = first.result;
  const workload::ExperimentResult reference = workload::run_experiment(cfg);
  checks.expect(fingerprint(reference) == fingerprint(r),
                "run_experiment reproduces the rebuilt run");
  obs::Tracer tracer(1u << 18);
  critpath::Analyzer analyzer;
  const UnitRun traced = run_unit(cfg, Probes{&tracer, &analyzer, nullptr},
                                  spans);
  checks.expect(fingerprint(traced.result) == fingerprint(r) &&
                    traced.events == first.events,
                "traced run reproduces the untraced run");
  check::InvariantChecker checker;
  const UnitRun checked = run_unit(cfg, Probes{nullptr, nullptr, &checker},
                                   spans);
  checks.expect(fingerprint(checked.result) == fingerprint(r),
                "checked run reproduces the untraced run");
  checks.expect(checker.ok(), "InvariantChecker ok()");
  if (!checker.ok()) std::cerr << checker.report();
  checks.expect(traced.dropped == 0, "obs.dropped == 0");
  checks.expect(analyzer.violations().empty(), "critpath.violations == 0");

  rep.put("sim.events_per_request", events / completed_all, "events/req");
  rep.put("sim.host_ns_per_event", run_s * 1e9 / events, "ns");
  rep.put("sim.run_s", median(runs), "s");
  rep.put("sim.goodput_rps", m.goodput_rps, "req/s");
  rep.put("core.setup_s", median(cores), "s");
  rep.put("workload.build_s", median(builds), "s");
  rep.put("workload.harvest_s", median(harvests), "s");
  put_layers(rep, first.layers);
  put_qos(rep, r);
  put_cluster_zeros(rep);
  put_critpath(rep, analyzer);
  rep.put("critpath.analyze_s", traced.analyze_s, "s");
  rep.put("obs.dropped", static_cast<double>(traced.dropped), "count");
  rep.put("obs.trace_overhead", traced.wall_s / median(walls0), "ratio");
  rep.put("check.overhead", checked.wall_s / median(walls0), "ratio");
  rep.put("check.violations",
          static_cast<double>(checker.violations().size() +
                              checker.stats().violations_dropped),
          "count");
  rep.put("failed_frac", 1.0 - m.served_frac(), "ratio");
}

// --- Cluster ladder ---------------------------------------------------------------------

struct LadderRun {
  std::vector<cluster::ClusterResult> rungs;
  std::vector<std::string> prints;  ///< fingerprint() of each rung.
  double construct_s = 0;  ///< ClusterSession constructor.
  double prepare_s = 0;    ///< ClusterSession::prepare.
  double setup_s = 0;      ///< SLOs, constructor and prepare.
  double ladder_s = 0;     ///< Host time in run_point over every rung.
  std::vector<double> rung_s;  ///< Host time in each run_point.
  std::vector<std::uint64_t> rung_events;  ///< Kernel events per rung.
  double analyze_s = 0;
  std::uint64_t events = 0;     ///< Kernel events over every rung.
  std::uint64_t completed = 0;  ///< Requests completed over every rung.
  std::uint64_t dropped = 0;
  LayerCounts top;  ///< Counters of every shard at the highest rung.
  std::vector<sim::TimePs> slos;
  std::string calendar;
  std::string chains;
};

std::uint64_t cluster_events(cluster::Datacenter& dc) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < dc.shards(); ++i) {
    n += dc.machine(i).sim().executed_events();
  }
  return n;
}

void drain_ring(obs::Tracer* tracer, critpath::Analyzer* analyzer,
                LadderRun& out, HostSpans& spans) {
  if (analyzer == nullptr) return;
  double s = 0;
  spans.time("critpath", "Analyzer::observe", [&] {
    tracer->for_each(
        [&](const obs::SpanEvent& ev) { analyzer->observe(ev); });
  }, &s);
  out.analyze_s += s;
  out.dropped += tracer->dropped();
  tracer->clear();
}

/** SLO set-up, session construction, prepare, then every rung forked from
 *  the one warm checkpoint. Observers attach to shard 0. */
LadderRun run_ladder(cluster::ClusterConfig cfg, const Probes& probes,
                     HostSpans& spans,
                     std::size_t rung_count = std::size(kRungs)) {
  LadderRun out;
  const int unit = spans.open("cluster", "ladder");
  const int setup = spans.open("cluster", "setup");
  spans.time("workload", "unloaded_latency",
             [&] { out.slos = slo_targets(cfg.experiment); });
  cfg.experiment.tracer = probes.tracer;
  cfg.experiment.checker = probes.checker;
  std::unique_ptr<cluster::ClusterSession> session;
  spans.time("cluster", "ClusterSession", [&] {
    session = std::make_unique<cluster::ClusterSession>(cfg);
  }, &out.construct_s);
  spans.time("cluster", "ClusterSession::prepare",
             [&] { session->prepare(); }, &out.prepare_s);
  out.setup_s = spans.close(setup);
  drain_ring(probes.tracer, probes.analyzer, out, spans);

  cluster::Datacenter& dc = session->datacenter();
  out.calendar = calendar_name(dc.machine(0).sim());
  out.chains = chains_name(cfg.experiment.engine);
  // Every rung restores the kernels to the fork point, event counters
  // included, so a rung's events are counted from there.
  const std::uint64_t fork_events = cluster_events(dc);
  const int ladder = spans.open("cluster", "run_point.ladder");
  double in_analyzer = out.analyze_s;
  for (std::size_t i = 0; i < rung_count; ++i) {
    double s = 0;
    spans.time("cluster", "ClusterSession::run_point", [&] {
      out.rungs.push_back(session->run_point(kRungs[i]));
    }, &s);
    out.rung_s.push_back(s);
    out.rung_events.push_back(cluster_events(dc) - fork_events);
    out.events += out.rung_events.back();
    out.completed += out.rungs.back().total_completed();
    out.prints.push_back(fingerprint(out.rungs.back()));
    drain_ring(probes.tracer, probes.analyzer, out, spans);
  }
  out.ladder_s = spans.close(ladder) - (out.analyze_s - in_analyzer);
  for (std::size_t i = 0; i < dc.shards(); ++i) {
    out.top.add(dc.machine(i), out.rungs.back().shards[i]);
  }
  if (probes.analyzer != nullptr) probes.analyzer->finish();
  spans.close(unit);
  return out;
}

/** Worst P99/SLO ratio over services at one rung (inf if one starved). */
double worst_slo_ratio(const Outcomes& rung, const std::vector<double>& slos) {
  double worst = 0.0;
  for (std::size_t s = 0; s < rung.services.size() && s < slos.size(); ++s) {
    if (rung.services[s].completed == 0) return INFINITY;
    worst = std::max(worst, static_cast<double>(
                                rung.services[s].latency.p99()) / slos[s]);
  }
  return worst;
}

/** Fig. 14: the highest rate factor at which every service meets its SLO,
 *  interpolated linearly in the worst P99/SLO ratio between rungs. */
double slo_max_load(const std::vector<Outcomes>& rungs,
                    const std::vector<double>& slos) {
  double prev_f = 0.0, prev_r = 0.0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const double r = worst_slo_ratio(rungs[i], slos);
    if (r > 1.0) {
      if (i == 0 || !std::isfinite(r)) return prev_f;
      return prev_f + (1.0 - prev_r) / (r - prev_r) * (kRungs[i] - prev_f);
    }
    prev_f = kRungs[i];
    prev_r = r;
  }
  return prev_f;
}

void run_cluster_workload(const std::vector<cluster::ClusterConfig>& units,
                          const Options& opt, Report& rep, Checks& checks,
                          HostSpans& spans) {
  // Timed phase: cycle through the sub-seed ladders until each ran once and
  // --seconds elapsed. A ladder's later passes must reproduce its first.
  const std::size_t n = units.size();
  std::vector<double> setups, speeds, rss, ladder0, rung0, top0, prepares,
      points;
  std::vector<LadderRun> firsts;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < n || seconds_between(start, Clock::now()) < opt.seconds; ++i) {
    const std::size_t k = i % n;
    reset_peak_rss();
    LadderRun l = run_ladder(units[k], Probes{}, spans);
    rss.push_back(peak_rss_mb());
    spans.next_rep();
    setups.push_back(l.setup_s);
    for (std::size_t r = 0; r < l.rungs.size(); ++r) {
      speeds.push_back(
          speed_reference().normalize(l.rung_events[r], l.rung_s[r]));
    }
    prepares.push_back(l.prepare_s);
    points.push_back(l.ladder_s / static_cast<double>(l.rungs.size()));
    rung0.push_back(l.rung_s.front());
    if (k == 0) top0.push_back(l.rung_s.back());
    if (k == 0) ladder0.push_back(l.ladder_s);
    if (i < n) {
      firsts.push_back(std::move(l));
    } else {
      checks.expect(l.prints == firsts[k].prints && l.slos == firsts[k].slos,
                    "ladder " + std::to_string(k) +
                        " reproduces its first pass");
    }
  }
  const LadderRun& first = firsts.front();
  const cluster::ClusterConfig& cfg = units.front();
  std::cerr << "perfbench: calendar=" << first.calendar << " chains="
            << first.chains << " checker=off threads=" << cfg.threads
            << " ladders=" << n << " reps=" << points.size() << "\n";
  checks.expect(first.calendar == "heap" && first.chains == "interpreted",
                "library defaults resolved to heap + interpreted");

  // Pool every rung over the ladders; the SLO is each service's mean.
  std::vector<Outcomes> rungs(std::size(kRungs));
  std::vector<double> slos(first.slos.size(), 0.0);
  Outcomes all;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      rungs[i].add(firsts[k].rungs[i], units[k].experiment.measure);
      all.add(firsts[k].rungs[i], units[k].experiment.measure);
    }
    for (std::size_t s = 0; s < slos.size(); ++s) {
      slos[s] += static_cast<double>(firsts[k].slos[s]) /
                 static_cast<double>(n);
    }
  }
  std::cerr << "perfbench: rung  p50_us  p99_us  worst_p99/slo  goodput_rps\n";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const SimMetrics r = sim_metrics(rungs[i]);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "perfbench: %4.2f %7.1f %7.1f %8.3f %12.0f\n", kRungs[i],
                  r.p50_us, r.p99_us, worst_slo_ratio(rungs[i], slos),
                  r.goodput_rps);
    std::cerr << line;
  }
  std::vector<SimMetrics> per_ladder;
  for (std::size_t k = 0; k < n; ++k) {
    Outcomes one;
    one.add(firsts[k].rungs[kLatencyRung], units[k].experiment.measure);
    per_ladder.push_back(sim_metrics(one));
  }
  SimMetrics m = sim_metrics(rungs[kLatencyRung]);
  take_unit_medians(m, per_ladder);
  check_sim_metrics(checks, m);
  const SimMetrics whole = sim_metrics(all);  // served_frac: every rung.
  m.completed = whole.completed;
  m.failed = whole.failed;
  rep.attempted = whole.completed;
  rep.failed = whole.failed;
  if (!opt.trace) {
    double events = 0, completed = 0;
    for (const LadderRun& l : firsts) {
      events += static_cast<double>(l.events);
      completed += static_cast<double>(l.completed);
    }
    put_end_to_end(rep, m, completed / events * host_speed(speeds),
                   median(setups), median(rss));
    return;
  }

  // Per-layer runs on the first ladder: its base rung traced on shard 0
  // (a forked rung does not depend on the rungs before it, and the ring
  // holds one base rung), the whole ladder checked, and the thread-scaling
  // probe: min(shards, nproc) threads must reproduce the highest rung
  // bit-for-bit after a machine checkpoint/restore round trip.
  obs::Tracer tracer(std::size_t{1} << 20);
  critpath::Analyzer analyzer;
  const LadderRun traced =
      run_ladder(cfg, Probes{&tracer, &analyzer, nullptr}, spans, 1);
  checks.expect(traced.prints.front() == first.prints.front(),
                "traced base rung reproduces the untraced one");
  check::InvariantChecker checker;
  const LadderRun checked =
      run_ladder(cfg, Probes{nullptr, nullptr, &checker}, spans);
  checks.expect(checked.prints == first.prints,
                "checked ladder reproduces the untraced ladder");
  checks.expect(checker.ok(), "InvariantChecker ok()");
  if (!checker.ok()) std::cerr << checker.report();
  checks.expect(traced.dropped == 0, "obs.dropped == 0");
  checks.expect(analyzer.violations().empty(), "critpath.violations == 0");

  cluster::ClusterConfig parallel = cfg;
  parallel.threads = static_cast<unsigned>(std::min<std::size_t>(
      cfg.shards, std::max(1u, std::thread::hardware_concurrency())));
  cluster::ClusterSession par(parallel);
  par.prepare();
  std::vector<double> ckpt_ms, restore_ms;
  core::Machine& m0 = par.datacenter().machine(0);
  for (int i = 0; i < 5; ++i) {
    core::Machine::Checkpoint cp;
    double s = 0;
    spans.time("core", "Machine::checkpoint", [&] { m0.checkpoint(cp); }, &s);
    ckpt_ms.push_back(s * 1e3);
    spans.time("core", "Machine::restore", [&] { m0.restore(cp); }, &s);
    restore_ms.push_back(s * 1e3);
  }
  double parallel_s = 0;
  cluster::ClusterResult parallel_top;
  spans.time("cluster", "ClusterSession::run_point.parallel", [&] {
    parallel_top = par.run_point(kRungs[std::size(kRungs) - 1]);
  }, &parallel_s);
  checks.expect(fingerprint(parallel_top) == first.prints.back(),
                std::to_string(parallel.threads) +
                    "-thread top rung reproduces the 1-thread one after a "
                    "machine checkpoint/restore");

  rep.put("sim.events_per_request",
          static_cast<double>(first.events) /
              static_cast<double>(first.completed),
          "events/req");
  rep.put("sim.host_ns_per_event",
          median(points) * static_cast<double>(first.rungs.size()) * 1e9 /
              static_cast<double>(first.events),
          "ns");
  rep.put("sim.run_s", median(points) * static_cast<double>(first.rungs.size()),
          "s");
  rep.put("sim.goodput_rps", sim_metrics(rungs.back()).goodput_rps, "req/s");
  // Core and harvest steps run inside the Datacenter constructor and
  // run_point; they are not separable from outside the cluster layer.
  rep.put("core.setup_s", 0.0, "s");
  rep.put("workload.harvest_s", 0.0, "s");
  rep.put("workload.build_s", first.construct_s, "s");
  put_layers(rep, first.top);
  put_qos(rep, first.rungs.back().shards.front());
  put_critpath(rep, analyzer);
  rep.put("critpath.analyze_s", traced.analyze_s, "s");
  rep.put("obs.dropped", static_cast<double>(traced.dropped), "count");
  rep.put("obs.trace_overhead", traced.rung_s.front() / median(rung0),
          "ratio");
  rep.put("check.overhead", checked.ladder_s / median(ladder0), "ratio");
  rep.put("check.violations",
          static_cast<double>(checker.violations().size() +
                              checker.stats().violations_dropped),
          "count");
  rep.put("failed_frac", 1.0 - whole.served_frac(), "ratio");
  rep.put("cluster.prepare_s", median(prepares), "s");
  rep.put("cluster.point_s", median(points), "s");
  rep.put("cluster.thread_speedup", median(top0) / parallel_s, "ratio");
  const cluster::ClusterResult& top = first.rungs.back();
  rep.put("cluster.remote_rpcs", static_cast<double>(top.remote_rpcs),
          "count");
  rep.put("cluster.net_messages", static_cast<double>(top.network.messages),
          "count");
  rep.put("cluster.slo_max_load", slo_max_load(rungs, slos), "x");
  rep.put("snapshot.checkpoint_ms", median(ckpt_ms), "ms");
  rep.put("snapshot.restore_ms", median(restore_ms), "ms");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return 2;
  for (const char* knob : kAmbientKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << knob
                << " set: it changes what is measured\n";
      return 2;
    }
  }
  const double scale = opt.smoke ? 0.1 : 1.0;
  Report rep;
  Checks checks;
  HostSpans spans;
  // Sub-seed k of seed s is s * n + k: disjoint across seeds.
  if (opt.workload == "social_alibaba" || opt.workload == "qos_antagonist") {
    const auto make = opt.workload == "social_alibaba" ? social_alibaba
                                                       : qos_antagonist;
    std::vector<workload::ExperimentConfig> units;
    for (std::size_t k = 0; k < kMachineUnits; ++k) {
      units.push_back(make(opt.seed * kMachineUnits + k, scale));
    }
    run_machine_workload(units, opt, rep, checks, spans);
  } else if (opt.workload == "cluster_ladder") {
    std::vector<cluster::ClusterConfig> units;
    for (std::size_t k = 0; k < kClusterUnits; ++k) {
      units.push_back(cluster_ladder(opt.seed * kClusterUnits + k, scale));
    }
    run_cluster_workload(units, opt, rep, checks, spans);
  } else {
    std::cerr << "perfbench: unknown workload '" << opt.workload
              << "' (social_alibaba, qos_antagonist, cluster_ladder)\n";
    return 2;
  }
  if (opt.trace && !opt.spans_path.empty()) spans.write_json(opt.spans_path);
  rep.print(checks.ok());
  return checks.ok() ? 0 : 1;
}
