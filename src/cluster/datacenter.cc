#include "cluster/datacenter.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "workload/deployment.h"
#include "workload/parallel_runner.h"

namespace accelflow::cluster {

namespace {
/** Mixes values into a 64-bit hash (splitmix-style finalizer): derives
 *  per-shard seeds from the experiment's without correlating streams. */
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}
}  // namespace

/** One cross-shard RPC hop, parked in the sender's outbox until the next
 *  window barrier merges it into the destination calendar. */
struct Datacenter::Message {
  enum Kind : std::uint8_t { kRequest, kReply };
  Kind kind = kRequest;
  std::uint32_t src = 0;      ///< Sending shard.
  std::uint32_t dst = 0;      ///< Receiving shard.
  sim::TimePs sent = 0;       ///< Simulated send time.
  std::uint64_t bytes = 0;    ///< Wire size (request or response payload).
  std::uint64_t rpc_id = 0;   ///< Matches a reply to its pending callback.
  std::size_t callee = 0;     ///< kRequest: target service index.
  obs::FlowId flow = 0;       ///< Caller chain (hop-span attribution).
};

/** One machine shard: its deployment plus the cluster-side RPC state. */
struct Datacenter::Shard {
  Shard(const workload::ExperimentConfig& config, sim::TimePs issue_until,
        sim::TimePs govern_until, std::optional<std::uint64_t> engine_seed)
      : dep(config, issue_until, govern_until, engine_seed) {}

  workload::Deployment dep;

  /** The cluster-side RPC state, copied whole into the fork checkpoint
   *  (`dep` holds the rest). */
  struct Rpc {
    /** Local vs remote decision stream for nested RPCs (shard-private,
     *  so draws happen race-free on the shard's own worker thread). */
    sim::Rng remote_rng{0};
    std::uint64_t next_id = 0;  ///< Outbound RPC id cursor.
  };
  Rpc rpc;
  Rpc fork_rpc;
  /** Messages sent this window, merged (and cleared) at the barrier. */
  std::vector<Message> outbox;
  /** In-flight outbound RPCs: id -> continuation fired by the reply. */
  std::unordered_map<std::uint64_t, std::function<void(std::uint64_t)>>
      pending;
  std::uint64_t remote_sent = 0;  ///< Nested calls that went remote (ever).

  // Measurement baselines captured by reset_stats() so harvest() reports
  // the measured window only (generators have no reset of their own).
  std::uint64_t admitted_base = 0;
  std::uint64_t generated_base = 0;
  std::uint64_t remote_base = 0;
};

/**
 * Persistent window workers. Windows are short (one lookahead of simulated
 * time), so thread-per-window would drown in spawn cost; instead helpers
 * park in a spin-then-yield wait on a generation counter and claim shards
 * from a shared cursor each time the coordinator opens a window. The
 * coordinator participates too, and completion is detected by counting
 * finished *shards* (not workers), which makes stragglers from a previous
 * generation harmless: at worst they claim work of the new one.
 */
class Datacenter::ShardPool {
 public:
  ShardPool(std::size_t shards, unsigned threads) : shards_(shards) {
    const unsigned helpers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(helpers);
    for (unsigned w = 0; w < helpers; ++w) {
      workers_.emplace_back([this] { helper_loop(); });
    }
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  ~ShardPool() {
    quit_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : workers_) t.join();
  }

  /** Runs fn(shard) for every shard; returns when all completed. */
  void run(const std::function<void(std::size_t)>& fn) {
    // Order matters: job before next (its release-store publishes the
    // pointer to any straggler that claims early), generation last.
    job_.store(&fn, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    claim();
    while (completed_.load(std::memory_order_acquire) < shards_) {
      std::this_thread::yield();
    }
    if (error_ != nullptr) {
      std::exception_ptr e = std::exchange(error_, nullptr);
      std::rethrow_exception(e);
    }
  }

 private:
  void claim() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_acq_rel);
      if (i >= shards_) break;
      const auto* fn = job_.load(std::memory_order_relaxed);
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
      completed_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  void helper_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t gen = generation_.load(std::memory_order_acquire);
      unsigned spins = 0;
      while (gen == seen) {
        // Hot runs reopen windows within microseconds: yield first, and
        // only drop to a sleep when the pool has clearly gone idle.
        if (++spins < 4096) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        gen = generation_.load(std::memory_order_acquire);
      }
      seen = gen;
      if (quit_.load(std::memory_order_acquire)) return;
      claim();
    }
  }

  std::size_t shards_;
  std::atomic<const std::function<void(std::size_t)>*> job_{nullptr};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<bool> quit_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
  std::vector<std::thread> workers_;
};

namespace {
/** `config`, once its shard count and remote fraction are usable. */
const ClusterConfig& checked(const ClusterConfig& config) {
  if (config.shards == 0) {
    throw std::invalid_argument("ClusterConfig::shards must be >= 1");
  }
  const double f = config.remote_rpc_fraction;
  if (!(std::isfinite(f) && f >= 0.0 && f <= 1.0)) {
    throw std::invalid_argument(
        "ClusterConfig::remote_rpc_fraction must be finite and in [0, 1], "
        "got " + std::to_string(f));
  }
  return config;
}
}  // namespace

Datacenter::Datacenter(const ClusterConfig& config, bool fork_mode)
    : config_(checked(config)), fork_mode_(fork_mode) {
  const workload::ExperimentConfig& e = config_.experiment;

  balancer_ = std::make_unique<Balancer>(config_.policy, config_.shards,
                                         mix(e.seed, 0xB417CE));
  rack_ = std::make_unique<RackNetwork>(config_.rack, config_.shards);

  // Fork mode cuts the replicated streams and the governor at warmup so
  // prepare() can drain to quiescence; run_point() revives them per point.
  const sim::TimePs issue_until =
      fork_mode_ ? e.warmup : e.warmup + e.measure;
  const sim::TimePs govern_until =
      fork_mode_ ? e.warmup : e.warmup + e.measure + e.drain;

  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    // Shard 0 is exactly run_experiment()'s deployment — unperturbed
    // seeds, the config's observers — which is what makes the 1-shard
    // Datacenter byte-identical to the bare harness (the conformance
    // oracle). Shards beyond 0 derive decorrelated machine, engine and
    // fault seeds; the tracer, checker and metrics are single-simulation
    // observers, so they attach to shard 0 only (under AF_CHECK every
    // shard audits itself with an internal checker). Generator seeds are
    // *identical* on every shard: all shards agree on the replicated
    // arrival calendar and the router alone decides ownership (see
    // workload::ArrivalRouter).
    workload::ExperimentConfig shard_config = e;
    std::optional<std::uint64_t> engine_seed;
    if (i > 0) {
      shard_config.tracer = nullptr;
      shard_config.checker = nullptr;
      shard_config.metrics = nullptr;
      shard_config.machine.seed = mix(e.machine.seed, 0x5AD0 + i);
      shard_config.faults = workload::resolve_fault_plan(e);
      shard_config.faults.seed = mix(shard_config.faults.seed, 0xFA010 + i);
      engine_seed = mix(e.seed, 0xE191E + i);
    }
    auto sh = std::make_unique<Shard>(shard_config, issue_until,
                                      govern_until, engine_seed);

    if (config_.shards > 1) {
      for (auto& g : sh->dep.generators()) g->set_router(balancer_.get(), i);
      // Re-route a slice of nested RPCs across the rack: replace the
      // RequestEngine's machine-local injector with one that draws a
      // local/remote decision per call. Same callee universe.
      if (config_.remote_rpc_fraction > 0.0) {
        for (auto& svc : sh->dep.services()) {
          if (svc->callee_indices().empty()) continue;
          const double rtt = svc->spec().rpc_wire_rtt_us;
          std::vector<std::size_t> callees = svc->callee_indices();
          svc->set_nested_injector(
              [this, i, rtt](core::ChainContext& ctx, std::size_t callee,
                             std::function<void(std::uint64_t)> deliver) {
                route_nested(i, rtt, ctx, callee, std::move(deliver));
              },
              std::move(callees));
        }
      }
      sh->rpc.remote_rng = sim::Rng(mix(e.seed, 0x2E30 + i));
    }

    shards_.push_back(std::move(sh));
  }

  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::min<unsigned>(
                       static_cast<unsigned>(config_.shards),
                       workload::ParallelRunner::default_threads());
  if (threads_ < 1) threads_ = 1;
  if (config_.shards > 1 && threads_ > 1) {
    pool_ = std::make_unique<ShardPool>(config_.shards, threads_);
  }
}

Datacenter::~Datacenter() = default;

std::size_t Datacenter::shards() const { return shards_.size(); }

core::Machine& Datacenter::machine(std::size_t shard) {
  return shards_[shard]->dep.machine();
}

workload::RequestEngine& Datacenter::engine(std::size_t shard) {
  return shards_[shard]->dep.engine();
}

bool Datacenter::prepared() const {
  return shards_[0]->dep.has_checkpoint();
}

void Datacenter::run_window(sim::TimePs horizon) {
  const std::function<void(std::size_t)> advance = [this,
                                                    horizon](std::size_t i) {
    shards_[i]->dep.machine().sim().run_until(horizon);
  };
  if (pool_ != nullptr) {
    pool_->run(advance);
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) advance(i);
  }
}

void Datacenter::barrier_sync() {
  // Merge outboxes in (shard, push) order — a fixed total order, so the
  // rack's latency/fault draws and the destination calendar insertions
  // are identical for every thread count.
  for (auto& sh : shards_) {
    for (const Message& m : sh->outbox) deliver_message(m);
    sh->outbox.clear();
  }
  // Refresh the JSQ snapshot once per window: the bounded staleness a
  // real balancer's load-report loop has, and the only balancer state
  // route() reads — updated here, between windows, never during one.
  std::vector<std::uint64_t> load(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    load[i] = shards_[i]->dep.engine().in_flight();
  }
  balancer_->update_load(std::move(load));
}

void Datacenter::deliver_message(const Message& m) {
  const sim::TimePs latency = rack_->hop_latency(m.src, m.dst, m.bytes);
  const sim::TimePs arrival = m.sent + latency;
  // The hop span lands on the tracer of the shard owning the caller's
  // flow (requests go out from it, replies come home to it); only shards
  // with a tracer attached record anything. tid = the far shard, so each
  // peer gets its own track under the net process.
  Shard& flow_owner = *shards_[m.kind == Message::kRequest ? m.src : m.dst];
  if (obs::Tracer* tr = flow_owner.dep.machine().tracer()) {
    const std::uint32_t far =
        m.kind == Message::kRequest ? m.dst : m.src;
    tr->complete(obs::Subsys::kNet, obs::SpanKind::kNetHop, far, m.sent,
                 arrival, m.bytes, m.flow);
  }
  Shard& dst = *shards_[m.dst];
  assert(arrival >= dst.dep.machine().sim().now() &&
         "lookahead violation: message arrives inside a computed window");
  if (m.kind == Message::kRequest) {
    const std::size_t dst_idx = m.dst;
    const std::uint32_t src_idx = m.src;
    const std::uint64_t rpc_id = m.rpc_id;
    const std::size_t callee = m.callee;
    const obs::FlowId flow = m.flow;
    dst.dep.machine().sim().schedule_at(
        arrival, [this, dst_idx, src_idx, rpc_id, callee, flow] {
          // Serve the sub-request locally on the destination shard; its
          // completion posts the reply hop back through the outbox.
          shards_[dst_idx]->dep.engine().inject_internal(
              callee, 0.0,
              [this, dst_idx, src_idx, rpc_id,
               flow](std::uint64_t resp_bytes) {
                Shard& d = *shards_[dst_idx];
                Message reply;
                reply.kind = Message::kReply;
                reply.src = static_cast<std::uint32_t>(dst_idx);
                reply.dst = src_idx;
                reply.sent = d.dep.machine().sim().now();
                reply.bytes = resp_bytes;
                reply.rpc_id = rpc_id;
                reply.flow = flow;
                d.outbox.push_back(reply);
              });
        });
  } else {
    const std::size_t dst_idx = m.dst;
    const std::uint64_t rpc_id = m.rpc_id;
    const std::uint64_t resp_bytes = m.bytes;
    dst.dep.machine().sim().schedule_at(
        arrival, [this, dst_idx, rpc_id, resp_bytes] {
          Shard& d = *shards_[dst_idx];
          auto it = d.pending.find(rpc_id);
          assert(it != d.pending.end() && "reply for unknown RPC");
          auto deliver = std::move(it->second);
          d.pending.erase(it);
          deliver(resp_bytes);
        });
  }
}

void Datacenter::route_nested(std::size_t src, double rtt_us,
                              core::ChainContext& ctx, std::size_t callee,
                              std::function<void(std::uint64_t)> deliver) {
  Shard& sh = *shards_[src];
  const bool remote = shards_.size() > 1 &&
                      sh.rpc.remote_rng.bernoulli(config_.remote_rpc_fraction);
  if (!remote) {
    // The machine-local path the RequestEngine would have taken.
    sh.dep.engine().inject_internal(callee, rtt_us, std::move(deliver));
    return;
  }
  // Uniform choice among the other shards; both draws come from the
  // shard-private stream, so this runs race-free on the shard's thread.
  const std::size_t other =
      sh.rpc.remote_rng.next_below(shards_.size() - 1);
  const std::size_t dst = other >= src ? other + 1 : other;
  const std::uint64_t rpc_id =
      (static_cast<std::uint64_t>(src) << 48) | sh.rpc.next_id++;
  sh.pending.emplace(rpc_id, std::move(deliver));
  ++sh.remote_sent;
  Message m;
  m.kind = Message::kRequest;
  m.src = static_cast<std::uint32_t>(src);
  m.dst = static_cast<std::uint32_t>(dst);
  m.sent = sh.dep.machine().sim().now();
  m.bytes = rack_->params().request_bytes;
  m.rpc_id = rpc_id;
  m.callee = callee;
  m.flow = obs::flow_id(ctx.request, ctx.chain);
  sh.outbox.push_back(std::move(m));
}

void Datacenter::advance_to(sim::TimePs target) {
  if (shards_.size() == 1) {
    // One shard has nobody to talk to: no windows, no barriers — the
    // exact run_until() call run_experiment() makes (conformance).
    shards_[0]->dep.machine().sim().run_until(target);
    now_ = target;
    return;
  }
  const sim::TimePs lookahead = rack_->lookahead();
  while (now_ < target) {
    sim::TimePs horizon = std::min<sim::TimePs>(target, now_ + lookahead);
    // Next-event probe: with every outbox empty nothing is on the wire,
    // so a window no shard has a calendar entry in would run and merge
    // nothing — hop straight to the window holding the earliest pending
    // event (or to the target). Causally safe and deterministic for the
    // same reason as drain_quiescent()'s hop, and cheap: next_event_time()
    // reads the heap root. The skipped barriers were no-ops — no messages
    // to merge, and a JSQ refresh with in-flight counts nothing changed.
    bool wire = false;
    sim::TimePs next = sim::Simulator::kNoEvent;
    for (const auto& sh : shards_) {
      wire = wire || !sh->outbox.empty();
      next = std::min(next, sh->dep.machine().sim().next_event_time());
    }
    if (!wire && next > horizon) {
      now_ = std::min(target, next);
      horizon = std::min<sim::TimePs>(target, now_ + lookahead);
      // Still run the (possibly empty, possibly final) window below so
      // every shard's clock lands on the horizon.
    }
    run_window(horizon);
    barrier_sync();
    now_ = horizon;
  }
}

bool Datacenter::quiescent() const {
  for (const auto& sh : shards_) {
    if (sh->dep.machine().sim().pending_events() != 0) return false;
    if (!sh->outbox.empty() || !sh->pending.empty()) return false;
  }
  return true;
}

void Datacenter::drain_quiescent() {
  if (shards_.size() == 1) {
    // Drain exactly as SweepSession does: run to an empty calendar.
    shards_[0]->dep.machine().sim().run();
    now_ = shards_[0]->dep.machine().sim().now();
    return;
  }
  const sim::TimePs lookahead = rack_->lookahead();
  std::uint64_t guard = 0;
  while (!quiescent()) {
    // Fast-forward idle gaps (e.g. a fault-retry backoff timer seconds
    // out): with every outbox empty nothing is on the wire, so the next
    // global event is the earliest calendar entry and hopping straight
    // to it is causally safe — and deterministic, since the hop depends
    // only on simulated state.
    bool wire = false;
    sim::TimePs next = sim::Simulator::kNoEvent;
    for (const auto& sh : shards_) {
      wire = wire || !sh->outbox.empty();
      next = std::min(next, sh->dep.machine().sim().next_event_time());
    }
    if (!wire && next != sim::Simulator::kNoEvent && next > now_) {
      now_ = next;
    }
    advance_to(now_ + lookahead);
    ++guard;
    assert(guard < (1ull << 32) && "cluster does not quiesce");
  }
}

void Datacenter::reset_stats() {
  for (auto& sh : shards_) {
    sh->dep.reset_stats();
    std::uint64_t admitted = 0;
    std::uint64_t generated = 0;
    for (const auto& g : sh->dep.generators()) {
      admitted += g->admitted();
      generated += g->generated();
    }
    sh->admitted_base = admitted;
    sh->generated_base = generated;
    sh->remote_base = sh->remote_sent;
  }
  rack_->reset_stats();
}

ClusterResult Datacenter::run() {
  assert(!fork_mode_ && "run() is the straight-through protocol");
  assert(!ran_ && "run() already called");
  ran_ = true;
  const workload::ExperimentConfig& e = config_.experiment;
  // Warmup, reset the recorders, then measure + drain: run_experiment()'s
  // protocol applied cluster-wide.
  advance_to(e.warmup);
  reset_stats();
  advance_to(e.warmup + e.measure + e.drain);
  if (config_.drain_to_quiescence) {
    // Soak protocol: past the nominal horizon, keep opening windows until
    // every calendar, outbox and pending-RPC map is empty, so "zero lost
    // chains" is decidable — a fixed horizon can strand a fault-retried
    // chain (or its reply) in the final lookahead window.
    drain_quiescent();
  }
  ClusterResult out = harvest();
  // The critical-path audit covers the network category's hop spans too.
  workload::audit_critical_path(e.tracer);
  return out;
}

void Datacenter::prepare() {
  assert(fork_mode_ && "prepare() requires fork mode");
  assert(!prepared() && "prepare() already called");
  advance_to(config_.experiment.warmup);
  // Drain to *global* quiescence: keep opening windows until every
  // calendar, outbox and pending-RPC map is empty. Window boundaries
  // depend only on simulated state, so the fork time is deterministic.
  drain_quiescent();
  t_fork_ = now_;

  fork_rack_ = rack_->checkpoint();
  for (auto& sh : shards_) {
    sh->dep.checkpoint();
    sh->fork_rpc = sh->rpc;
  }
}

ClusterResult Datacenter::run_point(double rate_factor) {
  assert(prepared() && "call prepare() before run_point()");
  rack_->restore(fork_rack_);
  for (auto& sh : shards_) {
    sh->dep.restore();
    sh->rpc = sh->fork_rpc;
    sh->outbox.clear();
    sh->pending.clear();
  }
  now_ = t_fork_;

  reset_stats();
  const workload::ExperimentConfig& e = config_.experiment;
  const sim::TimePs issue_until = t_fork_ + e.measure;
  for (auto& sh : shards_) {
    sh->dep.resume(rate_factor, issue_until, issue_until + e.drain);
  }
  advance_to(issue_until + e.drain);
  ClusterResult out = harvest();
  return out;
}

ClusterResult Datacenter::harvest() {
  ClusterResult out;
  out.shards.reserve(shards_.size());
  out.admitted.reserve(shards_.size());
  std::uint64_t decisions = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    out.shards.push_back(sh.dep.harvest());
    std::uint64_t admitted = 0;
    std::uint64_t generated = 0;
    for (const auto& g : sh.dep.generators()) {
      admitted += g->admitted();
      generated += g->generated();
    }
    out.admitted.push_back(admitted - sh.admitted_base);
    // The streams are replicated, so shard 0's arrival count is *the*
    // cluster arrival count: each arrival is one routing decision.
    if (i == 0) decisions = generated - sh.generated_base;
    out.remote_rpcs += sh.remote_sent - sh.remote_base;
  }
  out.network = rack_->stats();
  if (shards_.size() > 1) {
    out.balancer_decisions = decisions;
    out.balancer_busy =
        static_cast<sim::TimePs>(decisions) * Balancer::decision_cost_ps();
  }
  out.elapsed = shards_[0]->dep.machine().sim().now();
  return out;
}

}  // namespace accelflow::cluster
