#include "workload/request_engine.h"

#include <algorithm>
#include <cassert>

namespace accelflow::workload {

namespace {
/** Mixes values into a 64-bit seed (splitmix-style). */
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x;
}
}  // namespace

RequestEngine::RequestEngine(core::Machine& machine, core::Orchestrator& orch,
                             std::vector<Service*> services,
                             std::uint64_t seed)
    : machine_(machine),
      orch_(orch),
      services_(std::move(services)),
      seed_(seed) {
  s_.stats.resize(services_.size());
  s_.pool_next.assign(services_.size(), 0);
  pools_.resize(services_.size());
  for (std::size_t s = 0; s < services_.size(); ++s) {
    pools_[s].space = std::make_unique<mem::AddressSpace>(
        static_cast<std::uint32_t>(s + 1));
    // 32 rotating 64KB buffers per service (hot, reused: realistic
    // IOTLB locality).
    for (int i = 0; i < 32; ++i) {
      pools_[s].buffers.push_back(pools_[s].space->allocate(64 * 1024));
    }
  }

  // Wire up nested-RPC callees: a T9 chain of service A becomes a real
  // sub-request of one of A's configured callee services on this machine.
  for (std::size_t s = 0; s < services_.size(); ++s) {
    const auto& callee_names = services_[s]->spec().rpc_callees;
    if (callee_names.empty()) continue;
    std::vector<std::size_t> indices;
    for (const std::string& name : callee_names) {
      for (std::size_t t = 0; t < services_.size(); ++t) {
        if (services_[t]->name() == name) {
          indices.push_back(t);
          break;
        }
      }
    }
    if (indices.empty()) continue;
    const double rtt = services_[s]->spec().rpc_wire_rtt_us;
    services_[s]->set_nested_injector(
        [this, rtt](core::ChainContext&, std::size_t callee,
                    std::function<void(std::uint64_t)> deliver) {
          inject_internal(callee, rtt, std::move(deliver));
        },
        std::move(indices));
  }
}

mem::VirtAddr RequestEngine::buffer_for(std::size_t service,
                                        std::uint64_t /*bytes*/) {
  const std::vector<mem::VirtAddr>& buffers = pools_[service].buffers;
  std::size_t& next = s_.pool_next[service];
  const mem::VirtAddr va = buffers[next];
  next = (next + 1) % buffers.size();
  return va;
}

RequestEngine::ActiveRequest* RequestEngine::create_request(std::size_t s) {
  assert(s < services_.size());
  ActiveRequest* req = request_arena_.create();
  req->service = s;
  req->id = s_.next_id++;
  req->arrived = machine_.sim().now();
  req->rng.reseed(mix(mix(seed_, s), req->id));
  // The LdB accelerator's effect: the request handler lands on the
  // least-loaded core.
  req->core = machine_.cores().least_loaded();
  ++s_.stats[s].issued;
  active_[req->id] = req;
  return req;
}

void RequestEngine::inject(std::size_t s) { advance(create_request(s)); }

void RequestEngine::inject_internal(
    std::size_t s, double wire_rtt_us,
    std::function<void(std::uint64_t)> deliver) {
  ActiveRequest* req = create_request(s);
  req->on_complete = std::move(deliver);
  req->wire_rtt = sim::microseconds(wire_rtt_us);
  advance(req);
}

void RequestEngine::advance(ActiveRequest* r) {
  const Service& svc = *services_[r->service];
  if (r->stage >= svc.spec().stages.size()) {
    complete(r);
    return;
  }
  const StageSpec& stage = svc.spec().stages[r->stage];
  if (stage.kind == StageSpec::Kind::kCpu) {
    // Application-logic segment on the assigned core, scaled by the
    // modeled processor generation's single-thread speed.
    const double mean =
        static_cast<double>(svc.app_segment_mean(stage.cpu_weight)) /
        machine_.cores().params().app_speed;
    const auto duration = static_cast<sim::TimePs>(
        r->rng.lognormal_mean_cv(std::max(mean, 1.0), svc.spec().cost_cv));
    ++r->stage;
    machine_.cores().run_on(r->core, duration, [this, r] { advance(r); });
    return;
  }
  launch_chains(r, stage);
}

void RequestEngine::launch_chains(ActiveRequest* r, const StageSpec& stage) {
  Service& svc = *services_[r->service];
  const std::size_t stage_index = r->stage;
  ++r->stage;

  release_chains(r);
  int total = 0;
  for (const ChainGroup& g : stage.groups) total += g.count;
  r->pending_chains = total;
  assert(total > 0);

  std::uint32_t chain_no = 0;
  for (std::size_t g = 0; g < stage.groups.size(); ++g) {
    const ChainGroup& group = stage.groups[g];
    const core::AtmAddr addr = svc.group_addr(stage_index, g);
    for (int k = 0; k < group.count; ++k) {
      core::ChainContext* ctx = chain_arena_.create();
      ctx->request = r->id;
      ctx->chain = chain_no++;
      ctx->tenant = static_cast<accel::TenantId>(r->service);
      ctx->core = r->core;
      ctx->flags = group.flags.sample(r->rng);
      ctx->initial_bytes = std::clamp<std::uint64_t>(
          static_cast<std::uint64_t>(r->rng.lognormal_mean_cv(
              static_cast<double>(svc.spec().payload_median_bytes),
              svc.spec().payload_cv)),
          64, 256 * 1024);
      ctx->buffer_va = buffer_for(r->service, ctx->initial_bytes);
      ctx->env = &svc;
      ctx->rng.reseed(mix(mix(seed_ ^ 0xC4A1, r->id), ctx->chain));
      ctx->step_deadline_budget = r->service < s_.step_budgets.size()
                                      ? s_.step_budgets[r->service]
                                      : sim::kTimeNever;
      ctx->on_done = [this, r](const core::ChainResult& res) {
        if (!res.ok || res.timeout) r->failed = true;
        if (res.cpu_fallback) r->fell_back = true;
        if (res.faulted) r->faulted = true;
        if (--r->pending_chains == 0) advance(r);
      };
      r->chains.push_back(ctx);
      orch_.run_chain(ctx, addr);
    }
  }
}

void RequestEngine::complete(ActiveRequest* r) {
  ServiceStats& st = s_.stats[r->service];
  ++st.completed;
  if (r->failed) ++st.failed;
  if (r->fell_back) ++st.fallbacks;
  if (r->faulted) ++st.faulted;
  st.latency.record(machine_.sim().now() - r->arrived);
  if (admission_ != nullptr) {
    // SLO feedback (DESIGN.md §19): every completion — top-level or
    // nested — reports its latency to the shed hysteresis.
    admission_->record_latency(static_cast<accel::TenantId>(r->service),
                               machine_.sim().now() - r->arrived);
  }
  if (r->on_complete) {
    // Nested sub-request: hand the response back to the caller after the
    // wire round trip.
    const std::uint64_t resp = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(r->rng.lognormal_mean_cv(
            static_cast<double>(
                services_[r->service]->spec().payload_median_bytes),
            services_[r->service]->spec().payload_cv)),
        64, 256 * 1024);
    machine_.sim().schedule_after(
        r->wire_rtt,
        [cb = std::move(r->on_complete), resp] { cb(resp); });
  }
  release_chains(r);
  active_.erase(r->id);
  request_arena_.destroy(r);
}

void RequestEngine::release_chains(ActiveRequest* r) {
  for (core::ChainContext* c : r->chains) chain_arena_.destroy(c);
  r->chains.clear();
}

void RequestEngine::restore(const Checkpoint& c) {
  assert(c.stats.size() == s_.stats.size());
  s_ = c;
  // Any in-flight requests belong to the timeline being abandoned; their
  // calendar events are discarded by the simulator restore.
  active_.clear();
  chain_arena_.clear();
  request_arena_.clear();
}

void RequestEngine::reset_stats() {
  for (ServiceStats& s : s_.stats) {
    s.latency.reset();
    s.issued = 0;
    s.completed = 0;
    s.failed = 0;
    s.fallbacks = 0;
    s.faulted = 0;
  }
}

std::uint64_t RequestEngine::total_completed() const {
  std::uint64_t n = 0;
  for (const ServiceStats& s : s_.stats) n += s.completed;
  return n;
}

std::uint64_t RequestEngine::total_issued() const {
  std::uint64_t n = 0;
  for (const ServiceStats& s : s_.stats) n += s.issued;
  return n;
}

}  // namespace accelflow::workload
