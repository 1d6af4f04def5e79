#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "core/require.h"

namespace accelflow::core {

using accel::AccelType;
using accel::kInlineDataBytes;
using accel::QueueEntry;
using accel::SlotId;

namespace {
/** Header bytes moved with every queue-entry DMA (trace + metadata). */
constexpr std::uint64_t kEntryHeaderBytes = 64;

std::uint64_t entry_dma_bytes(const QueueEntry& e) {
  return std::min<std::uint64_t>(e.payload.size_bytes, kInlineDataBytes) +
         kEntryHeaderBytes;
}

/** A network response of `bytes` landed for the receive entry `e`, whose
 *  next op runs on `at`: attach the payload and sample that op's cost. */
void land_response(QueueEntry& e, AccelType at, std::uint64_t bytes) {
  ChainContext& ctx = *e.ctx;
  e.payload.size_bytes = bytes;
  e.cpu_cost = ctx.env->op_cpu_cost(ctx, at, bytes);
}

/** Grow-on-demand slot of a per-tenant counter vector (EngineStats). */
std::uint64_t& tenant_count(std::vector<std::uint64_t>& v,
                            accel::TenantId tenant) {
  if (tenant >= v.size()) v.resize(static_cast<std::size_t>(tenant) + 1, 0);
  return v[tenant];
}
}  // namespace

AccelFlowEngine::AccelFlowEngine(Machine& machine, const TraceLibrary& lib,
                                 const EngineConfig& config,
                                 std::string_view name)
    : name_(name),
      machine_(machine),
      lib_(lib),
      config_(config),
      mba_(machine.sim(), config.mba) {
  // Every one of these is cast into picoseconds; the DTE rate divides.
  require_positive(config_.dte_gbps, "dte_gbps");
  require_non_negative(config_.response_timeout_ms, "response_timeout_ms");
  require_non_negative(config_.enqueue_retry_delay_ns,
                       "enqueue_retry_delay_ns");
  // Instruction counts become dispatcher and manager times.
  require_non_negative(config_.base_instrs, "base_instrs");
  require_non_negative(config_.branch_instrs, "branch_instrs");
  require_non_negative(config_.eot_atm_instrs, "eot_atm_instrs");
  require_non_negative(config_.eot_notify_instrs, "eot_notify_instrs");
  require_non_negative(config_.transform_instrs, "transform_instrs");
  require_non_negative(config_.manager_fallback_events,
                       "manager_fallback_events");
  const ResilienceConfig& r = config_.resilience;
  require_non_negative(r.hop_timeout_us, "resilience.hop_timeout_us");
  require_non_negative(r.backoff_base_us, "resilience.backoff_base_us");
  require_positive(r.backoff_factor, "resilience.backoff_factor");
  require_non_negative(r.quarantine_us, "resilience.quarantine_us");
  machine_.load_traces(lib_);
  machine_.install_output_handler(this);
}

AccelFlowEngine::~AccelFlowEngine() = default;

AccelFlowEngine::Checkpoint AccelFlowEngine::checkpoint() const {
  Checkpoint c;
  static_cast<State&>(c) = s_;
  c.mba = mba_.checkpoint();
  c.parked = parked_.checkpoint();
  return c;
}

std::unique_ptr<OrchCheckpoint> AccelFlowEngine::save_checkpoint() const {
  return std::make_unique<Checkpoint>(checkpoint());
}

void AccelFlowEngine::restore_checkpoint(const OrchCheckpoint& c) {
  const auto* ck = dynamic_cast<const Checkpoint*>(&c);
  assert(ck != nullptr && "checkpoint from a different orchestrator");
  restore(*ck);
}

sim::TimePs AccelFlowEngine::instr_time(double instrs) const {
  // Dispatcher FSMs execute ~1 RISC instruction per cycle at the package
  // clock (Section VII-B.2).
  return sim::Clock(machine_.config().cpu.clock_ghz).cycles_to_ps(instrs);
}

std::uint32_t AccelFlowEngine::tenant_active(accel::TenantId tenant) const {
  return tenant < s_.tenant_active.size() ? s_.tenant_active[tenant] : 0;
}

void AccelFlowEngine::start_chain(ChainContext* ctx, AtmAddr first) {
  // Per-tenant trace throttling (Section IV-D): over-threshold starts wait
  // until one of the tenant's traces retires. The QosPolicy per-tenant
  // cap (DESIGN.md §19) composes with the global knob: the tighter of the
  // two binds.
  auto& active = tenant_slot(ctx->tenant);
  const qos::TenantSlo& slo = config_.qos.tenant(ctx->tenant);
  const std::uint32_t cap =
      std::min(config_.tenant_max_active, slo.max_active_chains);
  if (active >= cap) {
    ++s_.stats.tenant_throttled;
    if (active < config_.tenant_max_active) ++s_.stats.quota_throttled;
    s_.throttled.push_back(PendingStart{ctx, first});
    return;
  }
  ++active;
  // The SLO class's scheduling priority floors the caller-provided one,
  // so a latency-sensitive tenant's entries win SchedPolicy::kPriority
  // picks without every injector knowing about the policy.
  if (slo.priority > ctx->priority) ctx->priority = slo.priority;
  ++s_.stats.chains_started;
  if (ValidationHooks* c = chk()) c->on_chain_start(*ctx, first);

  const Trace& tr = lib_.get(first);
  const TraceOp op0 = decode_op(tr.word, 0);
  assert(op0.kind == TraceOp::Kind::kInvoke &&
         "a chain must start by invoking an accelerator");

  // Graceful degradation (DESIGN.md §14): while the first accelerator is
  // quarantined, the whole chain starts on the CPU instead.
  if (reroute_unhealthy(ctx, op0.accel)) {
    continue_chain_on_cpu(ctx, tr.word, op0.next_pm, ctx->initial_bytes,
                          op0.accel);
    return;
  }

  QueueEntry e = make_queue_entry(*ctx, op0.accel, tr.word, op0.next_pm,
                                  ctx->initial_bytes);
  stamp_deadline(e);

  // The user-mode Enqueue instruction plus A-DMA programming.
  machine_.cores().charge_enqueue(ctx->core);
  if (obs::Tracer* t = trc()) {
    // The chain's flow begins on the enqueue slice of the initiating core.
    const obs::FlowId flow = obs::flow_id(ctx->request, ctx->chain);
    const sim::TimePs now = machine_.sim().now();
    const auto tid = static_cast<std::uint32_t>(ctx->core);
    t->complete(obs::Subsys::kEngine, obs::SpanKind::kEnqueue, tid, now, now,
                e.payload.size_bytes, flow);
    t->flow(obs::Phase::kFlowBegin, obs::Subsys::kEngine, tid, now, flow);
  }
  enqueue_with_retry(ctx, std::move(e), op0.accel, 0);
}

void AccelFlowEngine::enqueue_with_retry(ChainContext* ctx, QueueEntry entry,
                                         AccelType target, int attempt) {
  accel::Accelerator& dst = machine_.accel(target);
  if (attempt == 0) ++s_.stats.attempts_by_type[accel::index_of(target)];
  const SlotId slot = dst.try_enqueue(entry);
  if (slot == accel::kInvalidSlot) {
    if (attempt + 1 >= config_.enqueue_retries) {
      // Starvation freedom: after several failed attempts the trace
      // executes on the core instead.
      ++s_.stats.enqueue_fallbacks;
      ++s_.stats.fallbacks_by_type[accel::index_of(target)];
      continue_chain_on_cpu(ctx, entry.trace_word, entry.position_mark,
                            entry.payload.size_bytes, target);
      return;
    }
    const auto parked = parked_.park(std::move(entry));
    machine_.sim().schedule_after(
        sim::nanoseconds(config_.enqueue_retry_delay_ns),
        [this, ctx, parked, target, attempt] {
          machine_.cores().charge_enqueue(ctx->core);
          enqueue_with_retry(ctx, parked_.take(parked), target, attempt + 1);
        });
    return;
  }

  // A-DMA collects the payload coherently and deposits it in the entry.
  sim::TimePs arrive = machine_.sim().now();
  if (!config_.zero_overhead) {
    const std::uint64_t bytes = entry_dma_bytes(dst.input_entry(slot));
    arrive = machine_.dma().transfer(machine_.core_location(ctx->core),
                                     dst.location(), bytes,
                                     mba_.acquire(ctx->tenant, bytes),
                                     entry.flow);
    if (ValidationHooks* c = chk()) c->on_dma(bytes, arrive);
  }
  arm_hop(entry, target, arrive);
  dst.schedule_deliver(arrive, slot);
}

void AccelFlowEngine::run_dispatcher_fsm(accel::Accelerator& acc,
                                         SlotId slot) {
  QueueEntry e = acc.output_entry(slot);  // The A-DMA moves a copy onward.
  ChainContext* ctx = e.ctx;
  assert(ctx != nullptr);
  if (resilience_active()) {
    // The hop produced output: stand the watchdog down (the next hand-off
    // re-arms it) and credit the accelerator's health.
    disarm_hop(ctx);
    record_hop_success(acc.type());
  }
  ++ctx->accel_invocations;
  const obs::FlowId flow = e.flow;
  if (ValidationHooks* c = chk()) {
    // The stage that just finished on `acc`, with its pre-transform size.
    c->on_stage(*ctx, acc.type(), e.payload.size_bytes, /*on_cpu=*/false);
  }

  // The PE's result replaces the payload.
  e.payload.size_bytes =
      ctx->env->transformed_size(acc.type(), e.payload.size_bytes);

  const bool zero = config_.zero_overhead;
  double instrs = zero ? 0.0 : config_.base_instrs;
  sim::TimePs fsm_extra = 0;  // DTE occupancy.
  sim::TimePs ready = machine_.sim().now();
  std::uint64_t word = e.trace_word;
  std::uint8_t pm = e.position_mark;
  bool saw_branch = false, saw_transform = false, saw_eot = false;

  // Every exit: account the glue, run the FSM for it, and release the
  // output slot when the entry launches onward. Returns the launch time.
  auto exit_step = [&] {
    if (!zero) {
      s_.stats.glue_instrs.add(instrs);
      s_.stats.glue_branch_ops += saw_branch;
      s_.stats.glue_transform_ops += saw_transform;
      s_.stats.glue_eot_ops += saw_eot;
    }
    const sim::TimePs fsm_done =
        zero ? ready
             : acc.occupy_dispatcher(instr_time(instrs) + fsm_extra, flow);
    const sim::TimePs launch = std::max(ready, fsm_done);
    acc.release_output_at(launch, slot);
    return launch;
  };
  // Branch resolution: in the dispatcher, or a manager round trip
  // (Fig. 13 "Direct").
  auto branch_step = [&] {
    ++ctx->branches;
    saw_branch = true;
    if (config_.dispatcher_branches || zero) {
      if (!zero) instrs += config_.branch_instrs;
    } else {
      ready = manager_round_trip(acc, ready, flow);
    }
  };
  auto atm_fetch = [&](AtmAddr addr) {
    ++s_.stats.atm_loads;
    word = machine_.atm().load(addr).word;
    pm = 0;
    if (!zero) {
      ready += machine_.atm().read_latency() +
               machine_.net().zero_load_latency(machine_.atm().location(),
                                                acc.location(), 8);
    }
  };

  for (;;) {
    const TraceOp op = decode_op(word, pm);
    switch (op.kind) {
      case TraceOp::Kind::kInvoke: {
        e.trace_word = word;
        e.position_mark = op.next_pm;
        e.cpu_cost =
            ctx->env->op_cpu_cost(*ctx, op.accel, e.payload.size_bytes);
        forward(acc, std::move(e), op.accel, exit_step(),
                /*armed_wait=*/false, RemoteKind::kNone);
        return;
      }
      case TraceOp::Kind::kBranchSkip:
        branch_step();
        pm = op.next_pm;
        if (!eval_condition(op.cond, ctx->flags)) pm += op.skip;
        break;
      case TraceOp::Kind::kBranchAtm:
        branch_step();
        if (eval_condition(op.cond, ctx->flags)) {
          pm = op.next_pm;
        } else {
          atm_fetch(op.atm);
        }
        break;
      case TraceOp::Kind::kTransform: {
        ++ctx->transforms;
        saw_transform = true;
        if (config_.dispatcher_transforms || zero) {
          if (!zero) {
            // Bulk loads/stores per 2KB block, bounded: the DTE streams
            // large payloads (Section VII-B.2's worst case is ~50).
            instrs += config_.transform_instrs *
                      std::clamp(static_cast<double>(e.payload.size_bytes) /
                                     static_cast<double>(kInlineDataBytes),
                                 1.0, 2.5);
            fsm_extra += static_cast<sim::TimePs>(
                static_cast<double>(e.payload.size_bytes) /
                (config_.dte_gbps * 1e9) * 1e12);
          }
        } else {
          // CntrFlow ablation: the manager performs the transformation,
          // which also round-trips the payload.
          ready = manager_round_trip(acc, ready, flow);
          ready = machine_.net().transfer(acc.location(),
                                          machine_.manager_location(),
                                          e.payload.size_bytes, ready, flow);
          ready = machine_.net().transfer(machine_.manager_location(),
                                          acc.location(),
                                          e.payload.size_bytes, ready, flow);
        }
        pm = op.next_pm;
        break;
      }
      case TraceOp::Kind::kNotifyCont: {
        ++ctx->mid_notifies;
        ++s_.stats.notifications;
        const int core = ctx->core;
        machine_.sim().schedule_at(
            ready, [this, core] { machine_.cores().notify(core); });
        pm = op.next_pm;
        break;
      }
      case TraceOp::Kind::kTail: {
        saw_eot = true;
        if (!zero) instrs += config_.eot_atm_instrs;
        const RemoteKind kind = lib_.remote_of(op.atm);
        atm_fetch(op.atm);
        if (kind == RemoteKind::kNone) break;  // Chain immediately.

        // The loaded trace waits for a network response: deposit it in the
        // input queue of its first accelerator (the same TCP in all of
        // Table II's traces) as a non-ready entry.
        const TraceOp first = decode_op(word, 0);
        assert(first.kind == TraceOp::Kind::kInvoke);
        e.trace_word = word;
        e.position_mark = first.next_pm;
        forward(acc, std::move(e), first.accel, exit_step(),
                /*armed_wait=*/true, kind);
        return;
      }
      case TraceOp::Kind::kEndNotify:
        saw_eot = true;
        if (!zero) instrs += config_.eot_notify_instrs;
        finish_to_cpu(acc, std::move(e), exit_step());
        return;
    }
  }
}

void AccelFlowEngine::forward(accel::Accelerator& from, QueueEntry e,
                              AccelType target, sim::TimePs ready,
                              bool armed_wait, RemoteKind wait_kind) {
  accel::Accelerator& dst = machine_.accel(target);
  ChainContext* ctx = e.ctx;

  // Graceful degradation: don't hand new work to a quarantined
  // accelerator. Armed network waits are exempt — the receive trace must
  // park somewhere, and the CPU path models that wait differently.
  if (!armed_wait && reroute_unhealthy(ctx, target)) {
    // The only FSM exit that may finish the chain before the dispatcher's
    // launch time: if it is the run's last chain, a drained calendar must
    // still reach the output-slot release, so make it a real event.
    from.post_pending_releases();
    continue_chain_on_cpu(ctx, e.trace_word, e.position_mark,
                          e.payload.size_bytes, target);
    return;
  }

  stamp_deadline(e);

  sim::TimePs arrive = ready;
  if (!config_.zero_overhead) {
    // MBA-style throttling: a capped tenant's transfers wait for bucket
    // credit before touching the A-DMA engines (Section IV-D).
    arrive = move_entry(
        e, from.location(), dst.location(),
        std::max(ready, mba_.acquire(e.tenant, entry_dma_bytes(e))));
  }

  arm_hop(e, target, arrive);
  const auto parked = parked_.park(std::move(e));
  machine_.sim().schedule_at(
      arrive, [this, &dst, parked, armed_wait, wait_kind] {
        accel::QueueEntry e = parked_.take(parked);
        if (!armed_wait) {
          admit(dst, e);
          return;
        }
        ++s_.stats.attempts_by_type[accel::index_of(dst.type())];
        const SlotId slot = dst.try_enqueue(e);
        arm_wait(dst, slot, std::move(e), wait_kind);
      });
}

void AccelFlowEngine::arm_wait(accel::Accelerator& dst, SlotId slot,
                               QueueEntry e, RemoteKind kind) {
  ChainContext* ctx = e.ctx;
  const bool queued = slot != accel::kInvalidSlot;
  sim::TicketPool<QueueEntry>::Ticket deferred = 0;
  std::function<void(std::uint64_t)> deliver;
  if (queued) {
    // Armed in the queue: the response (or a timeout) makes it ready.
    deliver = [this, &dst, slot](std::uint64_t bytes) {
      QueueEntry& qe = dst.input_entry(slot);
      land_response(qe, dst.type(), bytes);
      // Refresh the hand-off record: a re-issue of this hop must carry the
      // response payload, not the pre-response placeholder.
      arm_hop(qe, dst.type(), /*in_flight_until=*/0);
      dst.deliver_data(slot);
    };
  } else {
    // No room to pre-arm the receive trace: defer the arming and re-enqueue
    // when the response actually arrives (the entry carries no data yet, so
    // the overflow area cannot hold it). The entry parks until then; every
    // outcome below either redeems or drops the ticket.
    ++s_.stats.deferred_arms;
    deferred = parked_.park(std::move(e));
    // The parked entry is invisible to holds_chain(): tell the watchdog
    // this is a (possibly unbounded) known wait, not a loss. A synchronous
    // nested delivery re-arms right over it.
    note_hop_wait(ctx, sim::kTimeNever);
    deliver = [this, &dst, deferred](std::uint64_t bytes) {
      QueueEntry le = parked_.take(deferred);
      land_response(le, dst.type(), bytes);
      forward_into_queue(dst, std::move(le));
    };
  }
  sim::Simulator& sim = machine_.sim();
  const ResponseWait w = await_response(
      sim, *ctx, kind, sim.now(),
      sim::milliseconds(config_.response_timeout_ms),
      [this, &dst, slot, ctx, queued] {
        if (queued) dst.release_input(slot);
        time_out_chain(ctx, /*on_cpu=*/false);
      },
      std::move(deliver));
  if (w.kind == ResponseWait::Kind::kTimeout) {
    ++s_.stats.timeouts;
    if (!queued) parked_.drop(deferred);  // The timeout never delivers.
    disarm_hop(ctx);  // The chain completes on schedule.
  } else if (!queued && w.kind == ResponseWait::Kind::kResponse) {
    note_hop_wait(ctx, w.at);
  }
}

void AccelFlowEngine::time_out_chain(ChainContext* ctx, bool on_cpu) {
  // The ensemble notifies the core; on the CPU path the core is waiting.
  if (!on_cpu) machine_.cores().notify(ctx->core);
  complete_chain(ctx, {.ok = false, .cpu_fallback = on_cpu, .timeout = true});
}

void AccelFlowEngine::forward_into_queue(accel::Accelerator& dst,
                                         QueueEntry e) {
  if (reroute_unhealthy(e.ctx, dst.type())) {
    continue_chain_on_cpu(e.ctx, e.trace_word, e.position_mark,
                          e.payload.size_bytes, dst.type());
    return;
  }
  arm_hop(e, dst.type(), /*in_flight_until=*/0);
  admit(dst, e);
}

void AccelFlowEngine::admit(accel::Accelerator& dst, const QueueEntry& e) {
  ++s_.stats.attempts_by_type[accel::index_of(dst.type())];
  const SlotId slot = dst.try_enqueue(e);
  if (slot != accel::kInvalidSlot) {
    dst.deliver_data(slot);
    return;
  }
  // Output dispatchers cannot retry: the entry goes to the overflow area,
  // to be drained into the queue later by the accelerator; a full
  // overflow area falls back to the CPU (Section IV-A).
  if (!dst.overflow_enqueue(e)) {
    ++s_.stats.overflow_fallbacks;
    ++s_.stats.fallbacks_by_type[accel::index_of(dst.type())];
    // The CPU runs the about-to-run op itself, then the rest.
    continue_chain_on_cpu(e.ctx, e.trace_word, e.position_mark,
                          e.payload.size_bytes, dst.type());
  }
}

void AccelFlowEngine::continue_chain_on_cpu(ChainContext* ctx,
                                            std::uint64_t word,
                                            std::uint8_t pm,
                                            std::uint64_t payload_bytes,
                                            AccelType pending) {
  // The CPU path cannot lose a chain (every branch below completes it or
  // re-enters the ensemble, which re-arms): the watchdog stands down.
  disarm_hop(ctx);
  ++tenant_count(s_.stats.fallback_by_tenant, ctx->tenant);
  if (obs::Tracer* t = trc()) {
    t->instant(obs::Subsys::kCpu, obs::SpanKind::kCpuFallback,
               static_cast<std::uint32_t>(ctx->core), machine_.sim().now(),
               payload_bytes, obs::flow_id(ctx->request, ctx->chain));
  }
  // The denied operation, and the control ops after it, run on the core.
  const CpuSegment seg =
      price_cpu_segment(lib_, machine_.cores(), chk(), *ctx, word, pm,
                        payload_bytes, pending, /*stop_at_invoke=*/true);
  auto& cores = machine_.cores();
  switch (seg.stop) {
    case CpuSegment::Stop::kInvoke: {
      // Re-enter the ensemble.
      accel::Accelerator& dst = machine_.accel(seg.accel);
      const auto parked = parked_.park(
          make_queue_entry(*ctx, seg.accel, seg.word, seg.pm, seg.bytes));
      cores.run_on(ctx->core, seg.time, [this, &dst, parked] {
        forward_into_queue(dst, parked_.take(parked));
      });
      return;
    }
    case CpuSegment::Stop::kRemote:
      // The core sends the message and waits for the response; the
      // receive trace then re-enters the ensemble.
      cores.run_on(ctx->core, seg.time, [this, ctx, seg] {
        const ResponseWait w = await_response(
            machine_.sim(), *ctx, seg.remote, machine_.sim().now(),
            sim::milliseconds(config_.response_timeout_ms),
            [this, ctx] { time_out_chain(ctx, /*on_cpu=*/true); },
            [this, ctx, seg](std::uint64_t resp) {
              forward_into_queue(
                  machine_.accel(seg.accel),
                  make_queue_entry(*ctx, seg.accel, seg.word, seg.pm, resp));
            });
        if (w.kind == ResponseWait::Kind::kTimeout) ++s_.stats.timeouts;
      });
      return;
    case CpuSegment::Stop::kEnd:
      cores.run_on(ctx->core, seg.time, [this, ctx] {
        complete_chain(ctx, {.cpu_fallback = true});
      });
      return;
  }
}

void AccelFlowEngine::finish_to_cpu(accel::Accelerator& from, QueueEntry e,
                                    sim::TimePs ready) {
  ChainContext* ctx = e.ctx;
  sim::TimePs arrive = ready;
  if (!config_.zero_overhead) {
    // The A-DMA deposits the result in a memory buffer the core reads.
    arrive = move_entry(e, from.location(), machine_.core_location(ctx->core),
                        ready);
  }
  ++s_.stats.notifications;
  if (obs::Tracer* t = trc()) {
    t->complete(obs::Subsys::kEngine, obs::SpanKind::kNotify,
                static_cast<std::uint32_t>(ctx->core), ready, arrive,
                e.payload.size_bytes, e.flow);
  }
  machine_.sim().schedule_at(arrive, [this, ctx] {
    machine_.cores().notify(ctx->core, [this, ctx] {
      complete_chain(ctx, {});
    });
  });
}

sim::TimePs AccelFlowEngine::move_entry(const QueueEntry& e,
                                        noc::Location from, noc::Location to,
                                        sim::TimePs start) {
  const std::uint64_t bytes = entry_dma_bytes(e);
  sim::TimePs arrive = machine_.dma().transfer(from, to, bytes, start, e.flow);
  if (ValidationHooks* c = chk()) c->on_dma(bytes, arrive);
  if (e.payload.size_bytes > kInlineDataBytes) {
    // The remainder lives in the memory buffer: the producer writes it
    // back coherently; the consumer fetches it through its Memory
    // Pointer at dispatch time.
    const auto w = machine_.memory().write(
        e.payload.size_bytes - kInlineDataBytes, /*llc_hit_prob=*/0.9);
    arrive = std::max(arrive, w.complete_at);
  }
  return arrive;
}

sim::TimePs AccelFlowEngine::manager_round_trip(
    const accel::Accelerator& at, sim::TimePs ready, obs::FlowId flow) {
  ++s_.stats.manager_fallbacks;
  const sim::TimePs go = machine_.net().transfer(
      at.location(), machine_.manager_location(), 64, ready, flow);
  const sim::TimePs handled = machine_.manager().submit_at(
      go, sim::microseconds(machine_.config().manager_event_us *
                            config_.manager_fallback_events));
  if (obs::Tracer* t = trc()) {
    t->complete(obs::Subsys::kEngine, obs::SpanKind::kManagerEvent,
                obs::kManagerTid, go, handled, 0, flow);
  }
  return machine_.net().transfer(machine_.manager_location(), at.location(),
                                 64, handled, flow);
}

void AccelFlowEngine::snapshot_metrics(obs::MetricsRegistry& reg) const {
  using Kind = obs::MetricsRegistry::Kind;
  reg.set("engine.chains_started",
          static_cast<double>(s_.stats.chains_started));
  reg.set("engine.chains_completed",
          static_cast<double>(s_.stats.chains_completed));
  reg.set("engine.enqueue_fallbacks",
          static_cast<double>(s_.stats.enqueue_fallbacks));
  reg.set("engine.overflow_fallbacks",
          static_cast<double>(s_.stats.overflow_fallbacks));
  reg.set("engine.timeouts", static_cast<double>(s_.stats.timeouts));
  reg.set("engine.deferred_arms", static_cast<double>(s_.stats.deferred_arms));
  reg.set("engine.manager_fallbacks",
          static_cast<double>(s_.stats.manager_fallbacks));
  reg.set("engine.atm_loads", static_cast<double>(s_.stats.atm_loads));
  reg.set("engine.notifications", static_cast<double>(s_.stats.notifications));
  reg.set("engine.tenant_throttled",
          static_cast<double>(s_.stats.tenant_throttled));
  reg.set("engine.quota_throttled",
          static_cast<double>(s_.stats.quota_throttled));
  // Per-tenant families (DESIGN.md §19): one series per tenant that ever
  // completed a chain, so single-tenant runs add no cardinality.
  for (std::size_t t = 0; t < s_.stats.completed_by_tenant.size(); ++t) {
    const std::string base = "engine.tenant." + std::to_string(t);
    reg.set(base + ".completed",
            static_cast<double>(s_.stats.completed_by_tenant[t]));
    if (t < s_.stats.faulted_by_tenant.size()) {
      reg.set(base + ".faulted",
              static_cast<double>(s_.stats.faulted_by_tenant[t]));
    }
    if (t < s_.stats.fallback_by_tenant.size()) {
      reg.set(base + ".fallbacks",
              static_cast<double>(s_.stats.fallback_by_tenant[t]));
    }
  }
  reg.set("engine.hop_timeouts", static_cast<double>(s_.stats.hop_timeouts));
  reg.set("engine.hop_retries", static_cast<double>(s_.stats.hop_retries));
  reg.set("engine.hop_probes", static_cast<double>(s_.stats.hop_probes));
  reg.set("engine.retry_exhausted_fallbacks",
          static_cast<double>(s_.stats.retry_exhausted_fallbacks));
  reg.set("engine.health_fallbacks",
          static_cast<double>(s_.stats.health_fallbacks));
  reg.set("engine.unhealthy_transitions",
          static_cast<double>(s_.stats.unhealthy_transitions));
  reg.set("engine.probation_recoveries",
          static_cast<double>(s_.stats.probation_recoveries));
  reg.set("engine.chains_faulted",
          static_cast<double>(s_.stats.chains_faulted));
  reg.set("engine.glue.mean_instrs", s_.stats.glue_instrs.mean(), Kind::kGauge);
  reg.set("engine.glue.ops", static_cast<double>(s_.stats.glue_instrs.count()));
  for (const AccelType t : accel::kAllAccelTypes) {
    const std::size_t i = accel::index_of(t);
    const std::string p = obs::metric_path("engine.fallbacks",
                                           accel::name_of(t));
    reg.set(p, static_cast<double>(s_.stats.fallbacks_by_type[i]));
  }
}

void AccelFlowEngine::complete_chain(ChainContext* ctx, ChainResult res) {
  disarm_hop(ctx);
  // The context may be freed and recycled once finished: no timer may
  // outlive it.
  if (ctx->hop.timer != sim::kInvalidEventId) {
    machine_.sim().cancel(ctx->hop.timer);
    ctx->hop.timer = sim::kInvalidEventId;
  }
  res.completed_at = machine_.sim().now();
  if (ctx->faulted) {
    res.faulted = true;
    ++s_.stats.chains_faulted;
    ++tenant_count(s_.stats.faulted_by_tenant, ctx->tenant);
  }
  ++s_.stats.chains_completed;
  ++tenant_count(s_.stats.completed_by_tenant, ctx->tenant);
  if (ValidationHooks* c = chk()) c->on_chain_finish(*ctx, res);
  if (obs::Tracer* t = trc()) {
    const obs::FlowId flow = obs::flow_id(ctx->request, ctx->chain);
    const sim::TimePs now = machine_.sim().now();
    const auto tid = static_cast<std::uint32_t>(ctx->core);
    // arg carries the tenant (== workload service index) so post-hoc
    // consumers (critpath::Analyzer) can attribute chains per service.
    t->instant(obs::Subsys::kEngine,
               res.timeout ? obs::SpanKind::kTimeout
                           : obs::SpanKind::kChainDone,
               tid, now, ctx->tenant, flow);
    t->flow(obs::Phase::kFlowEnd, obs::Subsys::kEngine, tid, now, flow);
  }
  std::uint32_t& active = tenant_slot(ctx->tenant);
  if (active > 0) --active;
  ctx->finish(res);
  // Admit throttled starts whose tenant is now below its cap. The scan
  // skips blocked entries (rather than stopping at the head) so one
  // capped tenant cannot head-block every other tenant's waiting starts
  // — per-tenant FIFO order is still preserved.
  for (std::size_t i = 0; i < s_.throttled.size();) {
    const PendingStart next = s_.throttled[i];
    const std::uint32_t cap =
        std::min(config_.tenant_max_active,
                 config_.qos.tenant(next.ctx->tenant).max_active_chains);
    if (tenant_slot(next.ctx->tenant) >= cap) {
      ++i;
      continue;
    }
    s_.throttled.erase(s_.throttled.begin() + static_cast<std::ptrdiff_t>(i));
    start_chain(next.ctx, next.first);
  }
}

// --- Fault resilience (DESIGN.md §14) -----------------------------------

void AccelFlowEngine::arm_hop(const QueueEntry& e, AccelType target,
                              sim::TimePs in_flight_until) {
  if (!resilience_active()) return;
  HopWatch& w = e.ctx->hop;
  if (w.backoff != sim::kInvalidEventId) {
    machine_.sim().cancel(w.backoff);
    w.backoff = sim::kInvalidEventId;
  }
  // A re-issue of the same hop keeps its retry budget; any other arm is
  // forward progress and starts fresh.
  const bool same_hop = w.armed && w.target == target &&
                        w.word == e.trace_word && w.pm == e.position_mark;
  if (!same_hop) {
    w.retries = 0;
    w.timeout = sim::microseconds(config_.resilience.hop_timeout_us);
  }
  w.armed = true;
  w.target = target;
  w.word = e.trace_word;
  w.pm = e.position_mark;
  w.bytes = e.payload.size_bytes;
  w.in_flight_until = in_flight_until;
  set_watchdog(e.ctx, w.timeout);
}

void AccelFlowEngine::disarm_hop(ChainContext* ctx) {
  HopWatch& w = ctx->hop;
  if (!w.armed) return;
  w.armed = false;
  w.deadline = sim::kTimeNever;
  if (w.backoff != sim::kInvalidEventId) {
    machine_.sim().cancel(w.backoff);
    w.backoff = sim::kInvalidEventId;
  }
}

void AccelFlowEngine::set_watchdog(ChainContext* ctx, sim::TimePs delay) {
  HopWatch& w = ctx->hop;
  sim::Simulator& sim = machine_.sim();
  // The stamp the eager watchdog event would take (DESIGN.md §14).
  w.deadline = sim.now() + delay;
  w.deadline_seq = sim.reserve_seq();
  if (w.timer != sim::kInvalidEventId) {
    // A timer at or before the deadline fires first and re-posts itself;
    // only a later one (a doubled timeout reset by progress) must move.
    if (w.timer_at <= w.deadline) return;
    sim.cancel(w.timer);
  }
  post_watchdog(ctx);
}

void AccelFlowEngine::post_watchdog(ChainContext* ctx) {
  HopWatch& w = ctx->hop;
  const std::uint64_t seq = w.deadline_seq;
  w.timer_at = w.deadline;
  w.timer = machine_.sim().schedule_at_seq(
      w.deadline, seq, [this, ctx, seq] { on_watchdog(ctx, seq); });
}

void AccelFlowEngine::on_watchdog(ChainContext* ctx, std::uint64_t seq) {
  HopWatch& w = ctx->hop;
  w.timer = sim::kInvalidEventId;
  if (w.deadline == sim::kTimeNever) return;  // Disarmed: drop.
  if (seq != w.deadline_seq) {
    post_watchdog(ctx);  // Stale: the deadline moved later.
    return;
  }
  w.deadline = sim::kTimeNever;
  on_hop_timeout(ctx);
}

void AccelFlowEngine::note_hop_wait(ChainContext* ctx, sim::TimePs until) {
  if (ctx->hop.armed) ctx->hop.in_flight_until = until;
}

void AccelFlowEngine::on_hop_timeout(ChainContext* ctx) {
  HopWatch& w = ctx->hop;
  const sim::TimePs now = machine_.sim().now();
  auto rearm = [&](sim::TimePs delay) {
    ++s_.stats.hop_probes;
    set_watchdog(ctx, delay);
  };
  // A known future delivery (remote response, DMA arrival) means the hop
  // cannot be lost yet: look again once it should have landed.
  if (w.in_flight_until == sim::kTimeNever ||
      (w.in_flight_until != 0 && now < w.in_flight_until)) {
    rearm(w.timeout);
    return;
  }
  // Probe: a slow-but-alive entry (queued, executing, overflowed or
  // blocked on translation) must never be re-issued — watch it more
  // patiently instead. Only a vanished entry was lost to a hard failure.
  for (const AccelType t : accel::kAllAccelTypes) {
    if (machine_.accel(t).holds_chain(ctx)) {
      w.timeout *= 2;
      rearm(w.timeout);
      return;
    }
  }
  // Lost: a hard-failed PE consumed the entry without producing output.
  ++s_.stats.hop_timeouts;
  ctx->faulted = true;
  record_hop_failure(w.target);
  if (w.retries >= config_.resilience.hop_retries) {
    // Retry budget spent: the CPU finishes the chain — it always can.
    ++s_.stats.retry_exhausted_fallbacks;
    ++s_.stats.fallbacks_by_type[accel::index_of(w.target)];
    continue_chain_on_cpu(ctx, w.word, w.pm, w.bytes, w.target);  // Disarms.
    return;
  }
  ++w.retries;
  ++s_.stats.hop_retries;
  if (obs::Tracer* t = trc()) {
    t->instant(obs::Subsys::kEngine, obs::SpanKind::kHopRetry,
               static_cast<std::uint32_t>(ctx->core), now,
               static_cast<std::uint64_t>(w.retries),
               obs::flow_id(ctx->request, ctx->chain));
  }
  // Exponential backoff before the re-issue; disarm_hop() cancels it.
  const double backoff_us =
      config_.resilience.backoff_base_us *
      std::pow(config_.resilience.backoff_factor, w.retries - 1);
  w.backoff = machine_.sim().schedule_after(
      sim::microseconds(backoff_us), [this, ctx] { retry_hop(ctx); });
}

void AccelFlowEngine::retry_hop(ChainContext* ctx) {
  HopWatch& w = ctx->hop;
  w.backoff = sim::kInvalidEventId;
  // Rebuild the lost entry from the hand-off record (the payload still
  // lives in its memory buffer; the re-issued DMA is modeled by the
  // normal enqueue path) and hand it back to the same accelerator.
  QueueEntry e = make_queue_entry(*ctx, w.target, w.word, w.pm, w.bytes);
  stamp_deadline(e);
  forward_into_queue(machine_.accel(w.target), std::move(e));
}

void AccelFlowEngine::record_hop_failure(AccelType t) {
  Health& hs = s_.health[accel::index_of(t)];
  ++hs.consecutive_losses;
  const sim::TimePs until =
      machine_.sim().now() +
      sim::microseconds(config_.resilience.quarantine_us);
  if (hs.state == Health::State::kProbation) {
    // One loss during probation sends it straight back to quarantine.
    hs.state = Health::State::kUnhealthy;
    hs.quarantine_until = until;
    ++s_.stats.unhealthy_transitions;
  } else if (hs.state == Health::State::kHealthy &&
             hs.consecutive_losses >=
                 config_.resilience.unhealthy_threshold) {
    hs.state = Health::State::kUnhealthy;
    hs.quarantine_until = until;
    ++s_.stats.unhealthy_transitions;
  } else if (hs.state == Health::State::kUnhealthy) {
    // Stragglers dispatched before the quarantine keep failing: extend it.
    hs.quarantine_until = until;
  }
}

void AccelFlowEngine::record_hop_success(AccelType t) {
  Health& hs = s_.health[accel::index_of(t)];
  hs.consecutive_losses = 0;
  if (hs.state == Health::State::kProbation &&
      ++hs.probation_successes >= config_.resilience.probation_successes) {
    hs.state = Health::State::kHealthy;
    hs.probation_successes = 0;
    ++s_.stats.probation_recoveries;
  }
}

bool AccelFlowEngine::reroute_unhealthy(ChainContext* ctx, AccelType t) {
  if (!resilience_active()) return false;
  Health& hs = s_.health[accel::index_of(t)];
  if (hs.state != Health::State::kUnhealthy) return false;
  if (machine_.sim().now() >= hs.quarantine_until) {
    // Quarantine served: probation admits work again, watched closely.
    hs.state = Health::State::kProbation;
    hs.probation_successes = 0;
    hs.consecutive_losses = 0;
    return false;
  }
  ++s_.stats.health_fallbacks;
  ++s_.stats.fallbacks_by_type[accel::index_of(t)];
  ctx->faulted = true;
  return true;
}

}  // namespace accelflow::core
