#include "core/orch_baselines.h"

#include <algorithm>
#include <cassert>

#include "core/require.h"
#include "core/validation_hooks.h"

namespace accelflow::core {

using accel::AccelType;
using accel::QueueEntry;
using accel::SlotId;

BaselineOrchestrator::BaselineOrchestrator(BaselineMode mode,
                                           Machine& machine,
                                           const TraceLibrary& lib,
                                           bool relief_central_queue,
                                           const BaselineCosts& costs)
    : machine_(machine),
      lib_(lib),
      mode_(mode),
      central_queue_(relief_central_queue && mode == BaselineMode::kRelief),
      costs_(costs),
      cohort_links_(default_cohort_links()) {
  // Each becomes a time, a probability or a factor.
  require_non_negative(costs_.interrupt_handler_cycles,
                       "interrupt_handler_cycles");
  require_non_negative(costs_.interrupt_tail_prob, "interrupt_tail_prob");
  require_non_negative(costs_.interrupt_tail_factor, "interrupt_tail_factor");
  require_non_negative(costs_.cohort_poll_cycles, "cohort_poll_cycles");
  require_non_negative(costs_.cohort_poll_interval_us,
                       "cohort_poll_interval_us");
  require_non_negative(costs_.cohort_stall_prob, "cohort_stall_prob");
  require_non_negative(costs_.cohort_stall_min_us, "cohort_stall_min_us");
  require_non_negative(costs_.cohort_stall_max_us, "cohort_stall_max_us");
  require_non_negative(costs_.cohort_link_ns, "cohort_link_ns");
  require_non_negative(costs_.plain_dispatcher_instrs,
                       "plain_dispatcher_instrs");
  require_non_negative(costs_.enqueue_retry_delay_ns,
                       "enqueue_retry_delay_ns");
  require_non_negative(costs_.response_timeout_ms, "response_timeout_ms");
  s_.central_tokens =
      static_cast<std::size_t>(machine.config().relief_inflight_cap);
  if (mode_ != BaselineMode::kNonAcc) {
    machine_.install_output_handler(this);
  }
}

BaselineOrchestrator::~BaselineOrchestrator() = default;

std::string_view BaselineOrchestrator::name() const {
  switch (mode_) {
    case BaselineMode::kNonAcc:
      return "Non-acc";
    case BaselineMode::kCpuCentric:
      return "CPU-Centric";
    case BaselineMode::kRelief:
      return central_queue_ ? "RELIEF" : "RELIEF-PerAccTypeQ";
    case BaselineMode::kCohort:
      return "Cohort";
  }
  return "?";
}

const std::set<std::pair<AccelType, AccelType>>&
BaselineOrchestrator::default_cohort_links() {
  // The producer/consumer pairs that co-occur most often in the Table II
  // traces: receive front-ends and send back-ends.
  static const std::set<std::pair<AccelType, AccelType>> kLinks = {
      {AccelType::kTcp, AccelType::kDecr},
      {AccelType::kRpc, AccelType::kDser},
      {AccelType::kSer, AccelType::kRpc},
      {AccelType::kEncr, AccelType::kTcp},
  };
  return kLinks;
}

void BaselineOrchestrator::restore(const Checkpoint& c) {
  s_ = c;
  chains_.clear();
  central_fifo_.clear();
}

std::unique_ptr<OrchCheckpoint> BaselineOrchestrator::save_checkpoint()
    const {
  return std::make_unique<Checkpoint>(checkpoint());
}

void BaselineOrchestrator::restore_checkpoint(const OrchCheckpoint& c) {
  const auto* ck = dynamic_cast<const Checkpoint*>(&c);
  assert(ck != nullptr && "checkpoint from a different orchestrator");
  restore(*ck);
}

void BaselineOrchestrator::run_chain(ChainContext* ctx, AtmAddr first) {
  ++s_.stats.chains;
  if (ValidationHooks* v = machine_.checker()) v->on_chain_start(*ctx, first);
  if (mode_ == BaselineMode::kNonAcc) {
    const std::uint64_t word = lib_.get(first).word;
    const TraceOp op0 = decode_op(word, 0);
    run_on_cpu(ctx, word, op0.next_pm, ctx->initial_bytes, op0.accel);
    return;
  }

  auto chain = std::make_unique<Chain>();
  Chain* c = chain.get();
  c->ctx = ctx;
  c->ops = &lib_.walk(first, ctx->flags).ops;
  c->bytes = ctx->initial_bytes;
  chains_[ctx] = std::move(chain);

  sim::TimePs ready = machine_.sim().now();
  machine_.cores().charge_enqueue(ctx->core);
  const obs::FlowId flow = obs::flow_id(ctx->request, ctx->chain);
  if (obs::Tracer* t = machine_.tracer()) {
    const auto tid = static_cast<std::uint32_t>(ctx->core);
    t->complete(obs::Subsys::kEngine, obs::SpanKind::kEnqueue, tid, ready,
                ready, ctx->initial_bytes, flow);
    t->flow(obs::Phase::kFlowBegin, obs::Subsys::kEngine, tid, ready, flow);
  }
  if (mode_ == BaselineMode::kRelief) {
    // The core submits the whole op list to the hardware manager.
    ready = machine_.net().transfer(machine_.core_location(ctx->core),
                                    machine_.manager_location(), 64, ready,
                                    flow);
  }
  step(c, ready);
}

void BaselineOrchestrator::step(Chain* c, sim::TimePs ready) {
  ChainContext* ctx = c->ctx;
  auto& cores = machine_.cores();
  while (c->i < c->ops->size()) {
    const LogicalOp& op = (*c->ops)[c->i];
    switch (op.kind) {
      case LogicalOp::Kind::kInvoke:
        issue_invoke(c, ready, /*direct_hop=*/false);
        return;
      case LogicalOp::Kind::kBranchResolve: {
        ++ctx->branches;
        if (mode_ == BaselineMode::kRelief) {
          // The manager resolves the condition: one more manager event.
          ++s_.stats.manager_events;
          const sim::TimePs t = machine_.manager().submit_at(
              ready,
              sim::microseconds(machine_.config().manager_event_us));
          s_.stats.orchestration_time += t - ready;
          ready = t;
        } else {
          // The core checks a couple of payload fields.
          const sim::TimePs t = cores.cycles(20);
          cores.run_on(ctx->core, t);
          s_.stats.orchestration_time += t;
          ready += t;
        }
        ++c->i;
        break;
      }
      case LogicalOp::Kind::kTransform: {
        ++ctx->transforms;
        if (mode_ == BaselineMode::kRelief) {
          // Manager-mediated transformation: control event plus moving the
          // payload to the manager and back.
          ++s_.stats.manager_events;
          sim::TimePs t = machine_.manager().submit_at(
              ready,
              sim::microseconds(machine_.config().manager_event_us));
          if (c->has_last_accel) {
            const noc::Location at =
                machine_.accel(c->last_accel).location();
            const obs::FlowId flow = obs::flow_id(ctx->request, ctx->chain);
            t = machine_.net().transfer(at, machine_.manager_location(),
                                        c->bytes, t, flow);
            t = machine_.net().transfer(machine_.manager_location(), at,
                                        c->bytes, t, flow);
          }
          s_.stats.orchestration_time += t - ready;
          ready = t;
        } else {
          const sim::TimePs t = cpu_transform_time(c->bytes);
          cores.run_on(ctx->core, t);
          ready += t;
        }
        ++c->i;
        break;
      }
      case LogicalOp::Kind::kNotifyCont:
        ++ctx->mid_notifies;
        cores.notify(ctx->core);
        ++c->i;
        break;
      case LogicalOp::Kind::kRemoteWait: {
        const ResponseWait w = await_response(
            machine_.sim(), *ctx, op.remote, ready,
            sim::milliseconds(costs_.response_timeout_ms),
            [this, ctx] {
              finish(ctx, /*timed_out=*/true, /*fell_back=*/false);
            },
            [this, c](std::uint64_t bytes) {
              ++c->i;
              c->bytes = bytes;
              step(c, machine_.sim().now());
            });
        if (w.kind == ResponseWait::Kind::kTimeout) ++s_.stats.timeouts;
        return;
      }
    }
  }
  // Chain complete: control returns to the core.
  if (mode_ == BaselineMode::kRelief) {
    ++s_.stats.interrupts;
    machine_.cores().interrupt(ctx->core, 0, [this, ctx] {
      finish(ctx, false, false);
    });
  } else {
    finish(ctx, false, false);
  }
}

void BaselineOrchestrator::issue_invoke(Chain* c, sim::TimePs ready,
                                        bool direct_hop) {
  ChainContext* ctx = c->ctx;
  assert(c->i < c->ops->size() &&
         (*c->ops)[c->i].kind == LogicalOp::Kind::kInvoke);
  const AccelType target = (*c->ops)[c->i].accel;
  accel::Accelerator& dst = machine_.accel(target);

  // Who launches the op, and from where does the payload move?
  noc::Location src = machine_.core_location(ctx->core);
  switch (mode_) {
    case BaselineMode::kCpuCentric:
      machine_.cores().charge_enqueue(ctx->core);
      break;
    case BaselineMode::kRelief: {
      ++s_.stats.manager_events;
      const sim::TimePs t = machine_.manager().submit_at(
          ready, sim::microseconds(machine_.config().manager_dispatch_us));
      s_.stats.orchestration_time += t - ready;
      ready = t;
      if (c->has_last_accel) src = machine_.accel(c->last_accel).location();
      break;
    }
    case BaselineMode::kCohort:
      if (direct_hop) {
        ++s_.stats.linked_hops;
        ready += sim::nanoseconds(costs_.cohort_link_ns);
        src = machine_.accel(c->last_accel).location();
      } else {
        // Submit through the shared-memory software queue.
        machine_.cores().charge_enqueue(ctx->core);
        if (c->has_last_accel) {
          src = machine_.accel(c->last_accel).location();
        }
      }
      break;
    case BaselineMode::kNonAcc:
      assert(false);
      break;
  }

  // Baselines carry no trace: the entry names the op alone.
  auto issue = std::make_shared<Issue>();
  issue->c = c;
  issue->dst = &dst;
  issue->entry = make_queue_entry(*ctx, target, /*word=*/0, /*pm=*/0,
                                  c->bytes);
  issue->src = src;
  issue->dma_bytes =
      std::min<std::uint64_t>(c->bytes, accel::kInlineDataBytes) + 64;
  if (central_queue_) {
    // Base RELIEF: one FIFO in front of all accelerator types.
    machine_.sim().schedule_at(ready, [this, issue] {
      central_fifo_.push_back(issue);
      pump_central_queue();
    });
    return;
  }
  machine_.sim().schedule_at(
      ready, [this, issue, ready] { try_issue(issue, ready); });
}

void BaselineOrchestrator::pump_central_queue() {
  if (s_.central_pump_scheduled) return;
  while (!central_fifo_.empty()) {
    const std::shared_ptr<Issue>& head = central_fifo_.front();
    SlotId slot = accel::kInvalidSlot;
    if (s_.central_tokens > 0) slot = head->dst->try_enqueue(head->entry);
    if (slot == accel::kInvalidSlot) {
      // Head-of-line blocking: everything behind this op waits until its
      // accelerator frees a slot.
      ++s_.stats.central_queue_waits;
      s_.central_pump_scheduled = true;
      machine_.sim().schedule_after(sim::nanoseconds(500), [this] {
        s_.central_pump_scheduled = false;
        pump_central_queue();
      });
      return;
    }
    --s_.central_tokens;  // Returned when the op's result is handled.
    launch(*head, slot, machine_.sim().now());
    central_fifo_.pop_front();
  }
}

void BaselineOrchestrator::try_issue(std::shared_ptr<Issue> issue,
                                     sim::TimePs when) {
  // Enqueue with retries; persistent fullness falls back to the CPU.
  Chain* c = issue->c;
  const SlotId slot = issue->dst->try_enqueue(issue->entry);
  if (slot == accel::kInvalidSlot) {
    if (++issue->attempts >= costs_.enqueue_retries) {
      // The failed invoke and the rest of the chain run on the core.
      ++s_.stats.fallbacks;
      const LogicalOp& op = (*c->ops)[c->i];
      run_on_cpu(c->ctx, op.word, op.pm, c->bytes, op.accel);
      return;
    }
    machine_.sim().schedule_after(
        sim::nanoseconds(costs_.enqueue_retry_delay_ns), [this, issue] {
          try_issue(issue, machine_.sim().now());
        });
    return;
  }
  launch(*issue, slot, when);
}

void BaselineOrchestrator::launch(const Issue& issue, SlotId slot,
                                  sim::TimePs when) {
  const sim::TimePs arrive = machine_.dma().transfer(
      issue.src, issue.dst->location(), issue.dma_bytes, when,
      issue.entry.flow);
  if (ValidationHooks* v = machine_.checker()) {
    v->on_dma(issue.dma_bytes, arrive);
  }
  issue.dst->schedule_deliver(arrive, slot);
}

void BaselineOrchestrator::handle_output(accel::Accelerator& acc,
                                         SlotId slot) {
  const QueueEntry& e = acc.output_entry(slot);
  ChainContext* ctx = e.ctx;
  const auto it = chains_.find(ctx);
  assert(it != chains_.end());
  Chain* c = it->second.get();
  const obs::FlowId flow = e.flow;

  // Minimal output-dispatcher work: no trace logic in the baselines.
  const sim::TimePs fsm_done = acc.occupy_dispatcher(
      sim::Clock(machine_.config().cpu.clock_ghz)
          .cycles_to_ps(costs_.plain_dispatcher_instrs),
      flow);
  machine_.sim().schedule_at(fsm_done,
                             [&acc, slot] { acc.release_output(slot); });

  ++ctx->accel_invocations;
  if (ValidationHooks* v = machine_.checker()) {
    // The stage that just finished on `acc`, with its pre-transform size.
    v->on_stage(*ctx, acc.type(), c->bytes, /*on_cpu=*/false);
  }
  c->bytes = ctx->env->transformed_size(acc.type(), c->bytes);
  c->last_accel = acc.type();
  c->has_last_accel = true;
  if (central_queue_) {
    ++s_.central_tokens;  // The shared queue entry is free again.
    pump_central_queue();
  }
  ++c->i;  // Past the completed invoke.

  switch (mode_) {
    case BaselineMode::kCpuCentric: {
      // The accelerator interrupts the initiating core, which then issues
      // the next operation. A fraction of interrupts land behind other
      // kernel work and cost several times more.
      ++s_.stats.interrupts;
      double handler_cycles = costs_.interrupt_handler_cycles;
      if (s_.rng.bernoulli(costs_.interrupt_tail_prob)) {
        handler_cycles *= costs_.interrupt_tail_factor;
      }
      const sim::TimePs handler = machine_.cores().cycles(handler_cycles);
      const sim::TimePs done =
          machine_.cores().interrupt(ctx->core, handler, [this, c] {
            step(c, machine_.sim().now());
          });
      if (obs::Tracer* t = machine_.tracer()) {
        t->complete(obs::Subsys::kCpu, obs::SpanKind::kInterrupt,
                    static_cast<std::uint32_t>(ctx->core),
                    machine_.sim().now(), done, 0, flow);
      }
      // Includes the wait for the busy core: orchestration contention
      // grows with load (Figure 3).
      s_.stats.orchestration_time += done - machine_.sim().now();
      break;
    }
    case BaselineMode::kRelief: {
      // The manager takes the completion interrupt (~1.5us, Section VII-A).
      ++s_.stats.manager_events;
      const sim::TimePs ev =
          sim::microseconds(machine_.config().manager_event_us);
      const sim::TimePs done =
          machine_.manager().submit_at(fsm_done, ev, [this, c] {
            step(c, machine_.sim().now());
          });
      s_.stats.orchestration_time += done - fsm_done;
      if (obs::Tracer* t = machine_.tracer()) {
        t->complete(obs::Subsys::kEngine, obs::SpanKind::kManagerEvent,
                    obs::kManagerTid, fsm_done, done, 0, flow);
      }
      break;
    }
    case BaselineMode::kCohort: {
      // Linked pair: hand off directly. Otherwise the core polls the
      // software queue and coordinates the next step.
      if (c->i < c->ops->size() &&
          (*c->ops)[c->i].kind == LogicalOp::Kind::kInvoke &&
          cohort_links_.count({acc.type(), (*c->ops)[c->i].accel}) > 0) {
        issue_invoke(c, fsm_done, /*direct_hop=*/true);
      } else {
        ++s_.stats.polls;
        // The completion sits in the software queue until the core's next
        // poll sweep; when the polling core is deep in application work,
        // the sweep is much later (Cohort's tail weakness). Stall odds
        // scale with how busy the cores are.
        const double stall_p =
            costs_.cohort_stall_prob *
            std::min(1.0, machine_.cores().utilization() / 0.40);
        const double wait_us =
            s_.rng.bernoulli(stall_p)
                ? s_.rng.uniform(costs_.cohort_stall_min_us,
                                 costs_.cohort_stall_max_us)
                : s_.rng.uniform(0.0, costs_.cohort_poll_interval_us);
        const auto sweep_wait = static_cast<sim::TimePs>(wait_us * 1e6);
        const sim::TimePs poll =
            machine_.cores().cycles(costs_.cohort_poll_cycles);
        s_.stats.orchestration_time += sweep_wait + poll;
        machine_.sim().schedule_after(sweep_wait, [this, c, poll] {
          machine_.cores().run_on(c->ctx->core, poll, [this, c] {
            step(c, machine_.sim().now());
          });
        });
      }
      break;
    }
    case BaselineMode::kNonAcc:
      assert(false);
      break;
  }
}

void BaselineOrchestrator::run_on_cpu(ChainContext* ctx, std::uint64_t word,
                                      std::uint8_t pm, std::uint64_t bytes,
                                      AccelType pending) {
  // Outside Non-acc, the core only runs what the ensemble refused.
  const bool fell_back = mode_ != BaselineMode::kNonAcc;
  const CpuSegment seg =
      price_cpu_segment(lib_, machine_.cores(), machine_.checker(), *ctx,
                        word, pm, bytes, pending, /*stop_at_invoke=*/false);
  auto after = [this, ctx, seg, fell_back] {
    if (seg.stop == CpuSegment::Stop::kEnd) {
      finish(ctx, /*timed_out=*/false, fell_back);
      return;
    }
    // Network wait: the core is released; resume on the response.
    const ResponseWait w = await_response(
        machine_.sim(), *ctx, seg.remote, machine_.sim().now(),
        sim::milliseconds(costs_.response_timeout_ms),
        [this, ctx, fell_back] {
          finish(ctx, /*timed_out=*/true, fell_back);
        },
        [this, ctx, seg](std::uint64_t resp) {
          run_on_cpu(ctx, seg.word, seg.pm, resp, seg.accel);
        });
    if (w.kind == ResponseWait::Kind::kTimeout) ++s_.stats.timeouts;
  };
  if (seg.time == 0) {
    after();
  } else {
    machine_.cores().run_on(ctx->core, seg.time, after);
  }
}

void BaselineOrchestrator::finish(ChainContext* ctx, bool timed_out,
                                  bool fell_back) {
  ++s_.stats.completed;
  if (obs::Tracer* t = machine_.tracer()) {
    const obs::FlowId flow = obs::flow_id(ctx->request, ctx->chain);
    const sim::TimePs now = machine_.sim().now();
    const auto tid = static_cast<std::uint32_t>(ctx->core);
    // arg carries the tenant (== workload service index), as in the
    // AccelFlow engine, for post-hoc per-service attribution.
    t->instant(obs::Subsys::kEngine,
               timed_out ? obs::SpanKind::kTimeout : obs::SpanKind::kChainDone,
               tid, now, ctx->tenant, flow);
    t->flow(obs::Phase::kFlowEnd, obs::Subsys::kEngine, tid, now, flow);
  }
  const ChainResult r{.ok = !timed_out,
                      .cpu_fallback = fell_back,
                      .timeout = timed_out,
                      .completed_at = machine_.sim().now()};
  if (ValidationHooks* v = machine_.checker()) v->on_chain_finish(*ctx, r);
  chains_.erase(ctx);
  ctx->finish(r);
}

}  // namespace accelflow::core
