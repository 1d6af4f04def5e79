#include "core/chain.h"

#include <cassert>
#include <utility>

#include "core/validation_hooks.h"
#include "cpu/core_cluster.h"

namespace accelflow::core {

ResponseWait await_response(sim::Simulator& sim, ChainContext& ctx,
                            RemoteKind kind, sim::TimePs from,
                            sim::TimePs timeout,
                            sim::Simulator::Callback on_timeout,
                            std::function<void(std::uint64_t)> deliver) {
  ++ctx.remote_calls;
  // Nested RPCs to colocated services: the callee runs on this machine.
  if (ctx.env->nested_call(ctx, kind, deliver)) return {};
  const sim::TimePs latency = ctx.env->remote_latency(ctx, kind);
  if (latency > timeout) {
    sim.schedule_after(timeout, std::move(on_timeout));
    return {ResponseWait::Kind::kTimeout};
  }
  // The response size is drawn when it lands. A waiting chain draws
  // nothing else from ctx.rng, so the draw order is that of arm time.
  const sim::TimePs at = from + latency;
  sim.schedule_at(at, [&ctx, kind, deliver = std::move(deliver)] {
    deliver(ctx.env->response_size(ctx, kind));
  });
  return {ResponseWait::Kind::kResponse, at};
}

accel::QueueEntry make_queue_entry(ChainContext& ctx, accel::AccelType op,
                                   std::uint64_t word, std::uint8_t pm,
                                   std::uint64_t bytes) {
  accel::QueueEntry e;
  e.trace_word = word;
  e.position_mark = pm;
  e.tenant = ctx.tenant;
  e.flow = obs::flow_id(ctx.request, ctx.chain);
  e.payload.size_bytes = bytes;
  e.payload.va = ctx.buffer_va;
  e.cpu_cost = ctx.env->op_cpu_cost(ctx, op, bytes);
  e.priority = ctx.priority;
  e.ctx = &ctx;
  return e;
}

sim::TimePs cpu_transform_time(std::uint64_t bytes) {
  return static_cast<sim::TimePs>(static_cast<double>(bytes) / 2e9 * 1e12);
}

CpuSegment price_cpu_segment(const TraceLibrary& lib,
                             const cpu::CoreCluster& cores,
                             ValidationHooks* chk, ChainContext& ctx,
                             std::uint64_t word, std::uint8_t pm,
                             std::uint64_t bytes, accel::AccelType pending,
                             bool stop_at_invoke) {
  const double tax_speed = cores.params().tax_speed;
  CpuSegment seg;
  const auto stop = [&](CpuSegment::Stop at, accel::AccelType next,
                        std::uint8_t next_pm) {
    seg.stop = at;
    seg.accel = next;
    seg.word = word;
    seg.pm = next_pm;
    seg.bytes = bytes;
    return seg;
  };
  for (;;) {
    // The pending invoke runs unaccelerated on the core.
    if (chk != nullptr) chk->on_stage(ctx, pending, bytes, /*on_cpu=*/true);
    seg.time += static_cast<sim::TimePs>(
        static_cast<double>(ctx.env->op_cpu_cost(ctx, pending, bytes)) /
        tax_speed);
    bytes = ctx.env->transformed_size(pending, bytes);
    ++ctx.accel_invocations;

    // Control ops up to the next invoke, a network wait or the end.
    TraceOp op = decode_op(word, pm);
    for (; op.kind != TraceOp::Kind::kInvoke; op = decode_op(word, pm)) {
      switch (op.kind) {
        case TraceOp::Kind::kBranchSkip:
          ++ctx.branches;
          seg.time += cores.cycles(20);
          pm = op.next_pm;
          if (!eval_condition(op.cond, ctx.flags)) pm += op.skip;
          break;
        case TraceOp::Kind::kBranchAtm:
          ++ctx.branches;
          seg.time += cores.cycles(20);
          if (eval_condition(op.cond, ctx.flags)) {
            pm = op.next_pm;
          } else {
            word = lib.get(op.atm).word;
            pm = 0;
          }
          break;
        case TraceOp::Kind::kTransform:
          ++ctx.transforms;
          seg.time += static_cast<sim::TimePs>(
              static_cast<double>(cpu_transform_time(bytes)) / tax_speed);
          pm = op.next_pm;
          break;
        case TraceOp::Kind::kNotifyCont:
          ++ctx.mid_notifies;
          pm = op.next_pm;
          break;
        case TraceOp::Kind::kTail: {
          word = lib.get(op.atm).word;
          pm = 0;
          seg.remote = lib.remote_of(op.atm);
          if (seg.remote == RemoteKind::kNone) break;
          // The response feeds the receive trace's first invoke.
          const TraceOp first = decode_op(word, 0);
          assert(first.kind == TraceOp::Kind::kInvoke);
          return stop(CpuSegment::Stop::kRemote, first.accel, first.next_pm);
        }
        case TraceOp::Kind::kEndNotify:
          return stop(CpuSegment::Stop::kEnd, pending, pm);
        case TraceOp::Kind::kInvoke:  // Ends the loop.
          break;
      }
    }
    if (stop_at_invoke) {
      return stop(CpuSegment::Stop::kInvoke, op.accel, op.next_pm);
    }
    pending = op.accel;
    pm = op.next_pm;
  }
}

}  // namespace accelflow::core
