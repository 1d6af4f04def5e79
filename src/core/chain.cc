#include "core/chain.h"

#include <utility>

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

}  // namespace accelflow::core
