#include "core/cpu_executor.h"

#include <cassert>

#include "core/validation_hooks.h"

namespace accelflow::core {

struct CpuChainExecutor::Run {
  ChainContext* ctx = nullptr;
  std::vector<LogicalOp> ops;
  std::size_t i = 0;
  std::uint64_t bytes = 0;
  std::function<void(bool)> done;
};

CpuChainExecutor::CpuChainExecutor(Machine& machine,
                                   sim::TimePs response_timeout)
    : machine_(machine), timeout_(response_timeout) {}

sim::TimePs CpuChainExecutor::cpu_transform_time(std::uint64_t bytes) const {
  // Software format conversion streams the payload at ~2 GB/s on a core.
  return static_cast<sim::TimePs>(static_cast<double>(bytes) / 2e9 * 1e12);
}

void CpuChainExecutor::run(ChainContext* ctx, std::vector<LogicalOp> ops,
                           std::uint64_t payload_bytes,
                           std::function<void(bool)> done) {
  ++stats_.chains;
  auto r = std::make_shared<Run>();
  r->ctx = ctx;
  r->ops = std::move(ops);
  r->bytes = payload_bytes;
  r->done = std::move(done);
  step(std::move(r));
}

void CpuChainExecutor::step(std::shared_ptr<Run> r) {
  // Coalesce compute ops into one core segment until a network wait or the
  // end of the op list.
  ChainContext* ctx = r->ctx;
  const double tax_speed = machine_.cores().params().tax_speed;
  sim::TimePs segment = 0;
  while (r->i < r->ops.size() &&
         r->ops[r->i].kind != LogicalOp::Kind::kRemoteWait) {
    const LogicalOp& op = r->ops[r->i];
    switch (op.kind) {
      case LogicalOp::Kind::kInvoke:
        segment += static_cast<sim::TimePs>(
            static_cast<double>(
                ctx->env->op_cpu_cost(*ctx, op.accel, r->bytes)) /
            tax_speed);
        if (ValidationHooks* v = machine_.checker()) {
          v->on_stage(*ctx, op.accel, r->bytes, /*on_cpu=*/true);
        }
        r->bytes = ctx->env->transformed_size(op.accel, r->bytes);
        ++ctx->accel_invocations;
        ++stats_.ops;
        break;
      case LogicalOp::Kind::kBranchResolve:
        // A couple of compares: negligible but non-zero.
        segment += machine_.cores().cycles(20);
        ++ctx->branches;
        break;
      case LogicalOp::Kind::kTransform:
        segment += static_cast<sim::TimePs>(
            static_cast<double>(cpu_transform_time(r->bytes)) / tax_speed);
        ++ctx->transforms;
        break;
      case LogicalOp::Kind::kNotifyCont:
        ++ctx->mid_notifies;
        break;
      case LogicalOp::Kind::kRemoteWait:  // Ends the segment (see above).
        break;
    }
    ++r->i;
  }

  auto after_segment = [this, r]() mutable {
    if (r->i >= r->ops.size()) {
      const auto done = std::move(r->done);
      if (done) done(false);
      return;
    }
    // Network wait: the core is released; resume on response arrival.
    const ResponseWait w = await_response(
        machine_.sim(), *r->ctx, r->ops[r->i].remote, machine_.sim().now(),
        timeout_,
        [r] {
          if (r->done) r->done(true);
        },
        [this, r](std::uint64_t bytes) mutable {
          ++r->i;
          r->bytes = bytes;
          step(std::move(r));
        });
    if (w.kind == ResponseWait::Kind::kTimeout) ++stats_.timeouts;
  };

  if (segment == 0) {
    after_segment();
  } else {
    machine_.cores().run_on(ctx->core, segment, after_segment);
  }
}

}  // namespace accelflow::core
