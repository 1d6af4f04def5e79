#include "workload/service.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace accelflow::workload {

std::uint64_t default_transformed_size(accel::AccelType type,
                                       std::uint64_t bytes) {
  double out = static_cast<double>(bytes);
  switch (type) {
    case accel::AccelType::kCmp:
      out *= 0.35;  // Zstd-class ratio on service payloads.
      break;
    case accel::AccelType::kDcmp:
      out *= 2.857;  // Inverse of the compression ratio.
      break;
    case accel::AccelType::kSer:
      out *= 1.15;  // Wire format framing overhead.
      break;
    case accel::AccelType::kDser:
      out *= 0.87;
      break;
    case accel::AccelType::kEncr:
      out += 16;  // AEAD tag.
      break;
    case accel::AccelType::kDecr:
      out = std::max(out - 16, 64.0);
      break;
    case accel::AccelType::kTcp:
    case accel::AccelType::kRpc:
    case accel::AccelType::kLdb:
      break;  // Header add/strip cancels at this granularity.
  }
  return static_cast<std::uint64_t>(
      std::clamp(out, 64.0, 256.0 * 1024.0));
}

Service::Service(const ServiceSpec& spec, const core::TraceLibrary& lib)
    : spec_(spec) {
  // Resolve trace names and count most-common-path category invocations.
  stage_addrs_.resize(spec_.stages.size());
  for (std::size_t s = 0; s < spec_.stages.size(); ++s) {
    const StageSpec& st = spec_.stages[s];
    if (st.kind == StageSpec::Kind::kCpu) {
      total_cpu_weight_ += st.cpu_weight;
      continue;
    }
    for (const ChainGroup& g : st.groups) {
      const core::AtmAddr addr = lib.addr_of(g.trace);
      stage_addrs_[s].push_back(addr);
      const core::ChainWalk& walk = lib.walk(addr, g.flags.most_common());
      for (const accel::AccelType t : walk.invocations) {
        category_ops_[static_cast<std::size_t>(category_of(t))] +=
            static_cast<double>(g.count);
      }
      most_common_invocations_ +=
          g.count * static_cast<int>(walk.invocations.size());
    }
  }
  assert(total_cpu_weight_ > 0.0 &&
         "a service needs at least one CPU stage");

  // Budget split: category i gets fractions[i] * total_cpu_time, divided
  // evenly across its most-common-path invocations.
  for (std::size_t c = 1; c < kNumTaxCategories; ++c) {
    const double budget = spec_.fractions[c] *
                          static_cast<double>(spec_.total_cpu_time);
    const double ops = category_ops_[c];
    category_cost_[c] =
        ops > 0 ? static_cast<sim::TimePs>(budget / ops) : 0;
  }
  category_cost_[0] = 0;  // AppLogic is charged through app_segment_mean.
}

sim::TimePs Service::app_segment_mean(double weight) const {
  const double budget =
      spec_.fractions[0] * static_cast<double>(spec_.total_cpu_time);
  return static_cast<sim::TimePs>(budget * weight / total_cpu_weight_);
}

sim::TimePs Service::op_cpu_cost(core::ChainContext& ctx,
                                 accel::AccelType type,
                                 std::uint64_t payload_bytes) {
  const sim::TimePs mean = mean_op_cost(type);
  if (mean == 0) return 0;
  // Costs scale sub-linearly with payload size around the service median
  // (per-byte work plus fixed per-message work).
  const double ref = static_cast<double>(spec_.payload_median_bytes);
  const double factor = std::clamp(
      std::sqrt(static_cast<double>(payload_bytes + 256) / (ref + 256)),
      0.5, 4.0);
  return static_cast<sim::TimePs>(
      ctx.rng.lognormal_mean_cv(static_cast<double>(mean) * factor,
                                spec_.cost_cv));
}

std::uint64_t Service::transformed_size(accel::AccelType type,
                                        std::uint64_t bytes) {
  return default_transformed_size(type, bytes);
}

sim::TimePs Service::remote_latency(core::ChainContext& ctx,
                                    core::RemoteKind kind) {
  double mean_us = 0;
  switch (kind) {
    case core::RemoteKind::kDbCacheRead:
      mean_us = spec_.db_cache_read_us;
      break;
    case core::RemoteKind::kDbRead:
      mean_us = spec_.db_read_us;
      break;
    case core::RemoteKind::kDbWrite:
      mean_us = spec_.db_write_us;
      break;
    case core::RemoteKind::kNestedRpc:
      mean_us = spec_.nested_rpc_us;
      break;
    case core::RemoteKind::kHttp:
      mean_us = spec_.http_us;
      break;
    case core::RemoteKind::kNone:
      return 0;
  }
  return sim::microseconds(
      ctx.rng.lognormal_mean_cv(mean_us, spec_.remote_cv));
}

bool Service::nested_call(core::ChainContext& ctx, core::RemoteKind kind,
                          std::function<void(std::uint64_t)>& deliver) {
  if (kind != core::RemoteKind::kNestedRpc || !injector_ ||
      callee_indices_.empty()) {
    return false;
  }
  const std::size_t callee = callee_indices_[static_cast<std::size_t>(
      ctx.rng.next_below(callee_indices_.size()))];
  injector_(ctx, callee, std::move(deliver));
  return true;
}

std::uint64_t Service::response_size(core::ChainContext& ctx,
                                     core::RemoteKind kind) {
  // Reads return values (payload-sized); writes and RPC responses return
  // small acknowledgements / results.
  double median = static_cast<double>(spec_.payload_median_bytes);
  switch (kind) {
    case core::RemoteKind::kDbWrite:
      median = 256;
      break;
    case core::RemoteKind::kNestedRpc:
      median *= 0.8;
      break;
    case core::RemoteKind::kHttp:
      median *= 2.0;
      break;
    default:
      break;
  }
  const double v = ctx.rng.lognormal_mean_cv(median, spec_.payload_cv);
  return static_cast<std::uint64_t>(std::clamp(v, 64.0, 256.0 * 1024.0));
}

}  // namespace accelflow::workload
