#ifndef ACCELFLOW_WORKLOAD_SERVICE_H_
#define ACCELFLOW_WORKLOAD_SERVICE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/chain.h"
#include "core/trace_analysis.h"
#include "core/trace_library.h"
#include "sim/random.h"
#include "workload/tax.h"

/**
 * @file
 * Parametric microservice models.
 *
 * A service is described by (1) its Table-IV execution path — CPU segments
 * interleaved with groups of parallel accelerator chains — and (2) a
 * calibration: total unloaded CPU time and its Figure-1 split across tax
 * categories, branch-outcome probabilities, and payload-size distributions.
 * At construction the per-invocation cost of each category is derived by
 * dividing the category budget by the number of invocations on the
 * most-common path, so a Non-acc run of the service reproduces the
 * configured breakdown by construction.
 */

namespace accelflow::workload {

/** Probabilities of each payload condition bit, per chain. */
struct FlagProbs {
  double compressed = 0.10;
  double hit = 0.90;
  double found = 0.97;
  double exception = 0.01;
  double c_compressed = 0.05;

  /** The most likely outcome of every bit (the "most common path"). */
  accel::PayloadFlags most_common() const {
    accel::PayloadFlags f;
    f.compressed = compressed >= 0.5;
    f.hit = hit >= 0.5;
    f.found = found >= 0.5;
    f.exception = exception >= 0.5;
    f.c_compressed = c_compressed >= 0.5;
    return f;
  }

  /** Samples a concrete flag vector. */
  accel::PayloadFlags sample(sim::Rng& rng) const {
    accel::PayloadFlags f;
    f.compressed = rng.bernoulli(compressed);
    f.hit = rng.bernoulli(hit);
    f.found = rng.bernoulli(found);
    f.exception = rng.bernoulli(exception);
    f.c_compressed = rng.bernoulli(c_compressed);
    return f;
  }
};

/** One group of chains launched in parallel from the CPU. */
struct ChainGroup {
  std::string trace;  ///< Template name, e.g. "T9c".
  int count = 1;      ///< Parallel instances (Table IV's "4x(T9-T10)").
  FlagProbs flags;    ///< Branch-outcome probabilities for these chains.
};

/** One step of a service's execution path. */
struct StageSpec {
  enum class Kind : std::uint8_t { kCpu, kChains };
  Kind kind = Kind::kCpu;
  /** kCpu: this stage's share of the service's AppLogic budget. */
  double cpu_weight = 1.0;
  /** kChains: the groups launched concurrently; the stage ends when every
   *  chain has returned control to the core. */
  std::vector<ChainGroup> groups;
};

/** Static description of a service. */
struct ServiceSpec {
  std::string name;
  /** Mean unloaded total CPU time of one invocation on Non-acc (tax
   *  included, network waits excluded). */
  sim::TimePs total_cpu_time = sim::microseconds(100);
  /** Figure-1 split of total_cpu_time (must sum to ~1). */
  TaxFractions fractions = kPaperAverageFractions;
  /** Shape (cv) of per-operation cost draws. */
  double cost_cv = 0.30;
  /** Request payload size: log-normal around this median. */
  std::uint64_t payload_median_bytes = 2600;
  double payload_cv = 1.2;
  std::vector<StageSpec> stages;

  // Remote-response latency means (microseconds) per RemoteKind.
  double db_cache_read_us = 18.0;
  double db_read_us = 80.0;
  double db_write_us = 35.0;
  double nested_rpc_us = 35.0;
  double http_us = 150.0;
  double remote_cv = 0.7;

  /**
   * Colocated services this service's nested RPCs (T9/T9c) target, by
   * name. When non-empty, a nested RPC becomes a *real sub-request* of a
   * random callee on the same machine — so callee latency (and hence the
   * caller's tail) scales with the architecture, as in DeathStarBench.
   * When empty, the sampled nested_rpc_us model applies (off-machine
   * callee).
   */
  std::vector<std::string> rpc_callees;
  /** Wire + client-stack round trip added on top of the callee latency. */
  double rpc_wire_rtt_us = 4.0;
};

/**
 * Runtime form of a service: resolves trace names to ATM addresses,
 * derives per-category per-op costs, and implements core::ChainEnv.
 */
class Service : public core::ChainEnv {
 public:
  Service(const ServiceSpec& spec, const core::TraceLibrary& lib);

  const ServiceSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  /** Resolved ATM address of stage `s`, group `g`. */
  core::AtmAddr group_addr(std::size_t s, std::size_t g) const {
    return stage_addrs_[s][g];
  }

  /**
   * Expected accelerator invocations per service invocation on the
   * most-common path (Table IV's "#" column).
   */
  int invocations_most_common_path() const { return most_common_invocations_; }

  /** Expected invocations of each category on the most-common path. */
  const std::array<double, kNumTaxCategories>& category_ops() const {
    return category_ops_;
  }

  /** Mean CPU cost of one op of `type` (before size scaling). */
  sim::TimePs mean_op_cost(accel::AccelType type) const {
    return category_cost_[static_cast<std::size_t>(category_of(type))];
  }

  /** Mean CPU time of one AppLogic segment with weight `w`. */
  sim::TimePs app_segment_mean(double weight) const;

  /** Sum of cpu_weight over the kCpu stages. */
  double total_cpu_weight() const { return total_cpu_weight_; }

  /**
   * Installed by the RequestEngine: injects a sub-request of service
   * `callee` and calls the continuation with the response size when it
   * completes.
   */
  using NestedInjector = std::function<void(
      core::ChainContext&, std::size_t callee,
      std::function<void(std::uint64_t)> deliver)>;
  void set_nested_injector(NestedInjector injector,
                           std::vector<std::size_t> callee_indices) {
    injector_ = std::move(injector);
    callee_indices_ = std::move(callee_indices);
  }

  /** Resolved RPC-callee service indices (set_nested_injector order).
   *  The cluster layer reads these to re-install a cross-shard injector
   *  with the same callee universe. */
  const std::vector<std::size_t>& callee_indices() const {
    return callee_indices_;
  }

  // --- core::ChainEnv --------------------------------------------------
  sim::TimePs op_cpu_cost(core::ChainContext& ctx, accel::AccelType type,
                          std::uint64_t payload_bytes) override;
  std::uint64_t transformed_size(accel::AccelType type,
                                 std::uint64_t bytes) override;
  sim::TimePs remote_latency(core::ChainContext& ctx,
                             core::RemoteKind kind) override;
  std::uint64_t response_size(core::ChainContext& ctx,
                              core::RemoteKind kind) override;
  bool nested_call(core::ChainContext& ctx, core::RemoteKind kind,
                   std::function<void(std::uint64_t)>& deliver) override;

 private:
  ServiceSpec spec_;
  NestedInjector injector_;
  std::vector<std::size_t> callee_indices_;
  std::vector<std::vector<core::AtmAddr>> stage_addrs_;
  std::array<double, kNumTaxCategories> category_ops_{};
  std::array<sim::TimePs, kNumTaxCategories> category_cost_{};
  int most_common_invocations_ = 0;
  double total_cpu_weight_ = 0.0;
};

/** Deterministic payload-size transfer functions (documented ratios). */
std::uint64_t default_transformed_size(accel::AccelType type,
                                       std::uint64_t bytes);

}  // namespace accelflow::workload

#endif  // ACCELFLOW_WORKLOAD_SERVICE_H_
