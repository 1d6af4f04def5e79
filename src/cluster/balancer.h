#ifndef ACCELFLOW_CLUSTER_BALANCER_H_
#define ACCELFLOW_CLUSTER_BALANCER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "accel/types.h"
#include "sim/time.h"
#include "workload/load_generator.h"

/**
 * @file
 * The load-balancer tier of a sharded datacenter (DESIGN.md §17).
 *
 * Every shard runs *replicated* arrival streams (see
 * workload::ArrivalRouter); the Balancer is the pure ownership function
 * those streams consult. Three routing policies mirror what production
 * L4/L7 tiers deploy:
 *
 *  - round-robin: arrival `seq` of each service cycles through the live
 *    shards — the stateless baseline;
 *  - least-loaded (join-the-shortest-queue): the shard with the fewest
 *    in-flight requests in the *barrier-synchronized* load snapshot wins
 *    (ties to the lowest index). The snapshot is refreshed once per
 *    conservative-lookahead window, modeling the bounded staleness a real
 *    LB's health-check/load-report loop has;
 *  - consistent-hash: each (service, seq) key hashes onto a ring of
 *    virtual nodes, so removing a shard remaps only the keys that shard
 *    owned (~1/N of them) — the session-affinity policy.
 *
 * Determinism contract: route() mutates nothing and reads only state that
 * is updated between windows (never during one), so concurrent calls from
 * every shard's replicated generators return identical answers regardless
 * of thread count or call order.
 *
 * The paper's LdB accelerator (Intel DLB, Table II) is the hardware that
 * executes this decision; its modeled per-decision cost is reported as
 * tier occupancy (decision_cost_ps/tier capacity) rather than perturbing
 * the arrival calendar — the decision is pipelined off the request's
 * critical path, which is what DLB's enqueue offload achieves.
 */

namespace accelflow::cluster {

/** Routing policy of the load-balancer tier. */
enum class BalancePolicy : std::uint8_t {
  kRoundRobin = 0,   ///< seq cycles through live shards.
  kLeastLoaded = 1,  ///< Fewest in-flight in the last load snapshot.
  kConsistentHash = 2,  ///< Ring hash of (service, seq); affinity.
};

/** Number of BalancePolicy values (array sizing). */
inline constexpr std::size_t kNumBalancePolicies = 3;

/** Stable snake_case name of a policy (bench JSON keys, CLI flags). */
constexpr std::string_view name_of(BalancePolicy p) {
  constexpr std::string_view kNames[kNumBalancePolicies] = {
      "round_robin", "least_loaded", "consistent_hash"};
  return kNames[static_cast<std::size_t>(p)];
}

/** The shard-ownership function of the load-balancer tier. */
class Balancer : public workload::ArrivalRouter {
 public:
  /** Virtual nodes per shard on the consistent-hash ring: enough that
   *  per-shard key shares concentrate near 1/N (CV ~ 1/sqrt(vnodes)). */
  static constexpr std::size_t kVnodesPerShard = 64;

  /**
   * @param policy routing policy.
   * @param shards total shard count; all start live.
   * @param seed perturbs the hash-ring point placement only (routing for
   *        kRoundRobin/kLeastLoaded is seed-free).
   */
  Balancer(BalancePolicy policy, std::size_t shards,
           std::uint64_t seed = 0xB417CE);

  BalancePolicy policy() const { return policy_; }
  std::size_t shards() const { return shards_; }

  /**
   * Restricts routing to `live` (ascending shard indices). Rebuilds the
   * hash ring from the surviving shards' unchanged vnode positions, so
   * keys owned by survivors keep their owner — the consistent-hash remap
   * bound (tests/test_cluster_balancer.cc). Call only between windows.
   */
  void set_live_shards(std::vector<std::size_t> live);

  /**
   * Refreshes the least-loaded snapshot (in-flight requests per shard,
   * indexed by shard). Called by the Datacenter at every window barrier;
   * concurrent route() calls never observe a half-written update because
   * no window is running during a barrier.
   */
  void update_load(std::vector<std::uint64_t> load);

  /** The current load snapshot (tests). */
  const std::vector<std::uint64_t>& load() const { return load_; }

  /** workload::ArrivalRouter: the owning shard of arrival (service, seq).
   *  Pure: reads only barrier-updated state, mutates nothing. */
  std::size_t route(std::size_t service, std::uint64_t seq,
                    sim::TimePs now) const override;

  /**
   * Modeled cost of one routing decision on the LdB accelerator: the
   * baseline CPU enqueue/steering cost divided by LdB's calibrated
   * speedup (accel::default_speedup). Used for tier-occupancy reporting
   * (BENCH_cluster.json), not for calendar perturbation.
   */
  static sim::TimePs decision_cost_ps();

 private:
  /** One point on the consistent-hash ring. */
  struct RingPoint {
    std::uint64_t point = 0;     ///< Position on the 2^64 ring.
    std::uint32_t shard = 0;     ///< Owning shard.
  };

  void rebuild_ring();

  BalancePolicy policy_;
  std::size_t shards_;
  std::uint64_t seed_;
  std::vector<std::size_t> live_;        ///< Ascending live shard indices.
  std::vector<std::uint64_t> load_;      ///< In-flight per shard (JSQ).
  std::vector<RingPoint> ring_;          ///< Sorted hash ring (live only).
};

}  // namespace accelflow::cluster

#endif  // ACCELFLOW_CLUSTER_BALANCER_H_
