#ifndef ACCELFLOW_CORE_TRACE_LIBRARY_H_
#define ACCELFLOW_CORE_TRACE_LIBRARY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/trace_encoding.h"

/**
 * @file
 * The software-side registry of traces a service has constructed
 * (Section V.4: programmers build traces through the API and invoke them by
 * name with run_trace). The library owns the name -> ATM-address mapping
 * and the metadata the simulator needs about TAIL edges that wait for a
 * network response.
 */

namespace accelflow::core {

/**
 * What a TAIL-armed receive trace waits for. The paper's traces wait on
 * database-cache reads/writes, database reads, nested RPCs, and HTTP
 * requests (Table II).
 */
enum class RemoteKind : std::uint8_t {
  kNone = 0,       ///< TAIL chains immediately (no network wait).
  kDbCacheRead,    ///< T4 -> T5.
  kDbRead,         ///< T5-miss -> T6.
  kDbWrite,        ///< T8 / T6 write-back -> T7.
  kNestedRpc,      ///< T9 -> T10.
  kHttp,           ///< T11 -> T12.
};

inline constexpr std::size_t kNumRemoteKinds = 6;

struct ChainWalk;

constexpr std::string_view name_of(RemoteKind k) {
  constexpr std::string_view kNames[kNumRemoteKinds] = {
      "none", "db-cache-read", "db-read", "db-write", "nested-rpc", "http"};
  return kNames[static_cast<std::size_t>(k)];
}

/** Registry of named traces and their ATM placement. */
class TraceLibrary {
 public:
  /** Reserves an address for `name` (forward references). */
  AtmAddr reserve(const std::string& name);

  /** Registers `t` under `name` (reusing a reserved address if present). */
  AtmAddr add(const std::string& name, const Trace& t);

  /** Marks arrivals at `target` as waiting for a `kind` network response. */
  void set_remote(AtmAddr target, RemoteKind kind);

  bool contains(const std::string& name) const;
  /** True if a trace has actually been stored at `addr` (not just reserved). */
  bool stored(AtmAddr addr) const;
  AtmAddr addr_of(const std::string& name) const;
  const Trace& get(AtmAddr addr) const;
  const Trace& get(const std::string& name) const {
    return get(addr_of(name));
  }
  const std::string& name_of_addr(AtmAddr addr) const;

  /** RemoteKind::kNone if the target trace starts immediately. */
  RemoteKind remote_of(AtmAddr target) const;

  std::size_t size() const { return traces_.size(); }

  /** All registered addresses in registration order. */
  const std::vector<AtmAddr>& addresses() const { return order_; }

  /**
   * walk_chain(*this, start, flags) (core/trace_analysis.h), memoized per
   * (start, flags): the one static walk that the baselines, the invariant
   * checker and Service read. add() and set_remote() drop the memo, and
   * with it every reference returned before. The memo is mutable inside a
   * const library, so a library is read from one thread only: each
   * workload::Deployment (and so each cluster shard) owns its library,
   * and no library is shared across ParallelRunner threads.
   */
  const ChainWalk& walk(AtmAddr start, const accel::PayloadFlags& flags) const;

 private:
  struct Slot {
    std::string name;
    Trace trace;
    bool stored = false;
    RemoteKind remote = RemoteKind::kNone;
  };
  std::map<std::string, AtmAddr> by_name_;
  std::map<AtmAddr, Slot> traces_;
  std::vector<AtmAddr> order_;
  AtmAddr next_addr_ = 1;  // Address 0 is reserved as "no trace".
  /** walk() memo: the key packs the start address and the flag bits. */
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<const ChainWalk>>
      walks_;
};

}  // namespace accelflow::core

#endif  // ACCELFLOW_CORE_TRACE_LIBRARY_H_
