#include "core/trace_analysis.h"

#include <cassert>

namespace accelflow::core {

ChainWalk walk_chain(const TraceLibrary& lib, AtmAddr start,
                     const accel::PayloadFlags& flags, int max_traces) {
  using Kind = LogicalOp::Kind;
  ChainWalk walk;
  std::uint64_t word = lib.get(start).word;
  std::uint8_t pm = 0;
  auto load_trace = [&](AtmAddr addr) {
    word = lib.get(addr).word;
    pm = 0;
    ++walk.traces_visited;
  };

  for (;;) {
    assert(walk.traces_visited <= max_traces && "ATM chain too long (cycle?)");
    (void)max_traces;
    const TraceOp op = decode_op(word, pm);
    switch (op.kind) {
      case TraceOp::Kind::kInvoke:
        if (!walk.invocations.empty()) {
          walk.edges.emplace_back(walk.invocations.back(), op.accel);
        }
        walk.invocations.push_back(op.accel);
        walk.ops.push_back({.kind = Kind::kInvoke,
                            .accel = op.accel,
                            .pm = op.next_pm,
                            .word = word});
        pm = op.next_pm;
        break;
      case TraceOp::Kind::kBranchSkip:
        ++walk.branches;
        walk.ops.push_back({.kind = Kind::kBranchResolve});
        pm = op.next_pm;
        if (!eval_condition(op.cond, flags)) pm += op.skip;
        break;
      case TraceOp::Kind::kBranchAtm:
        ++walk.branches;
        walk.ops.push_back({.kind = Kind::kBranchResolve});
        if (eval_condition(op.cond, flags)) {
          pm = op.next_pm;
        } else {
          load_trace(op.atm);
        }
        break;
      case TraceOp::Kind::kTransform:
        ++walk.transforms;
        walk.ops.push_back({.kind = Kind::kTransform});
        pm = op.next_pm;
        break;
      case TraceOp::Kind::kNotifyCont:
        ++walk.notifies;
        walk.ops.push_back({.kind = Kind::kNotifyCont});
        pm = op.next_pm;
        break;
      case TraceOp::Kind::kTail: {
        const RemoteKind remote = lib.remote_of(op.atm);
        if (remote != RemoteKind::kNone) {
          ++walk.remote_waits;
          walk.ops.push_back({.kind = Kind::kRemoteWait, .remote = remote});
        }
        load_trace(op.atm);
        break;
      }
      case TraceOp::Kind::kEndNotify:
        return walk;
    }
  }
}

namespace {

/** Collects branch ops appearing anywhere in the reachable trace set. */
void reachable_conditions(const TraceLibrary& lib, AtmAddr start,
                          std::set<AtmAddr>& seen, bool& found,
                          int max_traces) {
  if (found || seen.count(start) ||
      static_cast<int>(seen.size()) >= max_traces) {
    return;
  }
  seen.insert(start);
  std::uint8_t pm = 0;
  const std::uint64_t word = lib.get(start).word;
  for (;;) {
    const TraceOp op = decode_op(word, pm);
    switch (op.kind) {
      case TraceOp::Kind::kBranchSkip:
        found = true;
        return;
      case TraceOp::Kind::kBranchAtm:
        found = true;
        return;
      case TraceOp::Kind::kTail:
        reachable_conditions(lib, op.atm, seen, found, max_traces);
        return;
      case TraceOp::Kind::kEndNotify:
        return;
      default:
        pm = op.next_pm;
        break;
    }
  }
}

}  // namespace

bool chain_has_conditional(const TraceLibrary& lib, AtmAddr start,
                           int max_traces) {
  std::set<AtmAddr> seen;
  bool found = false;
  reachable_conditions(lib, start, seen, found, max_traces);
  return found;
}

ConnectivityTable build_connectivity(const TraceLibrary& lib,
                                     const std::vector<AtmAddr>& starts) {
  ConnectivityTable table;
  // Enumerate all 2^5 flag combinations so every branch direction is taken.
  for (unsigned bits = 0; bits < 32; ++bits) {
    accel::PayloadFlags f;
    f.compressed = bits & 1;
    f.hit = bits & 2;
    f.found = bits & 4;
    f.exception = bits & 8;
    f.c_compressed = bits & 16;
    for (const AtmAddr start : starts) {
      const ChainWalk w = walk_chain(lib, start, f);
      if (!w.invocations.empty()) {
        table.cpu_fed.insert(w.invocations.front());
        table.cpu_bound.insert(w.invocations.back());
      }
      for (const auto& [src, dst] : w.edges) {
        table.destinations[accel::index_of(src)].insert(dst);
        table.sources[accel::index_of(dst)].insert(src);
      }
    }
  }
  return table;
}

}  // namespace accelflow::core
