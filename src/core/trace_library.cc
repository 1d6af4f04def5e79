#include "core/trace_library.h"

#include <cassert>
#include <stdexcept>

#include "core/trace_analysis.h"

namespace accelflow::core {

AtmAddr TraceLibrary::reserve(const std::string& name) {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  if (next_addr_ == 0) {
    throw std::runtime_error("trace library full (256 ATM slots)");
  }
  const AtmAddr addr = next_addr_++;
  by_name_[name] = addr;
  traces_[addr].name = name;
  order_.push_back(addr);
  return addr;
}

AtmAddr TraceLibrary::add(const std::string& name, const Trace& t) {
  std::string error;
  if (!validate(t, &error)) {
    throw std::runtime_error("invalid trace '" + name + "': " + error);
  }
  const AtmAddr addr = reserve(name);
  Slot& slot = traces_[addr];
  slot.trace = t;
  slot.stored = true;
  walks_.clear();
  return addr;
}

void TraceLibrary::set_remote(AtmAddr target, RemoteKind kind) {
  auto it = traces_.find(target);
  assert(it != traces_.end());
  it->second.remote = kind;
  walks_.clear();
}

bool TraceLibrary::contains(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return false;
  return traces_.at(it->second).stored;
}

bool TraceLibrary::stored(AtmAddr addr) const {
  const auto it = traces_.find(addr);
  return it != traces_.end() && it->second.stored;
}

AtmAddr TraceLibrary::addr_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("unknown trace: " + name);
  }
  return it->second;
}

const Trace& TraceLibrary::get(AtmAddr addr) const {
  const auto it = traces_.find(addr);
  if (it == traces_.end() || !it->second.stored) {
    throw std::out_of_range("no trace stored at ATM address " +
                            std::to_string(addr));
  }
  return it->second.trace;
}

const std::string& TraceLibrary::name_of_addr(AtmAddr addr) const {
  return traces_.at(addr).name;
}

RemoteKind TraceLibrary::remote_of(AtmAddr target) const {
  const auto it = traces_.find(target);
  return it == traces_.end() ? RemoteKind::kNone : it->second.remote;
}

const ChainWalk& TraceLibrary::walk(AtmAddr start,
                                    const accel::PayloadFlags& flags) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(start) << 8) |
      (static_cast<std::uint64_t>(flags.compressed) << 0) |
      (static_cast<std::uint64_t>(flags.hit) << 1) |
      (static_cast<std::uint64_t>(flags.found) << 2) |
      (static_cast<std::uint64_t>(flags.exception) << 3) |
      (static_cast<std::uint64_t>(flags.c_compressed) << 4);
  std::shared_ptr<const ChainWalk>& w = walks_[key];
  if (w == nullptr) {
    w = std::make_shared<const ChainWalk>(walk_chain(*this, start, flags));
  }
  return *w;
}

}  // namespace accelflow::core
