#ifndef ACCELFLOW_SIM_POOL_H_
#define ACCELFLOW_SIM_POOL_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

/**
 * @file
 * A slab-backed parking pool for values carried across kernel callbacks.
 *
 * InlineCallback (sim/callback.h) imposes a hard capture budget, so event
 * callbacks cannot capture large payloads (e.g. an 80-byte QueueEntry,
 * above the 64-byte buffer) by value. Instead the payload is parked here and the 4-byte ticket is
 * captured; the callback redeems the ticket when it fires. Slots recycle
 * through a free list, so steady state allocates nothing.
 */

namespace accelflow::sim {

/**
 * Parks values of type T against 4-byte tickets.
 *
 * Every park() must be balanced by exactly one take() (or drop(), for
 * paths that abandon the value). Single-threaded, like the simulator.
 */
template <typename T>
class TicketPool {
 public:
  /** Redeemable claim on a parked value. */
  using Ticket = std::uint32_t;

  /** Parks `value`; the returned ticket redeems it exactly once. */
  Ticket park(T value) {
    Ticket t;
    if (!s_.free_list.empty()) {
      t = s_.free_list.back();
      s_.free_list.pop_back();
      s_.slab[t] = std::move(value);
    } else {
      t = static_cast<Ticket>(s_.slab.size());
      s_.slab.push_back(std::move(value));
    }
    ++s_.parked;
    return t;
  }

  /** Redeems a ticket, moving the value out and freeing the slot. */
  T take(Ticket t) {
    assert(t < s_.slab.size());
    T out = std::move(s_.slab[t]);
    release(t);
    return out;
  }

  /** Abandons a parked value (e.g. a timed-out path that no longer needs
   *  the payload). */
  void drop(Ticket t) {
    assert(t < s_.slab.size());
    s_.slab[t] = T{};  // Release any resources the value held.
    release(t);
  }

  /** Values currently parked (for leak checks in tests). */
  std::size_t parked() const { return s_.parked; }

  /** The pool's slots and free list, copied whole by checkpoint()
   *  (requires T copyable; DESIGN.md §13). */
  struct State {
    std::vector<T> slab;            ///< Slot values (live and free).
    std::vector<Ticket> free_list;  ///< Recycled-ticket stack.
    std::size_t parked = 0;         ///< Live-value count.
  };
  using Checkpoint = State;

  Checkpoint checkpoint() const { return s_; }
  void restore(const Checkpoint& c) { s_ = c; }

 private:
  void release(Ticket t) {
    assert(s_.parked > 0);
    --s_.parked;
    s_.free_list.push_back(t);
  }

  State s_;
};

}  // namespace accelflow::sim

#endif  // ACCELFLOW_SIM_POOL_H_
