#ifndef ACCELFLOW_SIM_CALLBACK_H_
#define ACCELFLOW_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

/**
 * @file
 * Allocation-free callable for the event kernel.
 *
 * The simulator executes tens of millions of callbacks per run; wrapping
 * each in a std::function costs a heap allocation and an indirect deleter
 * call per event. InlineCallback stores the callable in a fixed inline
 * buffer instead — construction is a placement-new into the event record,
 * destruction is a direct function-pointer call, and nothing ever touches
 * the allocator.
 *
 * The price is a hard capture budget: a callable larger than kInlineBytes
 * fails to compile (static_assert). Call sites that need to carry a large
 * payload (e.g. an 80-byte QueueEntry, above the 64-byte buffer) park the
 * payload in a side pool and capture the 4-byte ticket instead — see
 * core::AccelFlowEngine's parked-entry pool.
 */

namespace accelflow::sim {

/**
 * A move-only, allocation-free std::function<void()> replacement with
 * fixed inline storage.
 *
 * Requirements on the wrapped callable F:
 *  - sizeof(F) <= kInlineBytes and alignof(F) <= kInlineAlign;
 *  - nothrow move constructible (events move when the pool's slab grows).
 */
class InlineCallback {
 public:
  /** Capture budget. 64 bytes fits every kernel call site in the model
   *  (the largest is ~7 words) while keeping an event record within two
   *  cache lines. */
  static constexpr std::size_t kInlineBytes = 64;
  /** Maximum alignment of a wrapped callable. */
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /** Creates an empty callback (boolean-false, must not be invoked). */
  InlineCallback() noexcept = default;
  /** Creates an empty callback, mirroring std::function's nullptr init. */
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  /** Wraps callable `f` by moving/copying it into the inline buffer. */
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "InlineCallback wraps void() callables");
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "callback capture exceeds the inline budget: capture a "
                  "pooled ticket/index instead of the payload itself");
    static_assert(alignof(Fn) <= kInlineAlign,
                  "callback capture is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callback captures must be nothrow movable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  /** Relocates `other`'s callable into this wrapper, emptying `other`. */
  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  /** Destroys the current callable and relocates `other`'s in. */
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  /** Destroys the current callable, leaving the wrapper empty. */
  InlineCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /** Invokes the stored callable. Undefined if empty (like std::function
   *  without the bad_function_call ceremony: the kernel never stores empty
   *  callbacks). */
  void operator()() { ops_->invoke(storage_); }

  /** True when a callable is stored. */
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /** Destroys the stored callable, leaving the wrapper empty. */
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /** Move-constructs dst from src, then destroys src. */
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct OpsFor {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* src, void* dst) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops kOps = {&invoke, &relocate, &destroy};
  };

  void move_from(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/** Empty-test, mirroring std::function's nullptr comparison. */
inline bool operator==(const InlineCallback& cb, std::nullptr_t) noexcept {
  return !cb;
}
/** Non-empty-test, mirroring std::function's nullptr comparison. */
inline bool operator!=(const InlineCallback& cb, std::nullptr_t) noexcept {
  return static_cast<bool>(cb);
}

}  // namespace accelflow::sim

#endif  // ACCELFLOW_SIM_CALLBACK_H_
