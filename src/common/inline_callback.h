#ifndef DLROVER_COMMON_INLINE_CALLBACK_H_
#define DLROVER_COMMON_INLINE_CALLBACK_H_

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dlrover {

/// A move-only `void()` callable with a small-buffer optimization sized for
/// simulation callbacks. Closures whose captures fit in kInlineBytes are
/// stored directly inside the object — scheduling such a callback performs
/// zero heap allocations, which is what keeps the simulator's steady-state
/// event loop allocation-free (std::function only guarantees inline storage
/// for tiny trivially-copyable captures, ~16 bytes on libstdc++).
/// Oversized closures fall back to a single heap allocation; those appear
/// only on cold paths (job arrival, migration) where a capture hauls a whole
/// config around.
///
/// Dispatch is a pointer to a static ops table (invoke / relocate /
/// destroy), so invoking a callback is one indirect call — same cost
/// profile as std::function's happy path, without its allocation cliff.
/// Most closures capture only `this`, ids and numbers, i.e. they are
/// trivially copyable: their table has no relocate or destroy entry, so a
/// move is a fixed-size memcpy of the buffer and destruction is free. The
/// simulator moves every event's callback several times between scheduling
/// and firing, which makes this the common case worth a branch.
class InlineCallback {
 public:
  /// Inline capture budget. Large enough for every steady-state closure in
  /// the codebase (`this` + a couple of values); a cache line keeps the
  /// event slab slots from sharing lines.
  static constexpr size_t kInlineBytes = 56;

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}  // NOLINT: implicit like std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT: implicit like std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = InlineOps<Fn>();
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      ::new (static_cast<void*>(buf_)) Fn*(heap);
      ops_ = HeapOps<Fn>();
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallback& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty InlineCallback");
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs the payload from `src` storage into `dst` storage and
    /// destroys the source payload. Null when a memcpy of the buffer does
    /// the same (trivially copyable payloads, and the heap pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when the payload needs no destruction.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static const Ops* InlineOps() {
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      static constexpr Ops ops = {
          [](void* s) { (*static_cast<Fn*>(s))(); }, nullptr, nullptr};
      return &ops;
    } else {
      static constexpr Ops ops = {
          [](void* s) { (*static_cast<Fn*>(s))(); },
          [](void* dst, void* src) noexcept {
            Fn* from = static_cast<Fn*>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
      };
      return &ops;
    }
  }

  template <typename Fn>
  static const Ops* HeapOps() {
    static constexpr Ops ops = {
        [](void* s) { (**static_cast<Fn**>(s))(); },
        nullptr,
        [](void* s) noexcept { delete *static_cast<Fn**>(s); },
    };
    return &ops;
  }

  void MoveFrom(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }

  void Reset() {
    if (ops_ == nullptr) return;
    if (ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace dlrover

#endif  // DLROVER_COMMON_INLINE_CALLBACK_H_
