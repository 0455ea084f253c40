// Small-buffer move-only callable, the engine's replacement for
// std::function on the event hot path.
//
// Motivation (ISSUE 8): every simulated disk operation used to pay two heap
// allocations — one when std::function captured the completion closure at
// schedule time and another when Simulator::Step copied the event off the
// binary heap. InlineFn stores the callable in an inline buffer sized by the
// owner (the simulator's event pool, SimDisk's completion slot), so the
// steady-state schedule → fire cycle allocates nothing. Callables larger
// than the buffer still work: they fall back to a single heap allocation,
// exactly like std::function, and moving the wrapper then just steals the
// pointer.
//
// Differences from std::function, on purpose:
//   * move-only — completion callbacks are invoked exactly once (MDL001), so
//     nothing should ever need to copy one;
//   * no target_type()/target() RTTI;
//   * invoking an empty InlineFn is a checked failure, not std::bad_function_call.
#ifndef MIMDRAID_SRC_UTIL_INLINE_FN_H_
#define MIMDRAID_SRC_UTIL_INLINE_FN_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {

template <typename Sig, size_t kInlineBytes = 64>
class InlineFn;  // primary template intentionally undefined

template <typename R, typename... Args, size_t kInlineBytes>
class InlineFn<R(Args...), kInlineBytes> {
 public:
  // Whether a callable of type F lives in the inline buffer rather than on
  // the heap. Hot-path construction sites static_assert it, so a capture that
  // outgrows the buffer fails the build instead of quietly costing one
  // allocation per call.
  template <typename F>
  static constexpr bool FitsInline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    if constexpr (FitsInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = &InvokeInline<Fn>;
      manage_ = &ManageInline<Fn>;
    } else {
      // Oversized (or over-aligned) callable: one heap allocation, moved by
      // pointer steal afterwards.
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = &InvokeHeap<Fn>;
      manage_ = &ManageHeap<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { MoveFrom(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  // Shallow-const call, matching std::function: invoking through a const
  // wrapper is allowed even when the callable mutates its own captures.
  R operator()(Args... args) const {
    MIMDRAID_CHECK(invoke_ != nullptr);
    return invoke_(const_cast<unsigned char*>(buf_),
                   std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  // Destroys the held callable (and with it everything the closure captured);
  // the eager-release half of Simulator::Cancel.
  void reset() {
    if (manage_ != nullptr) {
      manage_(buf_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  using InvokeFn = R (*)(unsigned char*, Args&&...);
  // dst == nullptr: destroy src in place. Otherwise: move-construct into dst's
  // buffer and destroy src.
  using ManageFn = void (*)(unsigned char* src, unsigned char* dst);

  template <typename Fn>
  static R InvokeInline(unsigned char* buf, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(buf)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void ManageInline(unsigned char* src, unsigned char* dst) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(src));
    if (dst != nullptr) {
      ::new (static_cast<void*>(dst)) Fn(std::move(*f));
    }
    f->~Fn();
  }

  template <typename Fn>
  static R InvokeHeap(unsigned char* buf, Args&&... args) {
    return (**std::launder(reinterpret_cast<Fn**>(buf)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void ManageHeap(unsigned char* src, unsigned char* dst) {
    Fn** slot = std::launder(reinterpret_cast<Fn**>(src));
    if (dst != nullptr) {
      ::new (static_cast<void*>(dst)) Fn*(*slot);
    } else {
      delete *slot;
    }
    // The Fn* itself is trivially destructible; nothing further to do.
  }

  void MoveFrom(InlineFn& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(other.buf_, buf_);
      invoke_ = other.invoke_;
      manage_ = other.manage_;
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_UTIL_INLINE_FN_H_
