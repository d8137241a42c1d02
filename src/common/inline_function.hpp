// Inline callable held as plain data.
//
// The discrete-event hot path schedules millions of short-lived closures per
// tuning run; `std::function` only inlines very small targets (16 bytes on
// libstdc++), so the typical `[this, request, done]` capture heap-allocates
// on every schedule.  InlineFunction is an invoke pointer plus `Capacity`
// inline bytes, and nothing else: its target must be trivially copyable and
// fit the buffer (a compile error otherwise), so the object itself is
// trivially copyable.  Copying or moving one copies those bytes, and
// destroying one does nothing.  There is no manager, no heap fallback and
// no ownership: a capture that owns memory (a std::unique_ptr, a
// std::string, a std::vector) does not compile.  Per-request state that a
// continuation needs lives in a pooled call struct, and the closure
// captures a pointer to it (common/object_pool.hpp).
//
// A moved-from InlineFunction keeps its target.  Moving is copying, so the
// source still holds a callable copy of the capture; it must not be called
// again once its target has been handed on.  The callbacks here fire
// exactly once, and every holder that hands one on (an event queue slot, a
// ring buffer slot, a pooled call) stops using its copy.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ah::common {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;  // undefined; specialised for function signatures

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& callable) noexcept {  // NOLINT(runtime/explicit)
    static_assert(stores_inline<D>(),
                  "an InlineFunction target must be trivially copyable and "
                  "fit the inline buffer: capture a pointer to a pooled "
                  "call struct instead of owning state");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(callable));
    invoke_ = &invoke_target<D>;
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  /// True when `F` can be a target: trivially copyable, at most
  /// `Capacity` bytes, and no more aligned than a pointer.
  template <typename F>
  [[nodiscard]] static constexpr bool stores_inline() {
    using D = std::decay_t<F>;
    return std::is_trivially_copyable_v<D> && sizeof(D) <= Capacity &&
           alignof(D) <= alignof(void*);
  }

 private:
  using Invoke = R (*)(void*, Args&&...);

  template <typename D>
  static R invoke_target(void* self, Args&&... args) {
    return (*std::launder(static_cast<D*>(self)))(std::forward<Args>(args)...);
  }

  Invoke invoke_ = nullptr;
  alignas(void*) std::byte storage_[Capacity];
};

}  // namespace ah::common
