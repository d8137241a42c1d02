// Small-buffer-optimised move-only callable.
//
// The discrete-event hot path schedules millions of short-lived closures per
// tuning run; `std::function` only inlines very small targets (16 bytes on
// libstdc++), so the typical `[this, request, done]` capture heap-allocates
// on every schedule.  InlineFunction stores any callable up to `Capacity`
// bytes (48 by default — sized for the simulator's largest common closures)
// directly in the object, falling back to the heap only for oversized or
// throwing-move targets.  Move-only on purpose: event/task closures are
// consumed exactly once, and dropping copyability lets the queue hold
// move-only callables (e.g. std::packaged_task) without shared_ptr wrappers.
//
// Assigning a callable constructs it straight in the buffer, which lets a
// container build a closure in its final slot instead of moving it there.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ah::common {

/// Whether a capture that does not fit the inline buffer may fall back to
/// the heap.  Hot-path callable aliases (sim::EventFn, webstack::ResponseFn,
/// ...) use kRequired so an oversized capture is a compile error instead of
/// a silent allocation regression caught (at best) by zero_alloc_test.
enum class SboPolicy { kRelaxed, kRequired };

template <typename Signature, std::size_t Capacity = 48,
          SboPolicy Policy = SboPolicy::kRelaxed>
class InlineFunction;  // undefined; specialised for function signatures

template <typename R, typename... Args, std::size_t Capacity, SboPolicy Policy>
class InlineFunction<R(Args...), Capacity, Policy> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& callable) {  // NOLINT(runtime/explicit)
    construct<D>(std::forward<F>(callable));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  /// Replaces the target with `callable`, constructed in place.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction& operator=(F&& callable) {
    reset();
    construct<D>(std::forward<F>(callable));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  R operator()(Args... args) {
    return invoke_(&storage_, std::forward<Args>(args)...);
  }

  // Alloc-free; the text-level call graph taints it via the name it shares
  // with Histogram::reset.
  // AH_LINT_ALLOW(hot_path_reach, "name-share with Histogram::reset")
  void reset() noexcept {
    if (manage_ != nullptr) manage_(&storage_, nullptr, Op::kDestroy);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// True when the target lives in the inline buffer (diagnostics/tests).
  template <typename F>
  [[nodiscard]] static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>;
  }

 private:
  enum class Op { kDestroy, kMove };

  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(void* self, void* from, Op op);

  // Inline storage requires a nothrow move so that InlineFunction's own
  // move operations stay noexcept (the event heap relocates items freely).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F, typename Arg>
  void construct(Arg&& callable) {
    if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(&storage_)) F(std::forward<Arg>(callable));
      invoke_ = [](void* self, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<F*>(self)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](void* self, void* from, Op op) {
        if (op == Op::kDestroy) {
          std::launder(reinterpret_cast<F*>(self))->~F();
        } else {
          F* source = std::launder(reinterpret_cast<F*>(from));
          ::new (self) F(std::move(*source));
          source->~F();
        }
      };
    } else {
      static_assert(Policy == SboPolicy::kRelaxed || sizeof(F) == 0,
                    "capture exceeds the inline buffer (or has a throwing "
                    "move) of an SboPolicy::kRequired InlineFunction — "
                    "shrink the capture or park it in a pooled call struct");
      // Heap fallback: the buffer holds a single owning pointer.
      ::new (static_cast<void*>(&storage_))
          F*(new F(std::forward<Arg>(callable)));
      invoke_ = [](void* self, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<F**>(self)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](void* self, void* from, Op op) {
        if (op == Op::kDestroy) {
          delete *std::launder(reinterpret_cast<F**>(self));
        } else {
          ::new (self) F*(*std::launder(reinterpret_cast<F**>(from)));
        }
      };
    }
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.manage_(&storage_, &other.storage_, Op::kMove);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace ah::common
