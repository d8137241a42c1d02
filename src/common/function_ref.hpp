// Non-owning callable view (a lightweight std::function_ref stand-in).
//
// For hooks that are only invoked during the call that receives them — a
// load probe consulted inside LoadBalancer::pick(), a per-index body handed
// to parallel_for — owning the callable is pure overhead: std::function may
// heap-allocate, and InlineFunction is move-only so it cannot bind a
// temporary lambda at a call site that keeps using it.  FunctionRef is two
// pointers, trivially copyable, and binds any callable (including mutable
// lambdas and plain functions) without taking ownership.
//
// Lifetime rule: a FunctionRef must not outlive the callable it was bound
// to.  Only use it for parameters consumed before the call returns.  It is
// never empty: a caller without a hook has nothing to pass.
#pragma once

#include <type_traits>
#include <utility>

namespace ah::common {

template <typename Signature>
class FunctionRef;  // undefined; specialised for function signatures

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename D = std::remove_reference_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  FunctionRef(F&& callable) noexcept  // NOLINT(runtime/explicit)
      : target_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        invoke_([](void* target, Args&&... args) -> R {
          return (*static_cast<D*>(target))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(target_, std::forward<Args>(args)...);
  }

 private:
  using Invoke = R (*)(void*, Args&&...);

  void* target_;
  Invoke invoke_;
};

}  // namespace ah::common
