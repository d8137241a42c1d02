// Annotations and compile-time audits consumed by tools/ah_lint.
//
// The simulator's headline properties — thread-count-independent
// determinism, a zero-allocation steady-state request path, plain-data
// callables — are cheap to regress silently: one careless std::function or
// stray rand() keeps every test green while the bench numbers drift.  This
// header provides the markers that promote those invariants from runtime
// tests to build-time checks:
//
//   AH_HOT_PATH_FILE        file-level marker; ah_lint applies the
//                           allocation (R1) and pooling (R3) rules to any
//                           file containing it.
//   AH_LINT_ALLOW(rule, reason)
//                           suppresses findings of `rule` on the same line
//                           or the line immediately below.  The reason is
//                           mandatory and should say why the invariant is
//                           safe to relax at this site (cold path, startup
//                           only, ...).
//   AH_ASSERT_POOLED_CALL(T)
//                           static_assert audit for per-request call
//                           structs parked in common::ObjectPool.
//   AH_HOT_ENTRY            statement-level taint seed: marks the enclosing
//                           function (or lambda) as a hot-path entry point;
//                           ah_lint propagates reachability from the seeds
//                           through the call graph (rule hot_path_reach).
//   AH_LAYERING_ALLOW(reason)
//                           suppresses a layering finding on the next line
//                           (a justified exception to the include DAG).
//
// The markers compile to nothing; ah_lint matches them textually.
#pragma once

#include <type_traits>

/// Marks a whole file as request-hot-path.  Place once near the top of the
/// file (after includes), as a statement: `AH_HOT_PATH_FILE;`.
#define AH_HOT_PATH_FILE \
  static_assert(true, "ah-lint: allocation/pooling rules apply to this file")

/// Suppresses ah_lint findings of `rule` on this line or the next one.
/// `rule` is the rule name as printed by `ah_lint --list-rules`; `reason`
/// is a string literal justifying the exception.
#define AH_LINT_ALLOW(rule, reason) \
  static_assert(true, "ah-lint: allow " #rule ": " reason)

/// Statement-level hot-path taint seed.  Place as the first statement of a
/// request/event entry point (`AH_HOT_ENTRY;`): ah_lint marks the enclosing
/// function or lambda as hot and propagates reachability through the call
/// graph, so allocation rules follow the code, not the file annotations.
/// Seed the boundaries where hot traffic ENTERS the system — workload issue
/// loops, timer-driven ticks, and the wiring closures that carry requests
/// across type-erased callbacks — not every function they reach.
#define AH_HOT_ENTRY \
  static_assert(true, "ah-lint: hot-path taint seed for the enclosing function")

/// Suppresses an ah_lint `layering` finding on this line or the next one —
/// a justified exception to the include-layer DAG (see DESIGN.md).
#define AH_LAYERING_ALLOW(reason) \
  static_assert(true, "ah-lint: allow layering: " reason)

/// Marks a file as part of the immutable model layer: state defined here is
/// shared read-only across models and work-line threads, so the file must
/// hold no non-const statics and no `mutable` members (ah_lint rule
/// `shared_state`).  Place once near the top: `AH_IMMUTABLE_STATE_FILE;`.
#define AH_IMMUTABLE_STATE_FILE \
  static_assert(true, "ah-lint: shared-state rules apply to this file")

namespace ah::common {

/// Requirements for a per-request call struct held in an ObjectPool.  Pool
/// slots are created once with emplace_back() and then reused WITHOUT
/// destruction between requests (the next user overwrites the fields it
/// needs), so a pooled call must:
///   * default-construct without throwing (slot creation), and
///   * be trivially copyable: plain data, like the InlineFunction
///     continuations it holds, so a reused slot owns nothing that its
///     previous user could leak and a copy is a byte copy.  That also rules
///     out a vtable, whose dynamic type the pool would erase.
template <typename T>
inline constexpr bool is_poolable_call_v =
    std::is_nothrow_default_constructible_v<T> &&
    std::is_trivially_copyable_v<T>;

}  // namespace ah::common

/// Compile-time audit for pooled per-request call structs (see
/// is_poolable_call_v for the exact requirements and rationale).
#define AH_ASSERT_POOLED_CALL(T)                        \
  static_assert(::ah::common::is_poolable_call_v<T>,    \
                #T " does not satisfy the pooled-call " \
                   "requirements (see common/analysis.hpp)")
