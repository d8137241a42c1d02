#include "common/inline_function.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

namespace ah::common {
namespace {

using VoidFn = InlineFunction<void()>;
using IntFn = InlineFunction<int(int, int)>;

// Plain data: copying, moving and destroying are byte operations.
static_assert(std::is_trivially_copyable_v<VoidFn>);
static_assert(std::is_trivially_copyable_v<IntFn>);
static_assert(sizeof(VoidFn) == sizeof(void*) + 48);

TEST(InlineFunctionTest, DefaultIsEmpty) {
  VoidFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunctionTest, CallsSmallLambda) {
  int hits = 0;
  VoidFn fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunctionTest, ForwardsArgumentsAndReturn) {
  IntFn add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(40, 2), 42);
}

TEST(InlineFunctionTest, SmallCaptureStaysInline) {
  struct Small {
    void* a;
    void* b;
    void operator()() {}
  };
  struct Big {
    char blob[128];
    void operator()() {}
  };
  struct Full {
    char blob[48];
    void operator()() {}
  };
  static_assert(VoidFn::stores_inline<Small>());
  static_assert(VoidFn::stores_inline<Full>());
  static_assert(!VoidFn::stores_inline<Big>());
}

TEST(InlineFunctionTest, RejectsTargetsThatOwnState) {
  // Anything with a destructor or a copy constructor of its own would need
  // a manager, which InlineFunction does not have.
  auto owns_heap = [p = std::make_unique<int>(1)] { return *p; };
  auto owns_string = [s = std::string("x")] { (void)s; };
  auto shares = [p = std::make_shared<int>(1)] { (void)p; };
  static_assert(!InlineFunction<int()>::stores_inline<decltype(owns_heap)>());
  static_assert(!VoidFn::stores_inline<decltype(owns_string)>());
  static_assert(!VoidFn::stores_inline<decltype(shares)>());
  EXPECT_EQ(owns_heap(), 1);
}

TEST(InlineFunctionTest, MoveCopiesTheTargetAndKeepsTheSource) {
  // Moving is copying bytes: the source still holds the target.  A holder
  // that hands a callable on must not call its own copy again.
  int hits = 0;
  VoidFn source([&hits] { ++hits; });
  VoidFn destination(std::move(source));
  ASSERT_TRUE(static_cast<bool>(destination));
  EXPECT_TRUE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  destination();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, MoveAssignmentReplacesPreviousTarget) {
  int old_hits = 0;
  int new_hits = 0;
  VoidFn fn([&old_hits] { ++old_hits; });
  fn = VoidFn([&new_hits] { ++new_hits; });
  fn();
  EXPECT_EQ(old_hits, 0);
  EXPECT_EQ(new_hits, 1);
}

TEST(InlineFunctionTest, AssigningACallableReplacesTheTargetInPlace) {
  int old_hits = 0;
  VoidFn fn([&old_hits] { ++old_hits; });
  int hits = 0;
  fn = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(old_hits, 0);
}

TEST(InlineFunctionTest, ResetEmpties) {
  VoidFn fn([] {});
  fn = nullptr;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunctionTest, CopiesShareNoState) {
  // A mutable capture is part of the bytes: each copy counts on its own.
  IntFn probe([n = 0](int a, int) mutable { return n += a; });
  IntFn copy = probe;
  EXPECT_EQ(probe(1, 0), 1);
  EXPECT_EQ(probe(1, 0), 2);
  EXPECT_EQ(copy(1, 0), 1);
}

}  // namespace
}  // namespace ah::common
