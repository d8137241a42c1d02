#include "common/inline_function.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>

#include "../support/move_counter.hpp"

namespace ah::common {
namespace {

using VoidFn = InlineFunction<void()>;
using IntFn = InlineFunction<int(int, int)>;

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
  static_assert(VoidFn::stores_inline<Small>());
  static_assert(!VoidFn::stores_inline<Big>());
}

TEST(InlineFunctionTest, HeapFallbackStillCalls) {
  struct Big {
    char blob[128] = {};
    int result = 7;
    int operator()(int a, int b) { return result + a + b; }
  };
  InlineFunction<int(int, int)> fn(Big{});
  EXPECT_EQ(fn(1, 2), 10);
}

TEST(InlineFunctionTest, MovePreservesTargetAndEmptiesSource) {
  int hits = 0;
  VoidFn source([&hits] { ++hits; });
  VoidFn destination(std::move(source));
  EXPECT_FALSE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(destination));
  destination();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, MoveAssignmentDestroysPreviousTarget) {
  auto counter = std::make_shared<int>(0);
  VoidFn fn([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  fn = VoidFn([] {});
  EXPECT_EQ(counter.use_count(), 1);  // old closure destroyed
}

TEST(InlineFunctionTest, AssigningACallableReplacesTheTargetInPlace) {
  auto counter = std::make_shared<int>(0);
  VoidFn fn([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  int hits = 0;
  fn = [&hits] { ++hits; };  // no temporary InlineFunction in between
  EXPECT_EQ(counter.use_count(), 1);  // old capture destroyed exactly once
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, AssigningACallableMovesItOnce) {
  test::MoveCounts counts;
  {
    VoidFn fn([] {});
    fn = test::MoveCounter(&counts);  // straight into the buffer
    EXPECT_EQ(counts.moves, 1);
    fn();
  }
  EXPECT_EQ(counts.runs, 1);
  EXPECT_EQ(counts.destroyed, counts.constructed);
}

TEST(InlineFunctionTest, DestructorReleasesCapture) {
  auto counter = std::make_shared<int>(0);
  {
    VoidFn fn([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunctionTest, HeapTargetReleasedExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> keep;
    char blob[120] = {};
    void operator()() {}
  };
  {
    VoidFn fn(Big{counter, {}});
    EXPECT_EQ(counter.use_count(), 2);
    VoidFn moved(std::move(fn));
    EXPECT_EQ(counter.use_count(), 2);  // ownership transferred, not copied
    moved();
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunctionTest, HoldsMoveOnlyCallable) {
  auto owned = std::make_unique<int>(99);
  InlineFunction<int()> fn([p = std::move(owned)] { return *p; });
  EXPECT_EQ(fn(), 99);
}

TEST(InlineFunctionTest, ResetEmpties) {
  VoidFn fn([] {});
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunctionTest, WrapsStdFunction) {
  std::function<void()> wrapped;
  int hits = 0;
  wrapped = [&hits] { ++hits; };
  VoidFn fn(wrapped);  // copies the std::function into the buffer
  fn();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace ah::common
