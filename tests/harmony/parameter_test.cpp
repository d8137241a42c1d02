#include "harmony/parameter.hpp"

#include <gtest/gtest.h>

namespace ah::harmony {
namespace {

ParameterSpace small_space() {
  return ParameterSpace{{
      {"a", 0, 10, 5},
      {"b", -5, 5, 0},
      {"c", 100, 1000, 100},
  }};
}

TEST(TunableParameterTest, RangeAndContains) {
  const TunableParameter p{"x", 2, 8, 4};
  EXPECT_EQ(p.range(), 6);
  EXPECT_TRUE(p.contains(2));
  EXPECT_TRUE(p.contains(8));
  EXPECT_FALSE(p.contains(1));
  EXPECT_FALSE(p.contains(9));
}

TEST(ParameterSpaceTest, AddValidatesBounds) {
  ParameterSpace space;
  EXPECT_THROW(space.add({"bad", 10, 5, 7}), std::invalid_argument);
  EXPECT_THROW(space.add({"bad", 0, 5, 7}), std::invalid_argument);
  EXPECT_EQ(space.add({"ok", 0, 5, 3}), 0u);
  EXPECT_EQ(space.add({"ok2", 0, 5, 3}), 1u);
}

TEST(ParameterSpaceTest, Accessors) {
  const auto space = small_space();
  EXPECT_EQ(space.dimensions(), 3u);
  EXPECT_FALSE(space.empty());
  EXPECT_EQ(space.parameter(1).name, "b");
}

TEST(ParameterSpaceTest, Defaults) {
  EXPECT_EQ(small_space().defaults(), (PointI{5, 0, 100}));
}

TEST(ParameterSpaceTest, ProjectRoundsAndClamps) {
  const auto space = small_space();
  EXPECT_EQ(space.project({5.4, -0.6, 250.5}), (PointI{5, -1, 251}));
  EXPECT_EQ(space.project({-3.0, 99.0, 2000.0}), (PointI{0, 5, 1000}));
}

TEST(ParameterSpaceTest, ProjectArityMismatchThrows) {
  EXPECT_THROW((void)small_space().project({1.0}), std::invalid_argument);
}

TEST(ParameterSpaceTest, ToContinuous) {
  const PointD d = ParameterSpace::to_continuous({1, -2, 3});
  EXPECT_EQ(d, (PointD{1.0, -2.0, 3.0}));
}

}  // namespace
}  // namespace ah::harmony
