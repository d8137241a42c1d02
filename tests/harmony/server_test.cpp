#include "harmony/server.hpp"

#include <gtest/gtest.h>

namespace ah::harmony {
namespace {

TEST(HarmonyServerTest, CreateAndStartSession) {
  HarmonyServer server;
  const auto id = server.create_session("tomcat");
  EXPECT_FALSE(server.started(id));
  server.register_parameter(id, {"maxProcessors", 1, 1024, 20});
  server.start(id);
  EXPECT_TRUE(server.started(id));
  EXPECT_EQ(server.session_name(id), "tomcat");
  EXPECT_EQ(server.session_count(), 1u);
}

TEST(HarmonyServerTest, RegisterReturnsDimensionIndex) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  EXPECT_EQ(server.register_parameter(id, {"a", 0, 1, 0}), 0u);
  EXPECT_EQ(server.register_parameter(id, {"b", 0, 1, 0}), 1u);
}

TEST(HarmonyServerTest, StartWithoutParametersThrows) {
  HarmonyServer server;
  const auto id = server.create_session("empty");
  EXPECT_THROW(server.start(id), std::logic_error);
}

TEST(HarmonyServerTest, DoubleStartThrows) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"a", 0, 10, 5});
  server.start(id);
  EXPECT_THROW(server.start(id), std::logic_error);
}

TEST(HarmonyServerTest, RegisterAfterStartThrows) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"a", 0, 10, 5});
  server.start(id);
  EXPECT_THROW(server.register_parameter(id, {"b", 0, 10, 5}),
               std::logic_error);
}

TEST(HarmonyServerTest, UnknownSessionThrows) {
  HarmonyServer server;
  EXPECT_THROW(server.get_configuration(7), std::out_of_range);
  EXPECT_THROW(server.start(0), std::out_of_range);
}

TEST(HarmonyServerTest, UseBeforeStartThrows) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"a", 0, 10, 5});
  EXPECT_THROW(server.get_configuration(id), std::logic_error);
  EXPECT_THROW(server.report_performance(id, 1.0), std::logic_error);
}

TEST(HarmonyServerTest, FirstConfigurationIsDefault) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"a", 0, 100, 42});
  server.register_parameter(id, {"b", -10, 10, -3});
  server.start(id);
  EXPECT_EQ(server.get_configuration(id), (PointI{42, -3}));
}

TEST(HarmonyServerTest, HigherPerformanceIsBetter) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"a", 0, 100, 42});
  server.start(id);
  server.report_performance(id, 110.0);
  server.report_performance(id, 95.0);
  EXPECT_DOUBLE_EQ(server.best_performance(id), 110.0);
}

TEST(HarmonyServerTest, BestConfigurationTracksBestPerformance) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"a", 0, 100, 42});
  server.start(id);
  const PointI first = server.get_configuration(id);
  server.report_performance(id, 200.0);  // first config is great
  server.report_performance(id, 10.0);
  server.report_performance(id, 10.0);
  EXPECT_EQ(server.best_configuration(id), first);
}

TEST(HarmonyServerTest, TuningImprovesPerformanceOnSyntheticSurface) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"x", 0, 1000, 900});
  server.start(id);
  auto performance = [](const PointI& p) {
    const double d = static_cast<double>(p[0]) - 250.0;
    return 1000.0 - d * d / 100.0;  // peak at x=250
  };
  for (int i = 0; i < 100; ++i) {
    server.report_performance(id, performance(server.get_configuration(id)));
  }
  EXPECT_NEAR(static_cast<double>(server.best_configuration(id)[0]), 250.0,
              30.0);
  EXPECT_EQ(server.evaluations(id), 100u);
}

TEST(HarmonyServerTest, MultipleIndependentSessions) {
  HarmonyServer server;
  const auto a = server.create_session("line0");
  const auto b = server.create_session("line1");
  server.register_parameter(a, {"x", 0, 100, 10});
  server.register_parameter(b, {"x", 0, 100, 90});
  server.start(a);
  server.start(b);
  // Different defaults prove the sessions do not share state.
  EXPECT_EQ(server.get_configuration(a)[0], 10);
  EXPECT_EQ(server.get_configuration(b)[0], 90);
  server.report_performance(a, 1.0);
  EXPECT_EQ(server.evaluations(a), 1u);
  EXPECT_EQ(server.evaluations(b), 0u);
}

TEST(HarmonyServerTest, ConvergenceExposed) {
  HarmonyServer server;
  const auto id = server.create_session("s");
  server.register_parameter(id, {"x", 0, 10, 5});
  server.start(id);
  for (std::size_t i = 0; i < TuningSession::kPatience; ++i) {
    server.report_performance(id, 100.0);
  }
  EXPECT_FALSE(server.converged_at(id).has_value());
  server.report_performance(id, 100.0);
  EXPECT_TRUE(server.converged_at(id).has_value());
}

}  // namespace
}  // namespace ah::harmony
