// The Harmony server: the client-facing API of the Active Harmony system.
//
// Mirrors the structure of the original (Tcl) Adaptation Controller: tunable
// clients register parameters into a named session, the server proposes
// configurations, clients report observed performance.  Multiple sessions
// run independently — that is exactly the mechanism behind the paper's
// *parameter partitioning* strategy, where each work line gets its own
// tuning server.
//
// Performance convention: clients report a figure where HIGHER IS BETTER
// (WIPS); the server negates it into the minimizing tuner.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harmony/parameter.hpp"
#include "harmony/session.hpp"

namespace ah::harmony {

using SessionId = std::uint32_t;

class HarmonyServer {
 public:
  /// Creates an (empty) session.  Parameters are registered before start().
  SessionId create_session(std::string name, SessionOptions options = {});

  /// Registers a tunable into a not-yet-started session.
  /// Returns the parameter's dimension index within the session.
  std::size_t register_parameter(SessionId id, TunableParameter parameter);

  /// Freezes the parameter set and builds the tuner.
  /// Throws std::logic_error when already started or no parameters exist.
  void start(SessionId id);

  [[nodiscard]] bool started(SessionId id) const;
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] const std::string& session_name(SessionId id) const;

  /// The configuration the client should apply next.
  [[nodiscard]] PointI get_configuration(SessionId id) const;

  /// Reports the performance observed under the configuration from
  /// get_configuration() (higher is better).
  void report_performance(SessionId id, double performance);

  /// Best configuration seen and its performance (higher-is-better).
  [[nodiscard]] PointI best_configuration(SessionId id) const;
  [[nodiscard]] double best_performance(SessionId id) const;

  [[nodiscard]] std::size_t evaluations(SessionId id) const;
  [[nodiscard]] std::optional<std::size_t> converged_at(SessionId id) const;

  /// Underlying session (history inspection, tests).
  [[nodiscard]] TuningSession& session(SessionId id);
  [[nodiscard]] const TuningSession& session(SessionId id) const;

 private:
  struct Slot {
    std::string name;
    SessionOptions options;
    ParameterSpace space;                     // building
    std::unique_ptr<TuningSession> session;   // once started
  };

  [[nodiscard]] Slot& slot(SessionId id);
  [[nodiscard]] const Slot& slot(SessionId id) const;
  [[nodiscard]] TuningSession& started_session(SessionId id);
  [[nodiscard]] const TuningSession& started_session(SessionId id) const;

  std::vector<Slot> sessions_;
};

}  // namespace ah::harmony
