#include "harmony/server.hpp"

#include <stdexcept>
#include <vector>

namespace ah::harmony {

SessionId HarmonyServer::create_session(std::string name,
                                        SessionOptions options) {
  sessions_.push_back(Slot{std::move(name), options, {}, nullptr});
  return static_cast<SessionId>(sessions_.size() - 1);
}

HarmonyServer::Slot& HarmonyServer::slot(SessionId id) {
  if (id >= sessions_.size()) {
    throw std::out_of_range("HarmonyServer: unknown session");
  }
  return sessions_[id];
}

const HarmonyServer::Slot& HarmonyServer::slot(SessionId id) const {
  if (id >= sessions_.size()) {
    throw std::out_of_range("HarmonyServer: unknown session");
  }
  return sessions_[id];
}

std::size_t HarmonyServer::register_parameter(SessionId id,
                                              TunableParameter parameter) {
  Slot& s = slot(id);
  if (s.session) {
    throw std::logic_error("HarmonyServer: session already started");
  }
  return s.space.add(std::move(parameter));
}

void HarmonyServer::start(SessionId id) {
  Slot& s = slot(id);
  if (s.session) {
    throw std::logic_error("HarmonyServer: session already started");
  }
  if (s.space.empty()) {
    throw std::logic_error("HarmonyServer: no parameters registered");
  }
  s.session =
      std::make_unique<TuningSession>(s.name, std::move(s.space), s.options);
}

bool HarmonyServer::started(SessionId id) const {
  return slot(id).session != nullptr;
}

const std::string& HarmonyServer::session_name(SessionId id) const {
  return slot(id).name;
}

TuningSession& HarmonyServer::started_session(SessionId id) {
  Slot& s = slot(id);
  if (!s.session) {
    throw std::logic_error("HarmonyServer: session not started");
  }
  return *s.session;
}

const TuningSession& HarmonyServer::started_session(SessionId id) const {
  const Slot& s = slot(id);
  if (!s.session) {
    throw std::logic_error("HarmonyServer: session not started");
  }
  return *s.session;
}

PointI HarmonyServer::get_configuration(SessionId id) const {
  return started_session(id).ask();
}

void HarmonyServer::report_performance(SessionId id, double performance) {
  started_session(id).tell(-performance);
}

PointI HarmonyServer::best_configuration(SessionId id) const {
  return started_session(id).best();
}

double HarmonyServer::best_performance(SessionId id) const {
  return -started_session(id).best_cost();
}

std::size_t HarmonyServer::evaluations(SessionId id) const {
  return started_session(id).evaluations();
}

std::optional<std::size_t> HarmonyServer::converged_at(SessionId id) const {
  return started_session(id).converged_at();
}

TuningSession& HarmonyServer::session(SessionId id) {
  return started_session(id);
}

const TuningSession& HarmonyServer::session(SessionId id) const {
  return started_session(id);
}

}  // namespace ah::harmony
