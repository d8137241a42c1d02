#include "sim/fault_injector.hpp"
#include "common/analysis.hpp"

#include <utility>

AH_HOT_PATH_FILE;

namespace ah::sim {

std::string_view fault_kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash:       return "crash";
    case FaultEvent::Kind::kRestart:     return "restart";
    case FaultEvent::Kind::kSlowStart:   return "slow-start";
    case FaultEvent::Kind::kSlowEnd:     return "slow-end";
    case FaultEvent::Kind::kLinkDegrade: return "link-degrade";
    case FaultEvent::Kind::kLinkRestore: return "link-restore";
  }
  return "?";
}

void FaultInjector::arm(const FaultPlan& plan, Handler handler) {
  disarm();
  plan_ = plan;
  handler_ = std::move(handler);
  pending_ids_.reserve(plan_.events.size());
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    pending_ids_.push_back(
        sim_.schedule_at(plan_.events[i].at, [this, i] { fire(i); }));
  }
  remaining_ = plan_.events.size();
}

void FaultInjector::disarm() {
  // Cancelling an already-fired id is a no-op, so the whole list is safe.
  for (const EventId id : pending_ids_) sim_.cancel(id);
  pending_ids_.clear();
  remaining_ = 0;
}

void FaultInjector::fire(std::size_t index) {
  AH_HOT_ENTRY;  // scheduled fault delivery runs on the event loop
  ++fired_;
  if (remaining_ > 0) --remaining_;
  if (handler_) handler_(plan_.events[index]);
}

}  // namespace ah::sim
