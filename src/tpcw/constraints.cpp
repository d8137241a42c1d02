#include "tpcw/constraints.hpp"

#include <algorithm>

#include "common/analysis.hpp"

// WirtTracker::record runs once per successful interaction.
AH_HOT_PATH_FILE;

namespace ah::tpcw {

double wirt_limit_seconds(Interaction interaction) {
  // TPC-W v1.8 clause 5.5.1 (seconds, 90th percentile).
  switch (interaction) {
    case Interaction::kHome:                 return 3.0;
    case Interaction::kNewProducts:          return 5.0;
    case Interaction::kBestSellers:          return 5.0;
    case Interaction::kProductDetail:        return 3.0;
    case Interaction::kSearchRequest:        return 3.0;
    case Interaction::kSearchResults:        return 10.0;
    case Interaction::kShoppingCart:         return 3.0;
    case Interaction::kCustomerRegistration: return 3.0;
    case Interaction::kBuyRequest:           return 3.0;
    case Interaction::kBuyConfirm:           return 5.0;
    case Interaction::kOrderInquiry:         return 3.0;
    case Interaction::kOrderDisplay:         return 3.0;
    case Interaction::kAdminRequest:         return 3.0;
    case Interaction::kAdminConfirm:         return 20.0;
  }
  return 3.0;
}

void WirtTracker::record(Interaction interaction, common::SimTime latency) {
  AH_LINT_ALLOW(obs_hot_path, "tracker-owned histogram, always present");
  latency_[static_cast<std::size_t>(interaction)].record(latency);
}

void WirtTracker::merge(const WirtTracker& other) {
  for (std::size_t i = 0; i < latency_.size(); ++i) {
    latency_[i].merge(other.latency_[i]);
  }
}

void WirtTracker::reset() {
  for (obs::Histogram& histogram : latency_) histogram.reset();
}

std::size_t WirtTracker::samples(Interaction interaction) const {
  return latency(interaction).count();
}

WirtTracker::Result WirtTracker::check(Interaction interaction) const {
  const obs::Histogram& histogram = latency(interaction);
  Result result;
  result.interaction = interaction;
  result.samples = histogram.count();
  result.limit_seconds = wirt_limit_seconds(interaction);
  if (result.samples > 0) {
    const std::size_t bucket =
        obs::Histogram::bucket_index(histogram.percentile_us(0.90));
    const std::uint64_t p90_us = std::min(
        histogram.max_us(), obs::Histogram::bucket_high_us(bucket));
    result.p90_seconds = static_cast<double>(p90_us) / 1e6;
    result.compliant = result.p90_seconds <= result.limit_seconds;
  }
  return result;
}

std::vector<WirtTracker::Result> WirtTracker::check_all() const {
  std::vector<Result> results;
  results.reserve(kInteractionCount);
  for (int i = 0; i < kInteractionCount; ++i) {
    results.push_back(check(static_cast<Interaction>(i)));
  }
  return results;
}

bool WirtTracker::compliant() const {
  for (int i = 0; i < kInteractionCount; ++i) {
    if (!check(static_cast<Interaction>(i)).compliant) return false;
  }
  return true;
}

}  // namespace ah::tpcw
