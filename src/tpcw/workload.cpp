#include "tpcw/workload.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/analysis.hpp"

// The browser issue/dispatch/think loop runs once per interaction; only the
// constructor (sampler setup) is cold.
AH_HOT_PATH_FILE;

namespace ah::tpcw {

Workload::Workload(sim::Simulator& sim, webstack::FrontendRouter& frontend,
                   const Mix* mix, WipsMeter& meter, const Config& config)
    : sim_(sim),
      frontend_(frontend),
      mix_(mix),
      meter_(meter),
      config_(config) {
  assert(mix_ != nullptr);
  assert(config_.browsers > 0);
  if (config_.shared_popularity != nullptr &&
      config_.shared_popularity->size() == config_.item_count &&
      config_.shared_popularity->alpha() == kZipfAlpha) {
    shared_popularity_ = config_.shared_popularity;
    popularity_ = shared_popularity_.get();
  } else {
    AH_LINT_ALLOW(hot_path_alloc, "one-time sampler construction at startup");
    owned_popularity_ = std::make_unique<ZipfSampler>(config_.item_count,
                                                      kZipfAlpha);
    popularity_ = owned_popularity_.get();
  }
  common::Rng seeder(config_.seed);
  browser_rngs_.reserve(static_cast<std::size_t>(config_.browsers));
  for (int i = 0; i < config_.browsers; ++i) {
    browser_rngs_.push_back(seeder.split(static_cast<std::uint64_t>(i)));
  }
}

void Workload::start() {
  if (running_) return;
  running_ = true;
  for (std::size_t i = 0; i < browser_rngs_.size(); ++i) {
    // Stagger initial issues uniformly over one mean think time; each
    // request reaches the proxy kClientLatency after its issue.
    const double offset =
        browser_rngs_[i].uniform() * kThinkMean.as_seconds();
    sim_.schedule(common::SimTime::seconds(offset) + webstack::kClientLatency,
                  [this, i] { browser_issue(i); });
  }
}

void Workload::stop() { running_ = false; }

void Workload::set_mix(const Mix* mix) {
  assert(mix != nullptr);
  mix_ = mix;
}

common::Bytes Workload::object_size(std::uint64_t object_id,
                                    common::Bytes mean) const {
  // Deterministic per-object size in [0.5, 2.0) × mean, from a hash of the
  // page identity.
  std::uint64_t h = object_id;
  h = common::splitmix64(h);
  const double factor = 0.5 + 1.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return std::max<common::Bytes>(
      512, static_cast<common::Bytes>(static_cast<double>(mean) * factor));
}

webstack::Request Workload::make_request(common::Rng& rng) {
  const Interaction interaction = mix_->sample(rng);
  const auto& profile = profile_for(interaction);

  webstack::Request request;
  request.id = next_request_id_++;
  request.profile = &profile;
  request.issued_at = sim_.now() - webstack::kClientLatency;

  if (profile.cacheable) {
    const std::uint64_t space = object_space(interaction, config_.item_count);
    std::uint64_t sub_id = 0;
    if (interaction == Interaction::kProductDetail) {
      sub_id = popularity_->sample(rng);
    } else if (space > 1) {
      sub_id = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(space) - 1));
    }
    request.object_id = make_object_id(interaction, sub_id);
    request.response_bytes =
        object_size(request.object_id, profile.response_bytes);
  } else {
    // Dynamic pages vary per request.
    request.object_id = make_object_id(interaction, request.id);
    const double factor = 0.6 + 0.8 * rng.uniform();
    request.response_bytes = std::max<common::Bytes>(
        512, static_cast<common::Bytes>(
                 static_cast<double>(profile.response_bytes) * factor));
  }
  return request;
}

void Workload::browser_issue(std::size_t browser_index) {
  AH_HOT_ENTRY;  // per-interaction loop: where load enters the system
  if (!running_) return;
  common::Rng& rng = browser_rngs_[browser_index];
  const webstack::Request request = make_request(rng);
  ++issued_;
  dispatch(browser_index, request, config_.retry.max_retries);
}

void Workload::dispatch(std::size_t browser_index,
                        const webstack::Request& request, int retries_left) {
  const bool browse =
      is_browse(static_cast<Interaction>(request.object_id >> 48));
  const common::SimTime issued_at = request.issued_at;
  auto on_response = [this, browser_index, request, retries_left, browse,
                      issued_at](const webstack::Response& response) {
    // The WIPS meter and per-interaction histograms are the measurement
    // itself (always attached, never null), not optional telemetry sinks.
    // Both cover the meter's armed window only (TPC-W clause 5.5 judges
    // WIRT over the measurement interval, not warm-up or cool-down).
    AH_LINT_ALLOW(obs_hot_path, "WipsMeter is the required measurement path");
    const bool in_window = meter_.record(response.ok, browse, sim_.now(),
                                         sim_.now() - issued_at);
    if (response.ok && in_window) {
      AH_LINT_ALLOW(obs_hot_path, "always-present interaction histograms");
      wirt_.record(static_cast<Interaction>(request.object_id >> 48),
                   sim_.now() - issued_at);
    }
    if (!response.ok && retries_left > 0 && running_) {
      // Re-request the same page after a back-off, like a user
      // reloading an error page.  The retry keeps the original
      // issue timestamp so latency reflects the user's real wait.
      // The state is parked in a pooled struct: Request + bookkeeping
      // exceeds the EventFn inline buffer.
      Retry* retry = retries_.acquire();
      retry->self = this;
      retry->browser_index = browser_index;
      retry->request = request;
      retry->retries_left = retries_left;
      const int attempt = config_.retry.max_retries - retries_left;
      sim_.schedule(
          config_.retry.backoff(attempt, request.id) + webstack::kClientLatency,
          [retry] { retry->self->redispatch(retry); });
      return;
    }
    browser_think(browser_index);
  };
  // The browser continuation is the widest closure crossing the ResponseFn
  // interface; if it stops fitting, every request starts allocating.
  static_assert(webstack::ResponseFn::stores_inline<decltype(on_response)>(),
                "browser continuation must not allocate");
  frontend_.route(request, std::move(on_response));
}

void Workload::redispatch(Retry* retry) {
  const std::size_t browser_index = retry->browser_index;
  const webstack::Request request = retry->request;
  const int retries_left = retry->retries_left;
  retries_.release(retry);
  dispatch(browser_index, request, retries_left - 1);
}

void Workload::browser_think(std::size_t browser_index) {
  if (!running_) return;
  common::Rng& rng = browser_rngs_[browser_index];
  // Arrival modulation divides the mean think time: factor 3 = a third of
  // the thinking, three times the offered load.  The division by exactly
  // 1.0 (identity or no modulation) reproduces the unmodulated draw bit
  // for bit.
  double mean_s = kThinkMean.as_seconds();
  if (arrival_ != nullptr) mean_s /= arrival_->factor(sim_.now());
  const double think =
      std::min(rng.exponential(mean_s), kThinkCap.as_seconds());
  sim_.schedule(common::SimTime::seconds(think) + webstack::kClientLatency,
                [this, browser_index] { browser_issue(browser_index); });
}

void Workload::apply_mix_schedule(
    const std::vector<sim::MixChange>& changes) {
  for (const sim::MixChange& change : changes) {
    const Mix* mix = nullptr;
    if (change.mix == "browsing") {
      mix = &Mix::standard(WorkloadKind::kBrowsing);
    } else if (change.mix == "shopping") {
      mix = &Mix::standard(WorkloadKind::kShopping);
    } else if (change.mix == "ordering") {
      mix = &Mix::standard(WorkloadKind::kOrdering);
    } else {
      AH_LINT_ALLOW(hot_path_alloc, "cold setup path: error construction");
      throw std::invalid_argument("unknown mix in scenario: " + change.mix);
    }
    sim_.schedule_at(change.at, [this, mix] { set_mix(mix); });
  }
}

}  // namespace ah::tpcw
