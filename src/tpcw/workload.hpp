// Emulated browsers and the workload driver.
//
// A closed-loop population of emulated browsers (EBs), as in the TPC-W
// remote-browser-emulator: each EB issues one interaction, waits for the
// response, thinks (exponential, mean 7 s), and repeats.  The interaction is
// drawn from the active Mix, which the driver can swap at runtime — that is
// how the changing-workload experiment (paper Fig 5) is expressed.
//
// The request's trip to the proxy tier (webstack::kClientLatency) needs no
// event of its own: each think timer and retry back-off ends that much
// later, in the event where the request reaches the proxy, and the request
// records its issue time as that arrival minus kClientLatency.
//
// Cacheable page identities draw from Zipf popularity; their sizes are a
// deterministic function of the page identity, so a page has the same size
// every time it is fetched (a cache would otherwise see phantom updates).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/object_pool.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tpcw/constraints.hpp"
#include "tpcw/interactions.hpp"
#include "tpcw/metrics.hpp"
#include "tpcw/mix.hpp"
#include "tpcw/zipf.hpp"
#include "webstack/retry_policy.hpp"
#include "webstack/router.hpp"

namespace ah::tpcw {

class Workload {
 public:
  /// Zipf exponent of product popularity.
  static constexpr double kZipfAlpha = 0.8;
  /// TPC-W specifies a 7 s mean think time; we run 3.5 s with half the
  /// browser population, which offers the same interaction rate while
  /// making response-time changes visible in WIPS at practical browser
  /// counts (documented substitution, see DESIGN.md).
  static constexpr common::SimTime kThinkMean = common::SimTime::seconds(3.5);
  /// Longest single think time (ten means).
  static constexpr common::SimTime kThinkCap = common::SimTime::seconds(35.0);

  struct Config {
    int browsers = 530;
    std::uint64_t item_count = 10000;  // TPC-W scale factor
    /// A browser whose interaction fails (connection refused at a full
    /// accept queue) retries the same page per this policy, then gives up
    /// and browses on — the TPC-W emulated-browser behaviour of
    /// re-requesting the page.  The defaults (fixed 1.5 s interval, 4
    /// retries, no jitter) are the historical behaviour; fault scenarios
    /// opt into growth/jitter to avoid synchronized retry storms.
    webstack::RetryPolicy retry;
    std::uint64_t seed = 2004;
    /// Optional pre-built item-popularity table.  When it matches
    /// (item_count, kZipfAlpha) the workload samples from it instead of
    /// building a private copy — many lines and models then share one CDF
    /// (~120 KB at the TPC-W 10k scale).  Sampling draws from the caller's
    /// RNG, so a shared table is bit-identical to a private one.
    std::shared_ptr<const ZipfSampler> shared_popularity;
  };

  Workload(sim::Simulator& sim, webstack::FrontendRouter& frontend,
           const Mix* mix, WipsMeter& meter, const Config& config);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Launches all browsers (staggered over one mean think time so the
  /// closed loop does not start phase-locked).
  void start();

  /// Stops issuing new interactions; in-flight ones complete.
  void stop();

  /// Swaps the active mix; browsers pick it up on their next interaction.
  void set_mix(const Mix* mix);

  /// Attaches scenario arrival modulation (nullptr detaches): mean think
  /// time is divided by the modulation factor at each draw, so a 3x flash
  /// crowd triples the offered interaction rate.  A null or identity
  /// modulation leaves every think-time draw bit-identical to an
  /// unmodulated run (x / 1.0 == x exactly).  Not owned; must outlive the
  /// workload or be detached.
  void set_arrival_modulation(const sim::ArrivalModulation* arrival) {
    arrival_ = arrival;
  }

  /// Schedules the scenario's mix drift: each change swaps to the named
  /// standard mix ("browsing", "shopping", "ordering") at its time.
  /// Throws std::invalid_argument on an unknown mix name.
  void apply_mix_schedule(const std::vector<sim::MixChange>& changes);

  /// Latency distribution per TPC-W interaction class, over every armed
  /// measurement window of the meter (successful interactions only), with
  /// its clause 5.5 compliance check.
  /// Always recording: a histogram record is a counter increment, so
  /// observation stays passive.
  [[nodiscard]] const WirtTracker& wirt() const { return wirt_; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t interactions_issued() const { return issued_; }

 private:
  /// Parked state for a backed-off retry: Request + bookkeeping exceeds the
  /// 32-byte EventFn inline buffer, so the scheduled closure captures one
  /// pooled pointer instead (retries are rare — error responses only — and
  /// EventFn has no heap fallback, so even the rare path allocates
  /// nothing).
  struct Retry {
    Workload* self = nullptr;
    std::size_t browser_index = 0;
    webstack::Request request;
    int retries_left = 0;
  };

  /// Draws the browser's next request and routes it; runs when that
  /// request reaches the proxy tier, kClientLatency after its issue.
  void browser_issue(std::size_t browser_index);
  void dispatch(std::size_t browser_index, const webstack::Request& request,
                int retries_left);
  void redispatch(Retry* retry);
  void browser_think(std::size_t browser_index);
  [[nodiscard]] webstack::Request make_request(common::Rng& rng);
  /// Deterministic size for a cacheable page identity.
  [[nodiscard]] common::Bytes object_size(std::uint64_t object_id,
                                          common::Bytes mean) const;

  sim::Simulator& sim_;
  webstack::FrontendRouter& frontend_;
  const Mix* mix_;
  WipsMeter& meter_;
  Config config_;
  /// Scenario arrival modulation; null = unmodulated.
  const sim::ArrivalModulation* arrival_ = nullptr;

  /// Popularity table: a shared read-only CDF when the config supplies a
  /// matching one, otherwise a privately built copy.  popularity_ points at
  /// whichever is active.
  std::shared_ptr<const ZipfSampler> shared_popularity_;
  std::unique_ptr<ZipfSampler> owned_popularity_;
  const ZipfSampler* popularity_ = nullptr;
  common::ObjectPool<Retry> retries_;
  std::vector<common::Rng> browser_rngs_;
  WirtTracker wirt_;
  bool running_ = false;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t issued_ = 0;
};

}  // namespace ah::tpcw
