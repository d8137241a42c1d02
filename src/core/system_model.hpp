// SystemModel: the full simulated deployment.
//
// Builds the cluster (nodes, tiers), the server objects, and the routing
// fabric, organised into one or more "work lines" (paper §III.B): a work
// line is a self-contained slice with at least one node per tier and its
// own routers, so requests entering line g never touch another line.  The
// common single-line topology is just lines = {1 spec}.
//
// Immutable state shared between models is one table: the Zipf item
// popularity CDF, which make_model_immutable builds once and Config::shared
// hands by std::shared_ptr<const> to every line and every model built from
// the same options.  The other read-only tables (interaction profiles,
// mixes, the parameter catalogue) are process-wide constants.  Everything
// owned here is per-model: event queues, networks, routers, pools, RNG
// streams, histograms.
//
// Each node owns one server object per role it has ever played; only the
// one matching the node's current tier is active and registered in the
// line's routers.  Roles are created on demand: a db node never pays for a
// proxy's cache index unless it is actually moved into the proxy tier.
// Tier reconfiguration (paper §IV) is then: deregister the old role, wait
// out the configuration cost F (optionally draining first), activate the
// new role, register it.  In-flight requests complete on the old role while
// the switch is pending — the paper's "uninterrupted service" property.
//
// Timelines.  Each line runs on its own Simulator with its own network,
// monitor and (when enabled) health checker / fault injector — lines share
// no mutable state, so run_all_until() can advance them on separate
// ThreadPool threads and merge observations only at the barrier.  Results
// are bit-identical at any thread count (see DESIGN.md).  A one-line model
// may borrow a caller-owned Simulator instead of owning one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/health_checker.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/network.hpp"
#include "common/thread_pool.hpp"
#include "ctrl/admission_controller.hpp"
#include "harmony/reconfig.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/fault_injector.hpp"
#include "sim/monitor.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tpcw/zipf.hpp"
#include "webstack/app_server.hpp"
#include "webstack/db_server.hpp"
#include "webstack/params.hpp"
#include "webstack/proxy_server.hpp"
#include "webstack/router.hpp"

namespace ah::core {

class SystemModel {
 public:
  struct LineSpec {
    int proxy_nodes = 1;
    int app_nodes = 1;
    int db_nodes = 1;
  };

  struct Config {
    /// One default line.  Spelled as vector(1) rather than {LineSpec{}}:
    /// the initializer_list form trips a gcc-12 -Wmaybe-uninitialized false
    /// positive through the list's compiler-generated backing array.
    std::vector<LineSpec> lines = std::vector<LineSpec>(1);
    std::uint64_t seed = 1;
    /// Shared popularity table (make_model_immutable).  Models built from
    /// the same options may point at one copy; null means each experiment
    /// builds its own — behaviour is identical either way, only the memory
    /// footprint differs.
    std::shared_ptr<const tpcw::ZipfSampler> shared;
  };

  /// One owned Simulator per work line; set_thread_pool() lets
  /// run_all_until() advance the lines concurrently.
  explicit SystemModel(const Config& config);

  /// One-line model on a caller-owned timeline, which must outlive the
  /// model.  Throws std::invalid_argument when `config` has more lines.
  SystemModel(sim::Simulator& sim, const Config& config);

  SystemModel(const SystemModel&) = delete;
  SystemModel& operator=(const SystemModel&) = delete;

  [[nodiscard]] std::size_t line_count() const { return lines_.size(); }
  [[nodiscard]] webstack::FrontendRouter& frontend(std::size_t line);
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }

  // -- Timelines ----------------------------------------------------------
  /// The timeline line `line` runs on.
  [[nodiscard]] sim::Simulator& line_simulator(std::size_t line) {
    return *lines_.at(line).sim;
  }
  /// Current virtual time (line 0's clock).  With several lines it is only
  /// meaningful at run_all_until() barriers, where every line's clock
  /// agrees.
  [[nodiscard]] common::SimTime now() const;
  /// Advances every timeline to `until` (inclusive).  With a thread pool
  /// attached, lines run on separate threads; each line's event order is
  /// its own either way, so results are bit-identical at any pool size.
  void run_all_until(common::SimTime until);
  /// Borrows a pool for run_all_until() fan-out (nullptr: run serially).
  /// The pool must outlive this model or be detached before destruction.
  void set_thread_pool(common::ThreadPool* pool) { pool_ = pool; }
  /// The shared popularity table, Config::shared (null without one).
  [[nodiscard]] std::shared_ptr<const tpcw::ZipfSampler> shared_popularity()
      const {
    return config_.shared;
  }

  /// Node ids belonging to a line, in creation order.
  [[nodiscard]] const std::vector<cluster::NodeId>& line_nodes(
      std::size_t line) const;
  /// Line a node belongs to.
  [[nodiscard]] std::size_t line_of(cluster::NodeId id) const;
  /// All node ids in creation order.  Cached at construction (the node set
  /// never changes afterwards; tier moves only relabel nodes).
  [[nodiscard]] const std::vector<cluster::NodeId>& all_nodes() const {
    return all_nodes_;
  }

  // -- Parameter application -------------------------------------------
  /// Applies a full 23-value vector (catalogue order) to one node — only
  /// the slice for the node's *current* tier takes effect.
  void apply_values_to_node(cluster::NodeId id,
                            std::span<const std::int64_t> values);
  /// Applies the same 23-value vector to every node (parameter
  /// duplication and single-machine-per-tier setups).
  void apply_values_all(std::span<const std::int64_t> values);
  /// Applies a 23-value vector to all nodes of one line (parameter
  /// partitioning: each work line has its own configuration).
  void apply_values_line(std::size_t line,
                         std::span<const std::int64_t> values);

  // -- Server access -----------------------------------------------------
  /// Role accessors create the role on first touch (see lazy roles above).
  [[nodiscard]] webstack::ProxyServer& proxy_on(cluster::NodeId id);
  [[nodiscard]] webstack::AppServer& app_on(cluster::NodeId id);
  [[nodiscard]] webstack::DbServer& db_on(cluster::NodeId id);
  /// In-flight jobs on the node's active server.
  [[nodiscard]] int active_load(cluster::NodeId id);

  // -- Reconfiguration ---------------------------------------------------
  /// Moves a node into `to` (paper §IV step 5).  The old role stops taking
  /// traffic immediately; the new role activates after `config_cost`
  /// (plus a drain wait unless `immediate`).  Throws std::logic_error when
  /// the source tier would become empty, or on a model with more than one
  /// line: tier membership is counted cluster-wide, so a move could leave
  /// one line without a node in the source tier.
  void move_node(cluster::NodeId id, cluster::TierKind to, bool immediate,
                 common::SimTime config_cost);

  /// True when a move is still pending on the node.
  [[nodiscard]] bool move_in_progress(cluster::NodeId id) const;

  // -- Fault tolerance & injection ----------------------------------------
  /// Degradation machinery switched on by enable_fault_tolerance().  All
  /// defaults are conservative-but-active; a model that never calls
  /// enable_fault_tolerance() behaves bit-identically to the fault-unaware
  /// build.
  struct FaultToleranceConfig {
    cluster::HealthChecker::Config health{};
    /// Per-hop router timeout (zero = wait forever).  Must exceed the
    /// longest legitimate response time or healthy slow requests get cut.
    common::SimTime hop_timeout = common::SimTime::seconds(15.0);
    /// Proxy upstream retry + serve-stale policy.
    webstack::ProxyServer::Resilience proxy = default_proxy_resilience();
    [[nodiscard]] static webstack::ProxyServer::Resilience
    default_proxy_resilience();
  };

  /// Starts health checking and arms per-hop timeouts + proxy resilience on
  /// every line.  Idempotent (later calls just update the knobs).  Each
  /// line gets its own checker scoped to its nodes.
  void enable_fault_tolerance(const FaultToleranceConfig& config);
  [[nodiscard]] bool fault_tolerance_enabled() const {
    return lines_.front().health != nullptr;
  }
  /// Line `line`'s checker; null until enable_fault_tolerance().
  [[nodiscard]] cluster::HealthChecker* line_health_checker(std::size_t line) {
    return lines_.at(line).health.get();
  }

  /// Arms the fault half of a scenario on the lines' timelines and keeps
  /// the plan so workload layers can pick up its arrival modulation and mix
  /// drift (Experiment::apply_scenario does both).  Fault events are
  /// applied through crash_node/restart_node/set_node_fail_slow and the
  /// network link-fault hooks, each on its subject node's line (a
  /// both-ends-wildcard link event lands on every line).  Re-installing
  /// replaces the previous scenario and its armed faults; the plan is
  /// assigned in place, so pointers into scenario() (the workloads'
  /// arrival modulation) stay valid.  Throws std::invalid_argument, before
  /// arming or replacing anything, when a fault names a node the model
  /// does not have (link endpoints may be sim::kFaultAnyNode).
  void install_scenario(const sim::ScenarioPlan& plan);
  /// The installed scenario, whose faults are the armed ones; null before
  /// the first install.
  [[nodiscard]] const sim::ScenarioPlan* scenario() const {
    return scenario_.has_value() ? &*scenario_ : nullptr;
  }

  // -- Overload control ---------------------------------------------------
  /// Feedback-controlled admission at the proxy tier; see
  /// ctrl::AdmissionController for the control law.  A model that never
  /// calls enable_admission_control() behaves bit-identically to one
  /// without the ctrl layer.
  struct OverloadControlConfig {
    ctrl::AdmissionController::Config admission{};
    webstack::ProxyServer::ShedMode shed_mode =
        webstack::ProxyServer::ShedMode::kServeStale;
  };

  /// Starts one admission controller per work line (on the line's own
  /// timeline) and attaches it to every proxy of that line.  Throws
  /// std::logic_error when admission control is already enabled.
  void enable_admission_control(const OverloadControlConfig& config);
  [[nodiscard]] bool admission_control_enabled() const {
    return lines_.front().admission != nullptr;
  }
  /// Line `line`'s admission controller; null until
  /// enable_admission_control().
  [[nodiscard]] ctrl::AdmissionController* line_admission(std::size_t line) {
    return lines_.at(line).admission.get();
  }

  /// Bumps the disturbance counter (controller actuations taint
  /// measurement windows exactly like faults and health transitions do).
  void note_disturbance() {
    disturbances_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Hook fired on every health mark transition as (node, now_up), after
  /// the model's own bookkeeping.  Used by core::ReconfigController's
  /// reactive mode; replace with an empty function to detach.
  void set_health_transition_hook(
      std::function<void(cluster::NodeId, bool)> hook) {
    health_hook_ = std::move(hook);
  }

  /// Kills a node: it stops answering health probes, its active role
  /// refuses new requests, and queued hardware/pool work is dropped
  /// through the existing rejection paths (in-service jobs finish; their
  /// late replies are defused by router generations/timeouts).
  void crash_node(cluster::NodeId id);
  /// Brings a crashed node back (restart burst charged by set_active).
  void restart_node(cluster::NodeId id);
  /// Applies a fail-slow CPU multiplier (1.0 = healthy).
  void set_node_fail_slow(cluster::NodeId id, double factor);

  /// Monotonic count of fault events and health-state transitions.
  /// Measurement windows snapshot it before/after to tag windows that
  /// overlapped a disturbance (Experiment::run_iteration).  Atomic with
  /// relaxed ordering: different lines' events bump it concurrently;
  /// reads at run_all_until() barriers see a stable total.
  [[nodiscard]] std::uint64_t disturbance_count() const {
    return disturbances_.load(std::memory_order_relaxed);
  }

  // -- Observability ------------------------------------------------------
  /// Unified pull-based metrics registry over this model: network,
  /// scheduler, router, server, pool, monitor and health counters plus the
  /// per-line latency histograms, all registered at construction.
  /// Snapshotting is on demand (cold path); nothing is pushed during
  /// simulation, so the registry is invisible to the timeline.  Aggregated
  /// counters sum over lines in index order — snapshots are byte-identical
  /// at any thread count.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }

  /// Attaches (nullptr: detaches) a span recorder to every server of every
  /// node.  Off by default; sampling inside the recorder is sequence-based.
  /// Throws std::logic_error on a model with more than one line: the
  /// recorder's ring is one mutable buffer, and lines running at the same
  /// time must not share mutable state.
  void set_trace_recorder(obs::TraceRecorder* trace);

  /// Per-line latency histograms, always recording (passive observation):
  /// frontend = full client round trip, app/db = tier hop including both
  /// network legs and backend service.
  [[nodiscard]] const obs::Histogram& frontend_latency(std::size_t line) const {
    return lines_.at(line).frontend_latency;
  }
  [[nodiscard]] const obs::Histogram& app_hop_latency(std::size_t line) const {
    return lines_.at(line).app_hop_latency;
  }
  [[nodiscard]] const obs::Histogram& db_hop_latency(std::size_t line) const {
    return lines_.at(line).db_hop_latency;
  }

  // -- Monitoring ---------------------------------------------------------
  /// Snapshot of per-node readings for harmony::Reconfigurer, using the
  /// monitor's smoothed utilizations: [cpu, disk, nic, memory].
  [[nodiscard]] std::vector<harmony::NodeReading> readings();

  /// Resource-kind order used in readings() / recommended policies.
  static constexpr std::size_t kCpu = 0, kDisk = 1, kNic = 2, kMemory = 3;
  [[nodiscard]] static harmony::ReconfigOptions default_reconfig_options();

 private:
  struct NodeState {
    cluster::NodeId id;
    std::size_t line;
    std::unique_ptr<webstack::ProxyServer> proxy;
    std::unique_ptr<webstack::AppServer> app;
    std::unique_ptr<webstack::DbServer> db;
    // Monitor probe indices (cpu, disk, nic, memory) in the line's monitor.
    std::size_t probe_base = 0;
    bool moving = false;
  };

  /// One work line: its timeline, the services bound to that timeline and
  /// the line's routing fabric.  Everything that references the timeline
  /// is declared after it, so it is destroyed first.
  struct Line {
    std::unique_ptr<sim::Simulator> owned_sim;  // null on a borrowed one
    sim::Simulator* sim = nullptr;
    std::unique_ptr<cluster::Network> network;
    std::unique_ptr<sim::UtilizationMonitor> monitor;
    std::unique_ptr<cluster::HealthChecker> health;
    std::unique_ptr<sim::FaultInjector> injector;
    std::vector<cluster::NodeId> nodes;
    std::unique_ptr<webstack::FrontendRouter> frontend;
    std::unique_ptr<webstack::AppTierRouter> app_router;
    std::unique_ptr<webstack::DbTierRouter> db_router;
    /// Hop-latency histograms fed by the routers.
    obs::Histogram frontend_latency;
    obs::Histogram app_hop_latency;
    obs::Histogram db_hop_latency;
    /// Per-line overload controller (enable_admission_control).
    std::unique_ptr<ctrl::AdmissionController> admission;
  };

  /// Builds every line on `borrowed`, or on an owned Simulator each when
  /// it is null.
  void build(sim::Simulator* borrowed);

  cluster::NodeId create_node(std::size_t line, cluster::TierKind tier);
  /// Role factories: create a role on first touch, inactive unless it
  /// matches the node's current tier.  Its arguments (and, for the db, its
  /// seed) do not depend on when that happens.
  webstack::ProxyServer& ensure_proxy(NodeState& state);
  webstack::AppServer& ensure_app(NodeState& state);
  webstack::DbServer& ensure_db(NodeState& state);
  void deactivate_unless_current(NodeState& state, cluster::TierKind role);
  void register_active(NodeState& state);
  void deregister_active(NodeState& state, cluster::TierKind role);
  /// Re-checks the node's active server every simulated second until it is
  /// idle, then calls finish_move().
  void drain_then_finish(cluster::NodeId id, cluster::TierKind to,
                         common::SimTime config_cost);
  void finish_move(cluster::NodeId id, cluster::TierKind to,
                   common::SimTime config_cost);
  /// install_scenario's fault step: checks every event's node ids, then
  /// re-arms every line's injector with its slice of `plan`.
  void install_fault_plan(const sim::FaultPlan& plan);
  /// FaultInjector dispatcher: maps generic fault events onto this model.
  /// `line` routes link faults to the right line's network.
  void apply_fault(std::size_t line, const sim::FaultEvent& event);
  /// set_active(on/off) for the role matching the node's current tier.
  void set_role_active(NodeState& state, bool active);
  /// Registers every pull source with metrics_ (end of construction).
  void register_metrics();

  Config config_;
  common::ThreadPool* pool_ = nullptr;
  /// Owns the line timelines — declared before every other member that
  /// references a timeline, so those are destroyed first.
  std::vector<Line> lines_;
  cluster::Cluster cluster_;
  std::vector<NodeState> nodes_;
  std::vector<cluster::NodeId> all_nodes_;
  obs::Registry metrics_;
  std::atomic<std::uint64_t> disturbances_{0};
  /// Remembered for roles created after the respective setter ran.
  webstack::ProxyServer::Resilience proxy_resilience_{};
  webstack::ProxyServer::ShedMode shed_mode_ =
      webstack::ProxyServer::ShedMode::kServeStale;
  std::optional<sim::ScenarioPlan> scenario_;
  std::function<void(cluster::NodeId, bool)> health_hook_;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace ah::core
