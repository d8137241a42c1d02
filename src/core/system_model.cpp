#include "core/system_model.hpp"

#include <cassert>
#include <stdexcept>

#include "common/analysis.hpp"
#include "common/fmt.hpp"

namespace ah::core {

using cluster::NodeId;
using cluster::TierKind;

namespace {
/// Poll period while waiting for a draining node to empty.
constexpr auto kDrainPoll = common::SimTime::seconds(1.0);
/// Client -> proxy spreading: the testbed's DNS/IPVS style rotation.
constexpr auto kFrontendPolicy = cluster::BalancePolicy::kRoundRobin;
/// Proxy -> app and app -> db: busyness-based, like mod_jk's balancer and
/// DB connection pools.  Round-robin here would let one slow backend
/// accumulate an unbounded queue (no back-pressure).
constexpr auto kBackendPolicy = cluster::BalancePolicy::kLeastLoaded;
/// Role-dependent Eq.-1 inputs: average per-job remaining processing time
/// (A_k) and per-job migration cost (M_km).  Derived from the simulated
/// service demands: proxy jobs are short, app jobs span DB round trips.
double avg_process_seconds(TierKind tier) {
  switch (tier) {
    case TierKind::kProxy: return 0.010;
    case TierKind::kApp:   return 0.060;
    case TierKind::kDb:    return 0.025;
  }
  return 0.02;
}
double move_cost_seconds(TierKind tier) {
  switch (tier) {
    case TierKind::kProxy: return 0.004;
    case TierKind::kApp:   return 0.020;
    case TierKind::kDb:    return 0.015;
  }
  return 0.01;
}
}  // namespace

SystemModel::SystemModel(const Config& config) : config_(config) {
  build(nullptr);
}

SystemModel::SystemModel(sim::Simulator& sim, const Config& config)
    : config_(config) {
  if (config.lines.size() > 1) {
    throw std::invalid_argument(
        "SystemModel: a caller-owned timeline carries one work line; build "
        "multi-line models with SystemModel(config)");
  }
  build(&sim);
}

void SystemModel::build(sim::Simulator* borrowed) {
  if (config_.lines.empty()) {
    throw std::invalid_argument("SystemModel: no work lines");
  }
  // Sized once: the routers point into each Line's histograms, so lines_
  // must never reallocate.
  lines_.resize(config_.lines.size());
  for (std::size_t li = 0; li < lines_.size(); ++li) {
    Line& line = lines_[li];
    if (borrowed != nullptr) {
      line.sim = borrowed;
    } else {
      line.owned_sim = std::make_unique<sim::Simulator>();
      line.sim = line.owned_sim.get();
    }
    line.network = std::make_unique<cluster::Network>(*line.sim);
    line.frontend = std::make_unique<webstack::FrontendRouter>(
        *line.sim, kFrontendPolicy);
    line.app_router = std::make_unique<webstack::AppTierRouter>(
        *line.network, kBackendPolicy);
    line.db_router = std::make_unique<webstack::DbTierRouter>(
        *line.network, kBackendPolicy);
    line.frontend->set_hop_histogram(&line.frontend_latency);
    line.app_router->set_hop_histogram(&line.app_hop_latency);
    line.db_router->set_hop_histogram(&line.db_hop_latency);
  }
  for (std::size_t li = 0; li < lines_.size(); ++li) {
    const LineSpec& spec = config_.lines[li];
    if (spec.proxy_nodes < 1 || spec.app_nodes < 1 || spec.db_nodes < 1) {
      throw std::invalid_argument(
          "SystemModel: each line needs >= 1 node per tier");
    }
    for (int i = 0; i < spec.proxy_nodes; ++i) {
      create_node(li, TierKind::kProxy);
    }
    for (int i = 0; i < spec.app_nodes; ++i) {
      create_node(li, TierKind::kApp);
    }
    for (int i = 0; i < spec.db_nodes; ++i) {
      create_node(li, TierKind::kDb);
    }
  }
  all_nodes_.reserve(nodes_.size());
  for (const NodeState& state : nodes_) all_nodes_.push_back(state.id);
  // Monitors come last: each arms its first sample at construction, after
  // every event its line's nodes and servers pushed while being built.
  for (Line& line : lines_) {
    line.monitor = std::make_unique<sim::UtilizationMonitor>(*line.sim);
    for (const NodeId id : line.nodes) {
      cluster::Node& node = cluster_.node(id);
      nodes_[id].probe_base = line.monitor->add_probe(
          node.name() + ".cpu",
          [&node] { return node.cpu_utilization_probe(); });
      line.monitor->add_probe(node.name() + ".disk", [&node] {
        return node.disk_utilization_probe();
      });
      line.monitor->add_probe(node.name() + ".nic", [&node] {
        return node.nic_utilization_probe();
      });
      line.monitor->add_probe(node.name() + ".mem",
                              [&node] { return node.memory_pressure(); });
    }
  }
  register_metrics();
}

NodeId SystemModel::create_node(std::size_t line_index, TierKind tier) {
  Line& line = lines_[line_index];
  const NodeId id = cluster_.add_node(*line.sim, tier);

  NodeState state;
  state.id = id;
  state.line = line_index;
  nodes_.push_back(std::move(state));
  NodeState& stored = nodes_.back();

  switch (tier) {
    case TierKind::kProxy: ensure_proxy(stored); break;
    case TierKind::kApp:   ensure_app(stored); break;
    case TierKind::kDb:    ensure_db(stored); break;
  }

  line.nodes.push_back(id);
  register_active(stored);
  return id;
}

webstack::ProxyServer& SystemModel::ensure_proxy(NodeState& state) {
  if (state.proxy == nullptr) {
    Line& line = lines_[state.line];
    cluster::Node& node = cluster_.node(state.id);
    webstack::AppTierRouter* app_router = line.app_router.get();
    state.proxy = std::make_unique<webstack::ProxyServer>(
        *line.sim, node,
        // Mixed hot/cold TU: this builder is construction-time code, but
        // the wiring closure it creates carries every proxy->app hop, so it
        // is seeded instead of whole-file-marking the model builder.
        // AH_LINT_ALLOW(hot_path_reach, "mixed TU: only the closures are hot")
        [app_router](const webstack::Request& request, cluster::Node& from,
                     webstack::ResponseFn done) {
          AH_HOT_ENTRY;  // proxy->app hop: runs once per dynamic request
          app_router->route(request, from, std::move(done));
        },
        webstack::ProxyParams{});
    deactivate_unless_current(state, TierKind::kProxy);
    if (fault_tolerance_enabled()) {
      state.proxy->set_resilience(proxy_resilience_);
    }
    if (line.admission != nullptr) {
      state.proxy->set_admission(line.admission.get(), shed_mode_);
    }
    if (trace_ != nullptr) state.proxy->set_trace(trace_);
  }
  return *state.proxy;
}

webstack::AppServer& SystemModel::ensure_app(NodeState& state) {
  if (state.app == nullptr) {
    Line& line = lines_[state.line];
    cluster::Node& node = cluster_.node(state.id);
    webstack::DbTierRouter* db_router = line.db_router.get();
    state.app = std::make_unique<webstack::AppServer>(
        *line.sim, node,
        [db_router](const webstack::DbQuery& query, cluster::Node& from,
                    webstack::DbResultFn done) {
          AH_HOT_ENTRY;  // app->db hop: runs once per backend query
          db_router->route(query, from, std::move(done));
        },
        webstack::AppParams{});
    deactivate_unless_current(state, TierKind::kApp);
    if (trace_ != nullptr) state.app->set_trace(trace_);
  }
  return *state.app;
}

webstack::DbServer& SystemModel::ensure_db(NodeState& state) {
  if (state.db == nullptr) {
    cluster::Node& node = cluster_.node(state.id);
    state.db = std::make_unique<webstack::DbServer>(
        *lines_[state.line].sim, node, webstack::DbParams{},
        common::mix_seed(config_.seed, 0x0db + state.id));
    deactivate_unless_current(state, TierKind::kDb);
    if (trace_ != nullptr) state.db->set_trace(trace_);
  }
  return *state.db;
}

void SystemModel::deactivate_unless_current(NodeState& state, TierKind role) {
  if (cluster_.tier_of(state.id) == role) return;
  switch (role) {
    case TierKind::kProxy: state.proxy->set_active(false); break;
    case TierKind::kApp:   state.app->set_active(false); break;
    case TierKind::kDb:    state.db->set_active(false); break;
  }
}

void SystemModel::register_active(NodeState& state) {
  Line& line = lines_[state.line];
  switch (cluster_.tier_of(state.id)) {
    case TierKind::kProxy: line.frontend->add_backend(state.proxy.get()); break;
    case TierKind::kApp:   line.app_router->add_backend(state.app.get()); break;
    case TierKind::kDb:    line.db_router->add_backend(state.db.get()); break;
  }
}

void SystemModel::deregister_active(NodeState& state, TierKind role) {
  Line& line = lines_[state.line];
  switch (role) {
    case TierKind::kProxy: line.frontend->remove_backend(state.proxy.get()); break;
    case TierKind::kApp:   line.app_router->remove_backend(state.app.get()); break;
    case TierKind::kDb:    line.db_router->remove_backend(state.db.get()); break;
  }
}

webstack::FrontendRouter& SystemModel::frontend(std::size_t line) {
  return *lines_.at(line).frontend;
}

common::SimTime SystemModel::now() const {
  // Every line's clock agrees at run_all_until() barriers; line 0 stands in.
  return lines_[0].sim->now();
}

void SystemModel::run_all_until(common::SimTime until) {
  if (pool_ != nullptr && lines_.size() > 1 && pool_->size() > 1) {
    // Each line's timeline is sequential within its task; which thread
    // runs which line never affects any line's event order, so the merge
    // below the barrier sees bit-identical state at any pool size.
    pool_->parallel_for(lines_.size(), [this, until](std::size_t li) {
      lines_[li].sim->run_until(until);
    });
  } else {
    for (Line& line : lines_) line.sim->run_until(until);
  }
}

const std::vector<NodeId>& SystemModel::line_nodes(std::size_t line) const {
  return lines_.at(line).nodes;
}

std::size_t SystemModel::line_of(NodeId id) const {
  return nodes_.at(id).line;
}

void SystemModel::apply_values_to_node(NodeId id,
                                       std::span<const std::int64_t> values) {
  NodeState& state = nodes_.at(id);
  switch (cluster_.tier_of(id)) {
    case TierKind::kProxy:
      ensure_proxy(state).reconfigure(webstack::proxy_from_values(values));
      break;
    case TierKind::kApp:
      ensure_app(state).reconfigure(webstack::app_from_values(values));
      break;
    case TierKind::kDb:
      ensure_db(state).reconfigure(webstack::db_from_values(values));
      break;
  }
}

void SystemModel::apply_values_all(std::span<const std::int64_t> values) {
  for (const auto& state : nodes_) apply_values_to_node(state.id, values);
}

void SystemModel::apply_values_line(std::size_t line,
                                    std::span<const std::int64_t> values) {
  for (const NodeId id : lines_.at(line).nodes) {
    apply_values_to_node(id, values);
  }
}

webstack::ProxyServer& SystemModel::proxy_on(NodeId id) {
  return ensure_proxy(nodes_.at(id));
}

webstack::AppServer& SystemModel::app_on(NodeId id) {
  return ensure_app(nodes_.at(id));
}

webstack::DbServer& SystemModel::db_on(NodeId id) {
  return ensure_db(nodes_.at(id));
}

int SystemModel::active_load(NodeId id) {
  NodeState& state = nodes_.at(id);
  switch (cluster_.tier_of(id)) {
    case TierKind::kProxy: return state.proxy != nullptr ? state.proxy->load() : 0;
    case TierKind::kApp:   return state.app != nullptr ? state.app->load() : 0;
    case TierKind::kDb:    return state.db != nullptr ? state.db->load() : 0;
  }
  return 0;
}

void SystemModel::move_node(NodeId id, TierKind to, bool immediate,
                            common::SimTime config_cost) {
  if (lines_.size() > 1) {
    throw std::logic_error(
        "SystemModel: move_node needs a one-line model (tier membership is "
        "counted cluster-wide)");
  }
  NodeState& state = nodes_.at(id);
  if (state.moving) {
    throw std::logic_error("SystemModel: node already being moved");
  }
  const TierKind from = cluster_.tier_of(id);
  if (from == to) return;
  if (cluster_.tier(from).size() <= 1) {
    throw std::logic_error("SystemModel: source tier would become empty");
  }
  state.moving = true;
  deregister_active(state, from);  // stop new traffic right away

  if (immediate) {
    // Existing jobs are migrated to same-tier neighbours (cost M_km was
    // already accounted in the decision); the switch starts now.
    finish_move(id, to, config_cost);
  } else {
    drain_then_finish(id, to, config_cost);
  }
}

void SystemModel::drain_then_finish(NodeId id, TierKind to,
                                    common::SimTime config_cost) {
  // Wait for in-flight jobs to finish, polling the active server.
  lines_[nodes_.at(id).line].sim->schedule(
      kDrainPoll, [this, id, to, config_cost] {
        if (active_load(id) > 0) {
          drain_then_finish(id, to, config_cost);
        } else {
          finish_move(id, to, config_cost);
        }
      });
}

void SystemModel::finish_move(NodeId id, TierKind to,
                              common::SimTime config_cost) {
  lines_[nodes_.at(id).line].sim->schedule(config_cost, [this, id, to] {
    NodeState& state = nodes_.at(id);
    // The target role is created (inactive) before membership changes, so
    // its activation below charges the role's restart burst.
    switch (to) {
      case TierKind::kProxy: ensure_proxy(state); break;
      case TierKind::kApp:   ensure_app(state); break;
      case TierKind::kDb:    ensure_db(state); break;
    }
    set_role_active(state, false);  // the role of the tier it leaves
    cluster_.move_node(id, to);
    // A node that crashed mid-move joins its new tier dead; restart_node
    // activates the role.
    if (cluster_.node(id).alive()) set_role_active(state, true);
    register_active(state);
    state.moving = false;
  });
}

bool SystemModel::move_in_progress(NodeId id) const {
  return nodes_.at(id).moving;
}

webstack::ProxyServer::Resilience
SystemModel::FaultToleranceConfig::default_proxy_resilience() {
  webstack::ProxyServer::Resilience resilience;
  // Two quick exponential re-forwards with deterministic jitter, then fall
  // back to stale cache copies: bounded work per failed request, no
  // synchronized retry storm against a recovering tier.
  resilience.retry.base = common::SimTime::millis(500);
  resilience.retry.growth = 2.0;
  resilience.retry.cap = common::SimTime::seconds(5.0);
  resilience.retry.jitter = 0.2;
  resilience.retry.max_retries = 2;
  resilience.serve_stale = true;
  return resilience;
}

void SystemModel::enable_fault_tolerance(const FaultToleranceConfig& config) {
  if (fault_tolerance_enabled()) {
    throw std::logic_error("SystemModel: fault tolerance already enabled");
  }
  for (Line& line : lines_) {
    // Each checker probes only its line's nodes: health state stays
    // line-local, and the per-line sums below keep the metric totals.
    line.health = std::make_unique<cluster::HealthChecker>(
        *line.sim, cluster_, config.health, line.nodes);
    line.health->set_transition_observer([this](NodeId id, bool up) {
      disturbances_.fetch_add(1, std::memory_order_relaxed);
      if (health_hook_) health_hook_(id, up);
    });
  }
  // The health counters join the registry.  Probe-budget and mark-down
  // visibility: how much of the probe budget is being burnt
  // (failed_probes), how often it is exhausted into a mark flip
  // (mark_downs/mark_ups), and the durations those flips cost (downtime_us
  // aggregate + nodes_down level).
  const auto health_sum =
      [this](std::uint64_t (cluster::HealthChecker::*counter)() const) {
        std::uint64_t total = 0;
        for (const Line& line : lines_) total += (*line.health.*counter)();
        return total;
      };
  using cluster::HealthChecker;
  metrics_.add_counter("health.probes_sent", [health_sum] {
    return health_sum(&HealthChecker::probes_sent);
  });
  metrics_.add_counter("health.transitions", [health_sum] {
    return health_sum(&HealthChecker::transitions);
  });
  metrics_.add_counter("health.failed_probes", [health_sum] {
    return health_sum(&HealthChecker::failed_probes);
  });
  metrics_.add_counter("health.mark_downs", [health_sum] {
    return health_sum(&HealthChecker::mark_downs);
  });
  metrics_.add_counter("health.mark_ups", [health_sum] {
    return health_sum(&HealthChecker::mark_ups);
  });
  metrics_.add_counter("health.downtime_us", [this] {
    common::SimTime total = common::SimTime::zero();
    for (const Line& line : lines_) {
      total = total + line.health->total_downtime();
    }
    return static_cast<std::uint64_t>(total.as_micros());
  });
  metrics_.add_gauge("health.nodes_down", [this] {
    int total = 0;
    for (const Line& line : lines_) total += line.health->nodes_down();
    return static_cast<double>(total);
  });
  for (Line& line : lines_) {
    line.frontend->set_hop_timeout(config.hop_timeout);
    line.app_router->set_hop_timeout(config.hop_timeout);
    line.db_router->set_hop_timeout(config.hop_timeout);
  }
  proxy_resilience_ = config.proxy;
  for (NodeState& state : nodes_) {
    if (state.proxy != nullptr) state.proxy->set_resilience(config.proxy);
  }
}

void SystemModel::enable_admission_control(const OverloadControlConfig& config) {
  if (admission_control_enabled()) {
    throw std::logic_error("SystemModel: admission control already enabled");
  }
  shed_mode_ = config.shed_mode;
  for (Line& line : lines_) {
    line.admission = std::make_unique<ctrl::AdmissionController>(
        *line.sim, config.admission);
    // Controller actuations taint measurement windows like faults do — a
    // window that straddles an admit-fraction change is not a clean read
    // of the configuration under test.
    line.admission->set_change_observer(
        [this](double) { note_disturbance(); });
  }
  // The ctrl counters join the registry.  Sums are in line order, so
  // snapshots stay byte-identical at any thread count.
  const auto ctrl_sum =
      [this](std::uint64_t (ctrl::AdmissionController::*counter)() const) {
        std::uint64_t total = 0;
        for (const Line& line : lines_) total += (*line.admission.*counter)();
        return total;
      };
  using ctrl::AdmissionController;
  metrics_.add_counter("ctrl.admitted", [ctrl_sum] {
    return ctrl_sum(&AdmissionController::admitted);
  });
  metrics_.add_counter("ctrl.shed", [ctrl_sum] {
    return ctrl_sum(&AdmissionController::shed);
  });
  metrics_.add_counter("ctrl.ticks", [ctrl_sum] {
    return ctrl_sum(&AdmissionController::ticks);
  });
  metrics_.add_counter("ctrl.adjustments", [ctrl_sum] {
    return ctrl_sum(&AdmissionController::adjustments);
  });
  for (std::size_t l = 0; l < lines_.size(); ++l) {
    ctrl::AdmissionController* controller = lines_[l].admission.get();
    metrics_.add_gauge("line" + std::to_string(l) + ".admit_fraction",
                       [controller] { return controller->admit_fraction(); });
  }
  for (NodeState& state : nodes_) {
    if (state.proxy != nullptr) {
      state.proxy->set_admission(lines_[state.line].admission.get(),
                                 config.shed_mode);
    }
  }
}

void SystemModel::install_scenario(const sim::ScenarioPlan& plan) {
  // Faults first: they are checked before anything is armed, so a rejected
  // plan leaves the installed scenario (which workloads may point into)
  // and its armed faults as they were.
  install_fault_plan(plan.faults);
  scenario_ = plan;
}

void SystemModel::install_fault_plan(const sim::FaultPlan& plan) {
  // Partition by the subject node's line so every event fires on the
  // timeline whose state it touches.  Every line's injector is re-armed
  // (possibly with an empty slice) so a re-install clears stale events
  // everywhere.  Nothing is armed until every event has been checked.
  std::vector<sim::FaultPlan> per_line(lines_.size());
  for (const sim::FaultEvent& event : plan.events) {
    const bool is_link = event.kind == sim::FaultEvent::Kind::kLinkDegrade ||
                         event.kind == sim::FaultEvent::Kind::kLinkRestore;
    const auto known = [this, is_link](std::uint32_t id) {
      return id < nodes_.size() || (is_link && id == sim::kFaultAnyNode);
    };
    if (!known(event.node) || (is_link && !known(event.peer))) {
      throw std::invalid_argument(common::format(
          "fault plan: {} names node {}, but the model has nodes 0-{}",
          sim::fault_kind_name(event.kind),
          known(event.node) ? event.peer : event.node, nodes_.size() - 1));
    }
    if (is_link && event.node == sim::kFaultAnyNode &&
        event.peer == sim::kFaultAnyNode) {
      for (sim::FaultPlan& slice : per_line) slice.events.push_back(event);
      continue;
    }
    std::uint32_t subject = event.node;
    if (is_link && subject == sim::kFaultAnyNode) subject = event.peer;
    per_line[line_of(subject)].events.push_back(event);
  }
  for (std::size_t li = 0; li < lines_.size(); ++li) {
    Line& line = lines_[li];
    if (line.injector == nullptr) {
      line.injector = std::make_unique<sim::FaultInjector>(*line.sim);
    }
    line.injector->arm(per_line[li], [this, li](const sim::FaultEvent& event) {
      apply_fault(li, event);
    });
  }
}

void SystemModel::apply_fault(std::size_t line, const sim::FaultEvent& event) {
  switch (event.kind) {
    case sim::FaultEvent::Kind::kCrash:
      crash_node(event.node);
      break;
    case sim::FaultEvent::Kind::kRestart:
      restart_node(event.node);
      break;
    case sim::FaultEvent::Kind::kSlowStart:
      set_node_fail_slow(event.node, event.magnitude);
      break;
    case sim::FaultEvent::Kind::kSlowEnd:
      set_node_fail_slow(event.node, 1.0);
      break;
    case sim::FaultEvent::Kind::kLinkDegrade:
      // sim::kFaultAnyNode and cluster::kAnyNode are both ~0u, so ids pass
      // through unchanged.
      disturbances_.fetch_add(1, std::memory_order_relaxed);
      lines_[line].network->set_link_fault(event.node, event.peer,
                                           event.magnitude, event.delay);
      break;
    case sim::FaultEvent::Kind::kLinkRestore:
      disturbances_.fetch_add(1, std::memory_order_relaxed);
      lines_[line].network->clear_link_fault(event.node, event.peer);
      break;
  }
}

void SystemModel::set_role_active(NodeState& state, bool active) {
  switch (cluster_.tier_of(state.id)) {
    case TierKind::kProxy: state.proxy->set_active(active); break;
    case TierKind::kApp:   state.app->set_active(active); break;
    case TierKind::kDb:    state.db->set_active(active); break;
  }
}

void SystemModel::crash_node(NodeId id) {
  NodeState& state = nodes_.at(id);
  cluster::Node& node = cluster_.node(id);
  if (!node.alive()) return;
  disturbances_.fetch_add(1, std::memory_order_relaxed);
  node.set_alive(false);
  // New requests fail fast at the dead server until the health checker
  // reroutes them; a node mid-move has no registered role to deactivate.
  if (!state.moving) set_role_active(state, false);
  // Drop queued (not yet in-service) work through the existing rejection
  // paths.  Continuations die uninvoked; router generation stamps and hop
  // timeouts are what keep upstream callers from hanging.  In-service
  // hardware jobs finish — a crash cannot un-burn CPU already modelled.
  // Roles the node never played have no pools to clear.
  node.cpu().clear_queue();
  node.disk().clear_queue();
  node.nic().drop_waiting();
  if (state.app != nullptr) {
    state.app->http_pool().clear_waiters();
    state.app->ajp_pool().clear_waiters();
  }
  if (state.db != nullptr) {
    state.db->connections().clear_waiters();
    state.db->executors().clear_waiters();
  }
}

void SystemModel::restart_node(NodeId id) {
  NodeState& state = nodes_.at(id);
  cluster::Node& node = cluster_.node(id);
  if (node.alive()) return;
  disturbances_.fetch_add(1, std::memory_order_relaxed);
  node.set_alive(true);
  node.set_fault_slowdown(1.0);
  // Reactivation charges the role's restart burst (cold caches, config
  // parse) — recovery is visible in the WIPS series, as on the testbed.
  if (!state.moving) set_role_active(state, true);
}

void SystemModel::set_node_fail_slow(NodeId id, double factor) {
  cluster::Node& node = cluster_.node(id);
  disturbances_.fetch_add(1, std::memory_order_relaxed);
  node.set_fault_slowdown(factor);
}

void SystemModel::set_trace_recorder(obs::TraceRecorder* trace) {
  if (lines_.size() > 1 && trace != nullptr) {
    throw std::logic_error(
        "SystemModel: trace recording shares one mutable ring; it needs a "
        "one-line model");
  }
  trace_ = trace;
  for (NodeState& state : nodes_) {
    if (state.proxy != nullptr) state.proxy->set_trace(trace);
    if (state.app != nullptr) state.app->set_trace(trace);
    if (state.db != nullptr) state.db->set_trace(trace);
  }
}

void SystemModel::register_metrics() {
  // Network fabric.  Sums run in line order, so every aggregate is
  // deterministic.
  metrics_.add_counter("network.messages_sent", [this] {
    std::uint64_t total = 0;
    for (const Line& line : lines_) total += line.network->messages_sent();
    return total;
  });
  metrics_.add_counter("network.messages_dropped", [this] {
    std::uint64_t total = 0;
    for (const Line& line : lines_) total += line.network->messages_dropped();
    return total;
  });
  metrics_.add_counter("network.bytes_sent", [this] {
    common::Bytes bytes = 0;
    for (const Line& line : lines_) bytes += line.network->bytes_sent();
    return bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0u;
  });

  // Event scheduler: executed work, pending events and the events the
  // queues physically store, over all timelines.  Cancellation frees a slot
  // at once, so stored always equals pending.
  metrics_.add_counter("scheduler.events_executed", [this] {
    std::uint64_t total = 0;
    for (const Line& line : lines_) total += line.sim->events_executed();
    return total;
  });
  metrics_.add_counter("scheduler.pending_events", [this] {
    std::size_t total = 0;
    for (const Line& line : lines_) total += line.sim->pending_events();
    return static_cast<std::uint64_t>(total);
  });
  metrics_.add_counter("scheduler.stored_events", [this] {
    std::size_t total = 0;
    for (const Line& line : lines_) total += line.sim->stored_events();
    return static_cast<std::uint64_t>(total);
  });

  // Router degradation counters, aggregated over lines (PR-5).
  metrics_.add_counter("routers.timeouts", [this] {
    std::uint64_t total = 0;
    for (const Line& line : lines_) {
      total += line.frontend->stats().timeouts +
               line.app_router->stats().timeouts +
               line.db_router->stats().timeouts;
    }
    return total;
  });
  metrics_.add_counter("routers.fast_fails", [this] {
    std::uint64_t total = 0;
    for (const Line& line : lines_) {
      total += line.frontend->stats().fast_fails +
               line.app_router->stats().fast_fails +
               line.db_router->stats().fast_fails;
    }
    return total;
  });

  // Server stats, aggregated over nodes.  Helper sums one Stats field;
  // never-created roles contribute zero.
  const auto proxy_sum =
      [this](std::uint64_t webstack::ProxyServer::Stats::*field) {
        std::uint64_t total = 0;
        for (const NodeState& state : nodes_) {
          if (state.proxy != nullptr) total += state.proxy->stats().*field;
        }
        return total;
      };
  using ProxyStats = webstack::ProxyServer::Stats;
  metrics_.add_counter("proxy.served",
                       [proxy_sum] { return proxy_sum(&ProxyStats::served); });
  metrics_.add_counter("proxy.mem_hits", [proxy_sum] {
    return proxy_sum(&ProxyStats::mem_hits);
  });
  metrics_.add_counter("proxy.disk_hits", [proxy_sum] {
    return proxy_sum(&ProxyStats::disk_hits);
  });
  metrics_.add_counter("proxy.misses_forwarded", [proxy_sum] {
    return proxy_sum(&ProxyStats::misses_forwarded);
  });
  metrics_.add_counter("proxy.errors",
                       [proxy_sum] { return proxy_sum(&ProxyStats::errors); });
  metrics_.add_counter("proxy.upstream_retries", [proxy_sum] {
    return proxy_sum(&ProxyStats::upstream_retries);
  });
  metrics_.add_counter("proxy.stale_served", [proxy_sum] {
    return proxy_sum(&ProxyStats::stale_served);
  });
  metrics_.add_counter("proxy.shed",
                       [proxy_sum] { return proxy_sum(&ProxyStats::shed); });
  metrics_.add_counter("proxy.shed_stale", [proxy_sum] {
    return proxy_sum(&ProxyStats::shed_stale);
  });

  const auto app_sum =
      [this](std::uint64_t webstack::AppServer::Stats::*field) {
        std::uint64_t total = 0;
        for (const NodeState& state : nodes_) {
          if (state.app != nullptr) total += state.app->stats().*field;
        }
        return total;
      };
  using AppStats = webstack::AppServer::Stats;
  metrics_.add_counter("app.served",
                       [app_sum] { return app_sum(&AppStats::served); });
  metrics_.add_counter("app.rejected_http", [app_sum] {
    return app_sum(&AppStats::rejected_http);
  });
  metrics_.add_counter("app.rejected_ajp", [app_sum] {
    return app_sum(&AppStats::rejected_ajp);
  });
  metrics_.add_counter("app.db_queries",
                       [app_sum] { return app_sum(&AppStats::db_queries); });
  metrics_.add_counter("app.threads_spawned", [app_sum] {
    return app_sum(&AppStats::threads_spawned);
  });
  metrics_.add_counter("app.refused",
                       [app_sum] { return app_sum(&AppStats::refused); });

  const auto db_sum = [this](std::uint64_t webstack::DbServer::Stats::*field) {
    std::uint64_t total = 0;
    for (const NodeState& state : nodes_) {
      if (state.db != nullptr) total += state.db->stats().*field;
    }
    return total;
  };
  using DbStats = webstack::DbServer::Stats;
  metrics_.add_counter("db.queries",
                       [db_sum] { return db_sum(&DbStats::queries); });
  metrics_.add_counter("db.table_cache_misses", [db_sum] {
    return db_sum(&DbStats::table_cache_misses);
  });
  metrics_.add_counter("db.binlog_flushes", [db_sum] {
    return db_sum(&DbStats::binlog_flushes);
  });
  metrics_.add_counter("db.delayed_batches", [db_sum] {
    return db_sum(&DbStats::delayed_batches);
  });

  // Pool occupancy (gauges over int accessors — instantaneous values).
  metrics_.add_gauge("pools.app_http.in_use", [this] {
    int total = 0;
    for (const NodeState& state : nodes_) {
      if (state.app != nullptr) total += state.app->http_pool().in_use();
    }
    return static_cast<double>(total);
  });
  metrics_.add_gauge("pools.app_ajp.in_use", [this] {
    int total = 0;
    for (const NodeState& state : nodes_) {
      if (state.app != nullptr) total += state.app->ajp_pool().in_use();
    }
    return static_cast<double>(total);
  });
  metrics_.add_gauge("pools.db_connections.in_use", [this] {
    int total = 0;
    for (const NodeState& state : nodes_) {
      if (state.db != nullptr) total += state.db->connections().in_use();
    }
    return static_cast<double>(total);
  });
  metrics_.add_gauge("pools.db_executors.in_use", [this] {
    int total = 0;
    for (const NodeState& state : nodes_) {
      if (state.db != nullptr) total += state.db->executors().in_use();
    }
    return static_cast<double>(total);
  });

  // Utilization monitor: sample count plus every probe's EWMA.  Lines in
  // index order, probes in node-creation order.
  metrics_.add_counter("monitor.samples_taken", [this] {
    std::uint64_t total = 0;
    for (const Line& line : lines_) total += line.monitor->samples_taken();
    return total;
  });
  for (const Line& line : lines_) {
    const sim::UtilizationMonitor* monitor = line.monitor.get();
    for (std::size_t i = 0; i < monitor->probe_count(); ++i) {
      metrics_.add_gauge("util." + monitor->probe_name(i),
                         [monitor, i] { return monitor->smoothed(i); });
    }
  }

  metrics_.add_counter("faults.disturbances", [this] {
    return disturbances_.load(std::memory_order_relaxed);
  });

  // Per-line latency distributions.
  for (std::size_t li = 0; li < lines_.size(); ++li) {
    const std::string prefix = "line" + std::to_string(li);
    metrics_.add_histogram(prefix + ".frontend_latency",
                           &lines_[li].frontend_latency);
    metrics_.add_histogram(prefix + ".app_hop_latency",
                           &lines_[li].app_hop_latency);
    metrics_.add_histogram(prefix + ".db_hop_latency",
                           &lines_[li].db_hop_latency);
  }
}

std::vector<harmony::NodeReading> SystemModel::readings() {
  std::vector<harmony::NodeReading> out;
  out.reserve(nodes_.size());
  for (auto& state : nodes_) {
    if (state.moving) continue;  // mid-move nodes are neither donors nor hot
    const cluster::Node& node = cluster_.node(state.id);
    // Dead or marked-down nodes carry no usable load signal and must not
    // be chosen as reconfiguration donors; the controller sees the tier's
    // capacity shrink instead (Cluster::healthy_count).
    if (!node.alive() || !node.marked_up()) continue;
    const TierKind tier = cluster_.tier_of(state.id);
    const sim::UtilizationMonitor& monitor = *lines_[state.line].monitor;
    harmony::NodeReading reading;
    reading.node_id = state.id;
    reading.tier = static_cast<int>(tier);
    reading.utilization = {
        monitor.smoothed(state.probe_base + kCpu),
        monitor.smoothed(state.probe_base + kDisk),
        monitor.smoothed(state.probe_base + kNic),
        monitor.smoothed(state.probe_base + kMemory),
    };
    reading.jobs = static_cast<double>(active_load(state.id));
    reading.avg_process_seconds = avg_process_seconds(tier);
    reading.move_cost_seconds = move_cost_seconds(tier);
    out.push_back(std::move(reading));
  }
  return out;
}

harmony::ReconfigOptions SystemModel::default_reconfig_options() {
  harmony::ReconfigOptions options;
  options.resources = {
      // cpu: highest urgency weight (paper footnote 3)
      harmony::ResourcePolicy{0.85, 0.30, 4.0},
      // disk
      harmony::ResourcePolicy{0.85, 0.35, 2.0},
      // nic
      harmony::ResourcePolicy{0.85, 0.35, 1.0},
      // memory pressure: loose low bound — every live server holds memory
      harmony::ResourcePolicy{0.97, 0.90, 3.0},
  };
  options.config_cost_seconds = 8.0;
  return options;
}

}  // namespace ah::core
