#include "core/system_model.hpp"

#include <cassert>
#include <stdexcept>

#include "common/analysis.hpp"
#include "common/log.hpp"
#include "core/model_immutable.hpp"

namespace ah::core {

using cluster::NodeId;
using cluster::TierKind;

namespace {
/// Poll period while waiting for a draining node to empty.
constexpr auto kDrainPoll = common::SimTime::seconds(1.0);
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

SystemModel::SystemModel(sim::Simulator& sim, const Config& config)
    : config_(config), sharded_(false) {
  Shard shard;
  shard.sim = &sim;
  shards_.push_back(std::move(shard));
  build(config);
}

SystemModel::SystemModel(const Config& config)
    : config_(config), sharded_(true) {
  for (std::size_t li = 0; li < config.lines.size(); ++li) {
    Shard shard;
    shard.owned_sim = std::make_unique<sim::Simulator>();
    shard.sim = shard.owned_sim.get();
    shards_.push_back(std::move(shard));
  }
  build(config);
}

void SystemModel::build(const Config& config) {
  if (config.lines.empty()) {
    throw std::invalid_argument("SystemModel: no work lines");
  }
  for (Shard& shard : shards_) {
    shard.network = std::make_unique<cluster::Network>(*shard.sim);
    shard.monitor = std::make_unique<sim::UtilizationMonitor>(
        *shard.sim, config.monitor_period, /*ewma_alpha=*/0.3);
  }
  cluster_ = std::make_unique<cluster::Cluster>(*shards_[0].sim);

  const std::uint64_t seed = config.seed;
  for (std::size_t li = 0; li < config.lines.size(); ++li) {
    Shard& shard = shard_of_line(li);
    Line line;
    line.frontend = std::make_unique<webstack::FrontendRouter>(
        *shard.sim, config.frontend_policy, common::SimTime::micros(300),
        common::mix_seed(seed, li * 3 + 0));
    line.app_router = std::make_unique<webstack::AppTierRouter>(
        *shard.network, config.backend_policy,
        common::mix_seed(seed, li * 3 + 1));
    line.db_router = std::make_unique<webstack::DbTierRouter>(
        *shard.network, config.backend_policy,
        common::mix_seed(seed, li * 3 + 2));
    lines_.push_back(std::move(line));
  }
  for (std::size_t li = 0; li < config.lines.size(); ++li) {
    const LineSpec& spec = config.lines[li];
    if (spec.proxy_nodes < 1 || spec.app_nodes < 1 || spec.db_nodes < 1) {
      throw std::invalid_argument(
          "SystemModel: each line needs >= 1 node per tier");
    }
    for (int i = 0; i < spec.proxy_nodes; ++i) {
      create_node(li, TierKind::kProxy, config);
    }
    for (int i = 0; i < spec.app_nodes; ++i) {
      create_node(li, TierKind::kApp, config);
    }
    for (int i = 0; i < spec.db_nodes; ++i) {
      create_node(li, TierKind::kDb, config);
    }
  }
  // lines_ is final now; the hop histograms live inside the Line structs,
  // so the router pointers are only wired once the vector stops moving.
  for (Line& line : lines_) {
    line.frontend->set_hop_histogram(&line.frontend_latency);
    line.app_router->set_hop_histogram(&line.app_hop_latency);
    line.db_router->set_hop_histogram(&line.db_hop_latency);
  }
  all_nodes_.reserve(nodes_.size());
  for (const NodeState& state : nodes_) all_nodes_.push_back(state.id);
  register_metrics();
  for (Shard& shard : shards_) shard.monitor->start();
}

NodeId SystemModel::create_node(std::size_t line_index, TierKind tier,
                                const Config& config) {
  Shard& shard = shard_of_line(line_index);
  const NodeId id = cluster_->add_node(*shard.sim, config.hardware, tier);
  cluster::Node& node = cluster_->node(id);
  Line& line = lines_[line_index];

  NodeState state;
  state.id = id;
  state.line = line_index;
  nodes_.push_back(std::move(state));
  NodeState& stored = nodes_.back();

  if (config.eager_roles) {
    ensure_proxy(stored);
    ensure_app(stored);
    ensure_db(stored);
  } else {
    switch (tier) {
      case TierKind::kProxy: ensure_proxy(stored); break;
      case TierKind::kApp:   ensure_app(stored); break;
      case TierKind::kDb:    ensure_db(stored); break;
    }
  }

  stored.probe_base = shard.monitor->add_probe(
      node.name() + ".cpu", [&node] { return node.cpu_utilization_probe(); });
  shard.monitor->add_probe(node.name() + ".disk", [&node] {
    return node.disk_utilization_probe();
  });
  shard.monitor->add_probe(node.name() + ".nic", [&node] {
    return node.nic_utilization_probe();
  });
  shard.monitor->add_probe(node.name() + ".mem",
                           [&node] { return node.memory_pressure(); });

  line.nodes.push_back(id);
  register_active(stored);
  return id;
}

webstack::ProxyServer& SystemModel::ensure_proxy(NodeState& state) {
  if (state.proxy == nullptr) {
    Shard& shard = shard_of_line(state.line);
    cluster::Node& node = cluster_->node(state.id);
    webstack::AppTierRouter* app_router = lines_[state.line].app_router.get();
    state.proxy = std::make_unique<webstack::ProxyServer>(
        *shard.sim, node,
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
    if (fault_tolerance_enabled_) state.proxy->set_resilience(proxy_resilience_);
    if (admission_enabled_) {
      state.proxy->set_admission(lines_[state.line].admission.get(),
                                 overload_config_.shed_mode);
    }
    if (trace_ != nullptr) state.proxy->set_trace(trace_);
  }
  return *state.proxy;
}

webstack::AppServer& SystemModel::ensure_app(NodeState& state) {
  if (state.app == nullptr) {
    Shard& shard = shard_of_line(state.line);
    cluster::Node& node = cluster_->node(state.id);
    webstack::DbTierRouter* db_router = lines_[state.line].db_router.get();
    state.app = std::make_unique<webstack::AppServer>(
        *shard.sim, node,
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
    Shard& shard = shard_of_line(state.line);
    cluster::Node& node = cluster_->node(state.id);
    state.db = std::make_unique<webstack::DbServer>(
        *shard.sim, node, webstack::DbParams{},
        common::mix_seed(config_.seed, 0x0db + state.id));
    deactivate_unless_current(state, TierKind::kDb);
    if (trace_ != nullptr) state.db->set_trace(trace_);
  }
  return *state.db;
}

void SystemModel::deactivate_unless_current(NodeState& state, TierKind role) {
  if (cluster_->tier_of(state.id) == role) return;
  switch (role) {
    case TierKind::kProxy: state.proxy->set_active(false); break;
    case TierKind::kApp:   state.app->set_active(false); break;
    case TierKind::kDb:    state.db->set_active(false); break;
  }
}

void SystemModel::register_active(NodeState& state) {
  Line& line = lines_[state.line];
  switch (cluster_->tier_of(state.id)) {
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

sim::Simulator& SystemModel::simulator() {
  if (sharded_) {
    throw std::logic_error(
        "SystemModel: a sharded model has no single timeline; use "
        "line_simulator()/run_all_until()");
  }
  return *shards_[0].sim;
}

sim::Simulator& SystemModel::line_simulator(std::size_t line) {
  if (line >= lines_.size()) {
    throw std::out_of_range("SystemModel::line_simulator: bad line");
  }
  return *shard_of_line(line).sim;
}

common::SimTime SystemModel::now() const {
  // All shard clocks agree at run_all_until() barriers; line 0 stands in.
  return shards_[0].sim->now();
}

void SystemModel::run_all_until(common::SimTime until) {
  if (!sharded_) {
    shards_[0].sim->run_until(until);
    return;
  }
  if (pool_ != nullptr && shards_.size() > 1 && pool_->size() > 1) {
    // Each line's timeline is sequential within its task; which thread
    // runs which line never affects any line's event order, so the merge
    // below the barrier sees bit-identical state at any pool size.
    pool_->parallel_for(shards_.size(), [this, until](std::size_t s) {
      shards_[s].sim->run_until(until);
    });
  } else {
    for (Shard& shard : shards_) shard.sim->run_until(until);
  }
}

std::shared_ptr<const tpcw::ZipfSampler> SystemModel::shared_popularity()
    const {
  return config_.shared != nullptr ? config_.shared->popularity_ptr()
                                   : nullptr;
}

cluster::HealthChecker* SystemModel::line_health_checker(std::size_t line) {
  if (line >= lines_.size()) {
    throw std::out_of_range("SystemModel::line_health_checker: bad line");
  }
  return shard_of_line(line).health.get();
}

cluster::Network& SystemModel::line_network(std::size_t line) {
  if (line >= lines_.size()) {
    throw std::out_of_range("SystemModel::line_network: bad line");
  }
  return *shard_of_line(line).network;
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
  switch (cluster_->tier_of(id)) {
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
  switch (cluster_->tier_of(id)) {
    case TierKind::kProxy: return state.proxy != nullptr ? state.proxy->load() : 0;
    case TierKind::kApp:   return state.app != nullptr ? state.app->load() : 0;
    case TierKind::kDb:    return state.db != nullptr ? state.db->load() : 0;
  }
  return 0;
}

void SystemModel::move_node(NodeId id, TierKind to, bool immediate,
                            common::SimTime config_cost) {
  if (sharded_) {
    throw std::logic_error(
        "SystemModel: move_node needs the single-timeline mode (tier "
        "membership is cross-line state)");
  }
  NodeState& state = nodes_.at(id);
  if (state.moving) {
    throw std::logic_error("SystemModel: node already being moved");
  }
  const TierKind from = cluster_->tier_of(id);
  if (from == to) return;
  if (cluster_->tier(from).size() <= 1) {
    throw std::logic_error("SystemModel: source tier would become empty");
  }
  state.moving = true;
  deregister_active(state, from);  // stop new traffic right away

  common::log_info("reconfig", "node{} {} -> {} ({})", id,
                   cluster::tier_name(from), cluster::tier_name(to),
                   immediate ? "immediate" : "drain");

  if (immediate) {
    // Existing jobs are migrated to same-tier neighbours (cost M_km was
    // already accounted in the decision); the switch starts now.
    finish_move(id, to, config_cost);
  } else {
    // Wait for in-flight jobs to finish, polling the active server.
    auto poll = std::make_shared<std::function<void()>>();
    *poll = [this, id, to, config_cost, poll] {
      if (active_load(id) > 0) {
        shards_[0].sim->schedule(kDrainPoll, *poll);
      } else {
        finish_move(id, to, config_cost);
      }
    };
    shards_[0].sim->schedule(kDrainPoll, *poll);
  }
}

void SystemModel::finish_move(NodeId id, TierKind to,
                              common::SimTime config_cost) {
  shards_[0].sim->schedule(config_cost, [this, id, to] {
    NodeState& state = nodes_.at(id);
    // The target role is created (inactive) before membership changes, so
    // its activation below charges the same restart burst the eager layout
    // would have.
    switch (to) {
      case TierKind::kProxy: ensure_proxy(state); break;
      case TierKind::kApp:   ensure_app(state); break;
      case TierKind::kDb:    ensure_db(state); break;
    }
    const TierKind from = cluster_->tier_of(id);
    switch (from) {
      case TierKind::kProxy: state.proxy->set_active(false); break;
      case TierKind::kApp:   state.app->set_active(false); break;
      case TierKind::kDb:    state.db->set_active(false); break;
    }
    cluster_->move_node(id, to);
    switch (to) {
      case TierKind::kProxy: state.proxy->set_active(true); break;
      case TierKind::kApp:   state.app->set_active(true); break;
      case TierKind::kDb:    state.db->set_active(true); break;
    }
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
  if (!fault_tolerance_enabled_) {
    fault_tolerance_enabled_ = true;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = shards_[s];
      shard.health = std::make_unique<cluster::HealthChecker>(
          *shard.sim, *cluster_, config.health);
      // A sharded checker probes only its line's nodes: health state stays
      // line-local, and the per-line sums below keep the metric totals.
      if (sharded_) shard.health->set_scope(lines_[s].nodes);
      shard.health->set_transition_observer([this](NodeId id, bool up) {
        disturbances_.fetch_add(1, std::memory_order_relaxed);
        common::log_info("health", "node{} marked {}", id, up ? "up" : "down");
        if (health_hook_) health_hook_(id, up);
      });
      shard.health->start();
    }
    // First enable: the health counters join the registry (PR-5 migration).
    metrics_.add_counter("health.probes_sent", [this] {
      std::uint64_t total = 0;
      for (const Shard& shard : shards_) {
        if (shard.health != nullptr) total += shard.health->probes_sent();
      }
      return total;
    });
    metrics_.add_counter("health.transitions", [this] {
      std::uint64_t total = 0;
      for (const Shard& shard : shards_) {
        if (shard.health != nullptr) total += shard.health->transitions();
      }
      return total;
    });
    // Probe-budget and mark-down visibility: how much of the probe budget
    // is being burnt (failed_probes), how often it is exhausted into a
    // mark flip (mark_downs/mark_ups), and the durations those flips cost
    // (downtime_us aggregate + nodes_down level).
    metrics_.add_counter("health.failed_probes", [this] {
      std::uint64_t total = 0;
      for (const Shard& shard : shards_) {
        if (shard.health != nullptr) total += shard.health->failed_probes();
      }
      return total;
    });
    metrics_.add_counter("health.mark_downs", [this] {
      std::uint64_t total = 0;
      for (const Shard& shard : shards_) {
        if (shard.health != nullptr) total += shard.health->mark_downs();
      }
      return total;
    });
    metrics_.add_counter("health.mark_ups", [this] {
      std::uint64_t total = 0;
      for (const Shard& shard : shards_) {
        if (shard.health != nullptr) total += shard.health->mark_ups();
      }
      return total;
    });
    metrics_.add_counter("health.downtime_us", [this] {
      common::SimTime total = common::SimTime::zero();
      for (const Shard& shard : shards_) {
        if (shard.health != nullptr) {
          total = total + shard.health->total_downtime();
        }
      }
      return static_cast<std::uint64_t>(total.as_micros());
    });
    metrics_.add_gauge("health.nodes_down", [this] {
      int total = 0;
      for (const Shard& shard : shards_) {
        if (shard.health != nullptr) total += shard.health->nodes_down();
      }
      return static_cast<double>(total);
    });
  }
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
  overload_config_ = config;
  if (!admission_enabled_) {
    admission_enabled_ = true;
    for (std::size_t l = 0; l < lines_.size(); ++l) {
      Line& line = lines_[l];
      line.admission = std::make_unique<ctrl::AdmissionController>(
          *shard_of_line(l).sim, config.admission);
      // Controller actuations taint measurement windows like faults do —
      // a window that straddles an admit-fraction change is not a clean
      // read of the configuration under test.
      line.admission->set_change_observer(
          [this](double) { note_disturbance(); });
      line.admission->start();
    }
    // First enable: the ctrl counters join the registry.  Sums are in line
    // order, so snapshots stay byte-identical at any thread count.
    metrics_.add_counter("ctrl.admitted", [this] {
      std::uint64_t total = 0;
      for (const Line& line : lines_) {
        if (line.admission != nullptr) total += line.admission->admitted();
      }
      return total;
    });
    metrics_.add_counter("ctrl.shed", [this] {
      std::uint64_t total = 0;
      for (const Line& line : lines_) {
        if (line.admission != nullptr) total += line.admission->shed();
      }
      return total;
    });
    metrics_.add_counter("ctrl.ticks", [this] {
      std::uint64_t total = 0;
      for (const Line& line : lines_) {
        if (line.admission != nullptr) total += line.admission->ticks();
      }
      return total;
    });
    metrics_.add_counter("ctrl.adjustments", [this] {
      std::uint64_t total = 0;
      for (const Line& line : lines_) {
        if (line.admission != nullptr) total += line.admission->adjustments();
      }
      return total;
    });
    for (std::size_t l = 0; l < lines_.size(); ++l) {
      ctrl::AdmissionController* controller = lines_[l].admission.get();
      metrics_.add_gauge(
          "line" + std::to_string(l) + ".admit_fraction",
          [controller] { return controller->admit_fraction(); });
    }
  } else {
    for (Line& line : lines_) {
      if (line.admission != nullptr) {
        line.admission->set_config(config.admission);
      }
    }
  }
  for (NodeState& state : nodes_) {
    if (state.proxy != nullptr) {
      state.proxy->set_admission(lines_[state.line].admission.get(),
                                 config.shed_mode);
    }
  }
}

void SystemModel::install_scenario(const sim::ScenarioPlan& plan) {
  scenario_ = std::make_unique<sim::ScenarioPlan>(plan);
  install_fault_plan(scenario_->faults);
}

void SystemModel::install_fault_plan(const sim::FaultPlan& plan) {
  for (Shard& shard : shards_) {
    if (shard.injector == nullptr) {
      shard.injector = std::make_unique<sim::FaultInjector>(*shard.sim);
    }
  }
  if (!sharded_) {
    shards_[0].injector->arm(plan, [this](const sim::FaultEvent& event) {
      apply_fault(0, event);
    });
    return;
  }
  // Partition by the subject node's line so every event fires on the
  // timeline whose state it touches.  Every injector is re-armed (possibly
  // with an empty slice) so a re-install clears stale events everywhere.
  std::vector<sim::FaultPlan> per_line(shards_.size());
  for (const sim::FaultEvent& event : plan.events) {
    const bool is_link = event.kind == sim::FaultEvent::Kind::kLinkDegrade ||
                         event.kind == sim::FaultEvent::Kind::kLinkRestore;
    if (is_link && event.node == sim::kFaultAnyNode &&
        event.peer == sim::kFaultAnyNode) {
      for (sim::FaultPlan& slice : per_line) slice.events.push_back(event);
      continue;
    }
    std::uint32_t subject = event.node;
    if (is_link && subject == sim::kFaultAnyNode) subject = event.peer;
    per_line[line_of(subject)].events.push_back(event);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].injector->arm(
        per_line[s],
        [this, s](const sim::FaultEvent& event) { apply_fault(s, event); });
  }
}

void SystemModel::apply_fault(std::size_t shard, const sim::FaultEvent& event) {
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
      shards_[shard].network->set_link_fault(event.node, event.peer,
                                             event.magnitude, event.delay);
      break;
    case sim::FaultEvent::Kind::kLinkRestore:
      disturbances_.fetch_add(1, std::memory_order_relaxed);
      shards_[shard].network->clear_link_fault(event.node, event.peer);
      break;
  }
}

void SystemModel::set_role_active(NodeState& state, bool active) {
  switch (cluster_->tier_of(state.id)) {
    case TierKind::kProxy: state.proxy->set_active(active); break;
    case TierKind::kApp:   state.app->set_active(active); break;
    case TierKind::kDb:    state.db->set_active(active); break;
  }
}

void SystemModel::crash_node(NodeId id) {
  NodeState& state = nodes_.at(id);
  cluster::Node& node = cluster_->node(id);
  if (!node.alive()) return;
  disturbances_.fetch_add(1, std::memory_order_relaxed);
  node.set_alive(false);
  common::log_info("fault", "node{} crash", id);
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
  node.nic().clear_queue();
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
  cluster::Node& node = cluster_->node(id);
  if (node.alive()) return;
  disturbances_.fetch_add(1, std::memory_order_relaxed);
  node.set_alive(true);
  node.set_fault_slowdown(1.0);
  common::log_info("fault", "node{} restart", id);
  // Reactivation charges the role's restart burst (cold caches, config
  // parse) — recovery is visible in the WIPS series, as on the testbed.
  if (!state.moving) set_role_active(state, true);
}

void SystemModel::set_node_fail_slow(NodeId id, double factor) {
  cluster::Node& node = cluster_->node(id);
  disturbances_.fetch_add(1, std::memory_order_relaxed);
  node.set_fault_slowdown(factor);
  common::log_info("fault", "node{} fail-slow x{}", id, factor);
}

void SystemModel::set_trace_recorder(obs::TraceRecorder* trace) {
  if (sharded_ && trace != nullptr) {
    throw std::logic_error(
        "SystemModel: trace recording shares one mutable ring; use the "
        "single-timeline mode");
  }
  trace_ = trace;
  for (NodeState& state : nodes_) {
    if (state.proxy != nullptr) state.proxy->set_trace(trace);
    if (state.app != nullptr) state.app->set_trace(trace);
    if (state.db != nullptr) state.db->set_trace(trace);
  }
}

void SystemModel::register_metrics() {
  // Network fabric.  Sums run in shard (= line) order, so every aggregate
  // is deterministic.
  metrics_.add_counter("network.messages_sent", [this] {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) total += shard.network->messages_sent();
    return total;
  });
  metrics_.add_counter("network.messages_dropped", [this] {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.network->messages_dropped();
    }
    return total;
  });
  metrics_.add_counter("network.bytes_sent", [this] {
    common::Bytes bytes = 0;
    for (const Shard& shard : shards_) bytes += shard.network->bytes_sent();
    return bytes > 0 ? static_cast<std::uint64_t>(bytes) : 0u;
  });

  // Event scheduler: executed work, pending events and the events the
  // queues physically store, over all timelines.  Cancellation frees a slot
  // at once, so stored always equals pending.
  metrics_.add_counter("scheduler.events_executed", [this] {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) total += shard.sim->events_executed();
    return total;
  });
  metrics_.add_counter("scheduler.pending_events", [this] {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.sim->pending_events();
    return static_cast<std::uint64_t>(total);
  });
  metrics_.add_counter("scheduler.stored_events", [this] {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.sim->stored_events();
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
  // never-created roles contribute zero, exactly like eager idle ones.
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

  // Utilization monitor: sample count plus every probe's EWMA.  Shards in
  // line order, probes in node-creation order — the legacy single shard
  // yields exactly the historical sequence.
  metrics_.add_counter("monitor.samples_taken", [this] {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) total += shard.monitor->samples_taken();
    return total;
  });
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t i = 0; i < shards_[s].monitor->probe_count(); ++i) {
      metrics_.add_gauge("util." + shards_[s].monitor->probe_name(i),
                         [this, s, i] {
                           return shards_[s].monitor->smoothed(i);
                         });
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
    const cluster::Node& node = cluster_->node(state.id);
    // Dead or marked-down nodes carry no usable load signal and must not
    // be chosen as reconfiguration donors; the controller sees the tier's
    // capacity shrink instead (Tier::healthy_count).
    if (!node.alive() || !node.marked_up()) continue;
    const TierKind tier = cluster_->tier_of(state.id);
    const sim::UtilizationMonitor& monitor = *shard_of_line(state.line).monitor;
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
