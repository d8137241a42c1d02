// Single grammar engine for FaultPlan (fault verbs only) and ScenarioPlan
// (fault verbs + arrival/mix/correlated-failure verbs).  Both entry points
// share the tokenizer, the line/column diagnostics, and the hardening
// sweeps; FaultPlan::parse is the restricted dialect.
#include "sim/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <set>
#include <utility>

namespace ah::sim {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Consumes a prefix of `s` parseable as T; false when nothing parses.
template <typename T>
bool eat_number(std::string_view& s, T& out) {
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  const auto result = std::from_chars(begin, end, out);
  if (result.ec != std::errc{}) return false;
  s.remove_prefix(static_cast<std::size_t>(result.ptr - begin));
  return true;
}

/// Node id or `*` wildcard.
bool eat_node(std::string_view& s, std::uint32_t& out) {
  if (!s.empty() && s.front() == '*') {
    out = kFaultAnyNode;
    s.remove_prefix(1);
    return true;
  }
  return eat_number(s, out);
}

bool eat_literal(std::string_view& s, std::string_view literal) {
  if (s.substr(0, literal.size()) != literal) return false;
  s.remove_prefix(literal.size());
  return true;
}

/// `name` token for mix entries: [alpha_][alnum_]*.
bool eat_identifier(std::string_view& s, std::string_view& out) {
  std::size_t n = 0;
  while (n < s.size() &&
         (std::isalnum(static_cast<unsigned char>(s[n])) || s[n] == '_')) {
    ++n;
  }
  if (n == 0 || std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  out = s.substr(0, n);
  s.remove_prefix(n);
  return true;
}

/// `<n+n+...>` member list for rack/switch entries (no wildcard).
bool eat_members(std::string_view& s, std::vector<std::uint32_t>& out) {
  std::uint32_t id = 0;
  if (!eat_number(s, id)) return false;
  out.push_back(id);
  while (!s.empty() && s.front() == '+') {
    s.remove_prefix(1);
    if (!eat_number(s, id)) return false;
    out.push_back(id);
  }
  return true;
}

/// One ';'-separated entry with its byte offset in the full plan text, so
/// diagnostics can point at it even after the sweep reorders events.
struct EntrySpan {
  std::string_view text;
  std::size_t offset = 0;
};

struct Parser {
  Parser(std::string_view full_text, std::string* error_out, bool scenario)
      : full(full_text), error(error_out), scenario_dialect(scenario) {}

  std::string_view full;
  std::string* error;
  bool scenario_dialect;

  ScenarioPlan plan;
  std::vector<EntrySpan> entries;
  /// Originating entry index per fault event (sweep attribution).
  std::vector<std::size_t> event_entry;
  double prev_start_s = 0.0;
  bool have_prev_start = false;

  bool fail(const EntrySpan& e, std::string_view why) {
    if (error != nullptr) {
      std::size_t line = 1;
      std::size_t col = 1;
      for (std::size_t i = 0; i < e.offset && i < full.size(); ++i) {
        if (full[i] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      *error = "bad plan entry '";
      error->append(e.text);
      error->append("' (line ");
      error->append(std::to_string(line));
      error->append(", col ");
      error->append(std::to_string(col));
      error->append("): ");
      error->append(why);
    }
    return false;
  }

  void push_event(const FaultEvent& ev, std::size_t entry_index) {
    plan.faults.events.push_back(ev);
    event_entry.push_back(entry_index);
  }

  /// Entries must be sorted by their (earliest) start time: an out-of-order
  /// plan is nearly always a typo in a long scenario, and rejecting it
  /// keeps hand-edited plans reviewable top to bottom.
  bool check_order(const EntrySpan& e, double start_s) {
    if (have_prev_start && start_s < prev_start_s) {
      return fail(e, "out-of-order start time (entries must be sorted)");
    }
    prev_start_s = start_s;
    have_prev_start = true;
    return true;
  }

  bool run(std::string_view text);
  bool parse_entry(const EntrySpan& e, std::size_t index);
  bool sweep();
};

bool Parser::parse_entry(const EntrySpan& e, std::size_t index) {
  const std::size_t colon = e.text.find(':');
  if (colon == std::string_view::npos) return fail(e, "missing ':'");
  const std::string_view keyword = trim(e.text.substr(0, colon));
  std::string_view rest = trim(e.text.substr(colon + 1));

  if (keyword == "crash" || keyword == "restart") {
    FaultEvent ev;
    ev.kind = keyword == "crash" ? FaultEvent::Kind::kCrash
                                 : FaultEvent::Kind::kRestart;
    double at = 0.0;
    if (!eat_node(rest, ev.node) || ev.node == kFaultAnyNode ||
        !eat_literal(rest, "@") || !eat_number(rest, at) || !rest.empty()) {
      return fail(e, "expected <node>@<seconds>");
    }
    if (!check_order(e, at)) return false;
    ev.at = common::SimTime::seconds(at);
    push_event(ev, index);
    return true;
  }

  if (keyword == "slow") {
    std::uint32_t node = 0;
    double t0 = 0.0;
    double t1 = 0.0;
    double factor = 0.0;
    if (!eat_node(rest, node) || node == kFaultAnyNode ||
        !eat_literal(rest, "@") || !eat_number(rest, t0) ||
        !eat_literal(rest, "-") || !eat_number(rest, t1) ||
        !eat_literal(rest, "x") || !eat_number(rest, factor) ||
        !rest.empty()) {
      return fail(e, "expected <node>@<t0>-<t1>x<factor>");
    }
    if (factor < 1.0 || t1 < t0) {
      return fail(e, "factor must be >= 1 and t1 >= t0");
    }
    if (!check_order(e, t0)) return false;
    FaultEvent start;
    start.kind = FaultEvent::Kind::kSlowStart;
    start.at = common::SimTime::seconds(t0);
    start.node = node;
    start.magnitude = factor;
    FaultEvent stop;
    stop.kind = FaultEvent::Kind::kSlowEnd;
    stop.at = common::SimTime::seconds(t1);
    stop.node = node;
    push_event(start, index);
    push_event(stop, index);
    return true;
  }

  if (keyword == "link") {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    double t0 = 0.0;
    double t1 = 0.0;
    double drop = 0.0;
    double delay_ms = 0.0;
    if (!eat_node(rest, a) || !eat_literal(rest, "-") || !eat_node(rest, b) ||
        !eat_literal(rest, "@") || !eat_number(rest, t0) ||
        !eat_literal(rest, "-") || !eat_number(rest, t1) ||
        !eat_literal(rest, ",drop=") || !eat_number(rest, drop)) {
      return fail(e, "expected <a>-<b>@<t0>-<t1>,drop=<p>[,delay=<ms>ms]");
    }
    if (!rest.empty()) {
      if (!eat_literal(rest, ",delay=") || !eat_number(rest, delay_ms) ||
          !eat_literal(rest, "ms") || !rest.empty()) {
        return fail(e, "trailing garbage after drop=");
      }
    }
    if (drop < 0.0 || drop > 1.0 || t1 < t0 || delay_ms < 0.0) {
      return fail(e, "need 0 <= drop <= 1, delay >= 0, and t1 >= t0");
    }
    if (!check_order(e, t0)) return false;
    FaultEvent degrade;
    degrade.kind = FaultEvent::Kind::kLinkDegrade;
    degrade.at = common::SimTime::seconds(t0);
    degrade.node = a;
    degrade.peer = b;
    degrade.magnitude = drop;
    degrade.delay = common::SimTime::seconds(delay_ms / 1000.0);
    FaultEvent restore;
    restore.kind = FaultEvent::Kind::kLinkRestore;
    restore.at = common::SimTime::seconds(t1);
    restore.node = a;
    restore.peer = b;
    push_event(degrade, index);
    push_event(restore, index);
    return true;
  }

  const bool is_scenario_verb = keyword == "flash" || keyword == "ramp" ||
                                keyword == "diurnal" || keyword == "mix" ||
                                keyword == "rack" || keyword == "switch";
  if (is_scenario_verb && !scenario_dialect) {
    return fail(e, "scenario verb; use ScenarioPlan::parse");
  }

  if (keyword == "flash" || keyword == "ramp") {
    double magnitude = 0.0;
    double t0 = 0.0;
    double t1 = 0.0;
    if (!eat_number(rest, magnitude) || !eat_literal(rest, "@") ||
        !eat_number(rest, t0) || !eat_literal(rest, "-") ||
        !eat_number(rest, t1) || !rest.empty()) {
      return fail(e, "expected <factor>@<t0>-<t1>");
    }
    const bool is_flash = keyword == "flash";
    if (is_flash && magnitude < 1.0) {
      return fail(e, "flash peak must be >= 1");
    }
    if (!is_flash && magnitude <= 0.0) {
      return fail(e, "ramp factor must be > 0");
    }
    if (t1 <= t0) return fail(e, "need t1 > t0");
    if (!check_order(e, t0)) return false;
    ArrivalPhase phase;
    phase.kind =
        is_flash ? ArrivalPhase::Kind::kFlash : ArrivalPhase::Kind::kRamp;
    phase.t0 = common::SimTime::seconds(t0);
    phase.t1 = common::SimTime::seconds(t1);
    phase.magnitude = magnitude;
    plan.arrival.phases.push_back(phase);
    return true;
  }

  if (keyword == "diurnal") {
    double amp = 0.0;
    double t0 = 0.0;
    double t1 = 0.0;
    double period = 0.0;
    if (!eat_number(rest, amp) || !eat_literal(rest, "@") ||
        !eat_number(rest, t0) || !eat_literal(rest, "-") ||
        !eat_number(rest, t1) || !eat_literal(rest, "/") ||
        !eat_number(rest, period) || !rest.empty()) {
      return fail(e, "expected <amplitude>@<t0>-<t1>/<period>");
    }
    if (amp < 0.0 || amp >= 1.0) {
      return fail(e, "amplitude must be in [0, 1)");
    }
    if (period <= 0.0) return fail(e, "period must be > 0");
    if (t1 <= t0) return fail(e, "need t1 > t0");
    if (!check_order(e, t0)) return false;
    ArrivalPhase phase;
    phase.kind = ArrivalPhase::Kind::kDiurnal;
    phase.t0 = common::SimTime::seconds(t0);
    phase.t1 = common::SimTime::seconds(t1);
    phase.magnitude = amp;
    phase.period = common::SimTime::seconds(period);
    plan.arrival.phases.push_back(phase);
    return true;
  }

  if (keyword == "mix") {
    std::string_view name;
    double at = 0.0;
    if (!eat_identifier(rest, name) || !eat_literal(rest, "@") ||
        !eat_number(rest, at) || !rest.empty()) {
      return fail(e, "expected <name>@<seconds>");
    }
    if (!check_order(e, at)) return false;
    MixChange change;
    change.at = common::SimTime::seconds(at);
    change.mix.assign(name);
    plan.mix_changes.push_back(std::move(change));
    return true;
  }

  if (keyword == "rack" || keyword == "switch") {
    std::vector<std::uint32_t> members;
    double t0 = 0.0;
    double t1 = 0.0;
    if (!eat_members(rest, members) || !eat_literal(rest, "@") ||
        !eat_number(rest, t0) || !eat_literal(rest, "-") ||
        !eat_number(rest, t1)) {
      return fail(e, "expected <n+n+...>@<t0>-<t1>");
    }
    std::set<std::uint32_t> unique(members.begin(), members.end());
    if (unique.size() != members.size()) {
      return fail(e, "duplicate node id in member list");
    }
    if (t1 <= t0) return fail(e, "need t1 > t0");
    if (keyword == "rack") {
      if (!rest.empty()) return fail(e, "trailing garbage after window");
      if (!check_order(e, t0)) return false;
      for (const std::uint32_t node : members) {
        FaultEvent crash;
        crash.kind = FaultEvent::Kind::kCrash;
        crash.at = common::SimTime::seconds(t0);
        crash.node = node;
        FaultEvent restart;
        restart.kind = FaultEvent::Kind::kRestart;
        restart.at = common::SimTime::seconds(t1);
        restart.node = node;
        push_event(crash, index);
        push_event(restart, index);
      }
      return true;
    }
    double drop = 0.0;
    double delay_ms = 0.0;
    if (!eat_literal(rest, ",drop=") || !eat_number(rest, drop)) {
      return fail(e, "expected ,drop=<p>[,delay=<ms>ms]");
    }
    if (!rest.empty()) {
      if (!eat_literal(rest, ",delay=") || !eat_number(rest, delay_ms) ||
          !eat_literal(rest, "ms") || !rest.empty()) {
        return fail(e, "trailing garbage after drop=");
      }
    }
    if (drop < 0.0 || drop > 1.0 || delay_ms < 0.0) {
      return fail(e, "need 0 <= drop <= 1 and delay >= 0");
    }
    if (!check_order(e, t0)) return false;
    // A dead switch hurts every link touching its members, both
    // directions.  The member id stays the subject on both event variants,
    // so a multi-line model lands each event on the member's own timeline.
    for (const std::uint32_t node : members) {
      for (const bool outbound : {true, false}) {
        FaultEvent degrade;
        degrade.kind = FaultEvent::Kind::kLinkDegrade;
        degrade.at = common::SimTime::seconds(t0);
        degrade.node = outbound ? node : kFaultAnyNode;
        degrade.peer = outbound ? kFaultAnyNode : node;
        degrade.magnitude = drop;
        degrade.delay = common::SimTime::seconds(delay_ms / 1000.0);
        FaultEvent restore;
        restore.kind = FaultEvent::Kind::kLinkRestore;
        restore.at = common::SimTime::seconds(t1);
        restore.node = degrade.node;
        restore.peer = degrade.peer;
        push_event(degrade, index);
        push_event(restore, index);
      }
    }
    return true;
  }

  return fail(e, "unknown keyword");
}

/// Post-parse consistency sweep over the expanded fault events in time
/// order: crash/restart must alternate per node, slow windows per node
/// must not overlap.  Catches duplicate node ids across entries (e.g. a
/// node listed in a rack AND crashed individually inside the window) that
/// entry-local checks cannot see.
bool Parser::sweep() {
  std::vector<std::size_t> order(plan.faults.events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return plan.faults.events[a].at < plan.faults.events[b].at;
                   });
  std::set<std::uint32_t> crashed;
  std::set<std::uint32_t> slowed;
  for (const std::size_t i : order) {
    const FaultEvent& ev = plan.faults.events[i];
    const EntrySpan& origin = entries[event_entry[i]];
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
        if (!crashed.insert(ev.node).second) {
          return fail(origin, "node crashed twice without a restart");
        }
        break;
      case FaultEvent::Kind::kRestart:
        if (crashed.erase(ev.node) == 0) {
          return fail(origin, "restart of a node that is not crashed");
        }
        break;
      case FaultEvent::Kind::kSlowStart:
        if (!slowed.insert(ev.node).second) {
          return fail(origin, "overlapping slow windows on one node");
        }
        break;
      case FaultEvent::Kind::kSlowEnd:
        slowed.erase(ev.node);
        break;
      case FaultEvent::Kind::kLinkDegrade:
      case FaultEvent::Kind::kLinkRestore:
        break;  // wildcards make link-overlap semantics ambiguous; allowed
    }
  }
  return true;
}

bool Parser::run(std::string_view text) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::size_t end = semi == std::string_view::npos ? text.size() : semi;
    std::size_t lead = pos;
    while (lead < end &&
           std::isspace(static_cast<unsigned char>(text[lead]))) {
      ++lead;
    }
    std::size_t tail = end;
    while (tail > lead &&
           std::isspace(static_cast<unsigned char>(text[tail - 1]))) {
      --tail;
    }
    if (tail > lead) {
      entries.push_back(EntrySpan{text.substr(lead, tail - lead), lead});
    }
    if (semi == std::string_view::npos) break;
    pos = semi + 1;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!parse_entry(entries[i], i)) return false;
  }
  return sweep();
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(std::string_view text,
                                          std::string* error) {
  Parser parser{text, error, /*scenario_dialect=*/false};
  if (!parser.run(text)) return std::nullopt;
  return std::move(parser.plan.faults);
}

std::optional<ScenarioPlan> ScenarioPlan::parse(std::string_view text,
                                                std::string* error) {
  Parser parser{text, error, /*scenario_dialect=*/true};
  if (!parser.run(text)) return std::nullopt;
  return std::move(parser.plan);
}

}  // namespace ah::sim
