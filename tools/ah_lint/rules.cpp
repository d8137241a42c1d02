#include "rules.hpp"

#include <algorithm>
#include <map>
#include <regex>
#include <set>

namespace ah_lint {

namespace {

const std::vector<RuleDoc>& docs() {
  static const std::vector<RuleDoc> kDocs = {
      {"hot_path_alloc",
       "AH_HOT_PATH_FILE files must not use std::function, std::shared_ptr, "
       "std::make_shared, std::make_unique, or new-expressions (::new "
       "placement form is exempt). Use common::InlineFunction (a "
       "trivially copyable capture held by value), common::FunctionRef, or "
       "a common::ObjectPool call struct.",
       "The steady-state request path performs zero heap allocations "
       "(zero_alloc_test); one careless std::function keeps every test green "
       "while allocs/request drifts off zero.  Applies to every line of a "
       "file carrying the AH_HOT_PATH_FILE; marker.  `new(std::nothrow)` and "
       "other `new(`-forms count as new-expressions; placement `::new` (the "
       "repo idiom for InlineFunction buffers and event records) is "
       "exempt.\n"
       "  bad:  callback_ = std::function<void()>([this] { tick(); });\n"
       "  good: callback_ = common::InlineFunction<void()>([this] { ... });"},
      {"determinism",
       "Files under sim/, harmony/, webstack/, or cluster/ must not use "
       "rand()/srand(), std::random_device, system_clock/steady_clock/"
       "high_resolution_clock, or unordered containers (iteration order is "
       "nondeterministic). Randomness comes from common::Rng, time from "
       "sim::Simulator::now().",
       "Bit-identical reruns at any --threads value are the foundation the "
       "tuning experiments stand on: Harmony's simplex moves on WIPS deltas, "
       "so nondeterministic noise directly corrupts tuning decisions.  Scope "
       "is by path component (sim/, harmony/, webstack/, cluster/).\n"
       "  bad:  std::unordered_map<int, Node*> nodes_;  // iteration order\n"
       "  good: std::map<int, Node*> nodes_;            // sorted, stable"},
      {"pooling",
       "AH_HOT_PATH_FILE files must not use std::deque or std::list: "
       "per-node and per-chunk allocation on the request path. Use "
       "common::ObjectPool, common::RingBuffer, or std::vector.",
       "std::deque and std::list allocate per chunk/node as they grow, which "
       "reintroduces steady-state allocation through the back door.  Pool "
       "request state in common::ObjectPool, queue in common::RingBuffer.\n"
       "  bad:  std::list<Request> waiting_;\n"
       "  good: common::RingBuffer<Request> waiting_;"},
      {"include_hygiene",
       "Headers must not include <iostream>: it drags in the static "
       "initialization of the standard streams into every TU. Use <ostream> "
       "or <iosfwd> in headers and keep <iostream> in .cpp files.",
       "Every TU that transitively includes <iostream> pays the ios_base "
       "static-init cost and loses the zero-global-state property.\n"
       "  bad:  // widget.hpp\\n#include <iostream>\n"
       "  good: // widget.hpp\\n#include <iosfwd>   // stream by reference"},
      {"obs_hot_path",
       "AH_HOT_PATH_FILE files must not call telemetry record methods "
       "(record_us/record_span/record) directly: use AH_OBS_RECORD_US, "
       "AH_OBS_RECORD_SPAN, or AH_OBS_TRACE_SPAN, which null-check the sink "
       "(and gate tracing on the sampling predicate) before touching it.",
       "Telemetry sinks are optional (null when --metrics is off); the "
       "macros keep the disabled path one branch with no call, so attaching "
       "telemetry cannot perturb the timeline.\n"
       "  bad:  hop_histogram_->record_us(wait);\n"
       "  good: AH_OBS_RECORD_US(hop_histogram_, wait);"},
      {"shared_state",
       "AH_IMMUTABLE_STATE_FILE files hold model state shared read-only "
       "across models and work-line threads: no non-const statics (hidden "
       "writable globals race across threads) and no `mutable` members "
       "(writes through const references defeat the shared-const safety "
       "argument). Use static const/constexpr tables, or move the state to "
       "the mutable layer.",
       "The popularity table from core::make_model_immutable is shared by "
       "std::shared_ptr<const> across every model and work line with no "
       "synchronisation; the safety argument is exactly `const after "
       "construction`.\n"
       "  bad:  static int call_count = 0;   // racy hidden global\n"
       "  good: static constexpr int kTableSize = 64;"},
      {"hot_path_reach",
       "Functions transitively reachable from an AH_HOT_ENTRY seed through "
       "the call graph must satisfy the hot-path allocation rules even in "
       "unannotated files; files containing reachable code must carry "
       "AH_HOT_PATH_FILE, and marked files must be reachable from a seed "
       "(no stale markers).",
       "The line rules only see files someone remembered to annotate.  This "
       "rule seeds taint at the request/event handlers (AH_HOT_ENTRY; inside "
       "a function or lambda body) and propagates through the indexed call "
       "graph — including into the wiring closures that cross type-erased "
       "callback boundaries — so the marker set is checked against the "
       "graph instead of trusted: a reachable unmarked file is a `missing "
       "marker` finding, a marked file no seed reaches is a `stale marker` "
       "finding, and banned constructs in reachable functions of unmarked "
       "files are flagged with their taint chain.  Call edges are "
       "name-resolved, then pruned by include visibility, so collisions "
       "cannot leak taint into layers the caller cannot see.  For a mixed "
       "hot/cold TU (e.g. a model builder whose wiring lambdas are hot but "
       "whose constructors are not), suppress the file-level finding with "
       "AH_LINT_ALLOW(hot_path_reach, \"...\") — the function-level checks "
       "still apply to the reachable functions.\n"
       "  seed: sim_.schedule(delay, [this] { AH_HOT_ENTRY; tick(); });"},
      {"layering",
       "Project includes must follow the layer DAG: common -> obs/sim -> "
       "ctrl -> cluster -> webstack -> tpcw, harmony -> common only, core "
       "on top. "
       "Upward or cyclic includes are findings; AH_LAYERING_ALLOW(reason) "
       "on the line above grants a justified exception.",
       "The dependency DAG is what keeps the tuner (harmony) system-"
       "agnostic and the simulator (sim) telemetry-free; one convenience "
       "include quietly inverts it.  Allowed includes per layer:\n"
       "  common   -> common\n"
       "  obs      -> obs, common\n"
       "  sim      -> sim, common\n"
       "  ctrl     -> ctrl, sim, obs, common\n"
       "  cluster  -> cluster, sim, common\n"
       "  webstack -> webstack, cluster, ctrl, sim, obs, common\n"
       "  tpcw     -> tpcw, webstack, cluster, sim, obs, common\n"
       "  harmony  -> harmony, common\n"
       "  core     -> (anything)\n"
       "Layer membership is by path component; files outside these "
       "directories (bench/, tools/) are unlayered and exempt.  Include "
       "cycles among project headers are findings regardless of layer."},
      {"ptr_order",
       "Determinism-scoped files must not let pointer identity leak into "
       "observable order: no sorting/comparing containers keyed by pointer "
       "value, no std::hash/std::less over pointer types, no "
       "reinterpret_cast to (u)intptr_t, no %p formatting.",
       "Allocator addresses vary run to run (ASLR, allocation order), so "
       "any pointer-valued ordering or hash seeds nondeterminism that "
       "survives every seed-controlled rerun.  Order by a stable id (node "
       "id, sequence number) instead.\n"
       "  bad:  std::set<Node*> marked_;            // iterates by address\n"
       "  bad:  std::sort(v.begin(), v.end());      // v is vector<T*>\n"
       "  good: std::set<NodeId> marked_;           // stable id order\n"
       "(The sort itself is only flagged through the keyed-container and "
       "hash/less patterns — a vector<T*> sorted with a by-id comparator "
       "is fine.)"},
  };
  return kDocs;
}

struct Check {
  const char* rule;
  std::regex pattern;
  const char* message;
};

const std::vector<Check>& hot_path_checks() {
  static const std::vector<Check> checks = [] {
    std::vector<Check> c;
    c.push_back({"hot_path_alloc", std::regex(R"(std\s*::\s*function\b)"),
                 "std::function type-erases through a heap allocation; use "
                 "common::InlineFunction (a trivially copyable capture held "
                 "by value) or common::FunctionRef (a view of a callable "
                 "that outlives the call)"});
    c.push_back({"hot_path_alloc",
                 std::regex(R"(std\s*::\s*(shared_ptr\b|make_shared\b))"),
                 "shared ownership on the hot path: control-block allocation "
                 "plus atomic refcounts; park state in a pooled call struct"});
    c.push_back({"hot_path_alloc", std::regex(R"(std\s*::\s*make_unique\b)"),
                 "heap allocation in a hot-path file; acquire from a "
                 "common::ObjectPool (or AH_LINT_ALLOW a start-up-only site)"});
    // `new ` and `new(` both open a new-expression (new(std::nothrow),
    // new(placement) — only the ::new spelling is exempt).
    c.push_back({"hot_path_alloc",
                 std::regex(R"((^|[^:_A-Za-z0-9>])new(\s|\())"),
                 "new-expression in a hot-path file; acquire from a "
                 "common::ObjectPool (placement ::new is exempt)"});
    c.push_back({"pooling", std::regex(R"(std\s*::\s*(deque|list)\b)"),
                 "chunk/node-allocating container in a hot-path file; use "
                 "common::ObjectPool, common::RingBuffer, or std::vector"});
    c.push_back({"obs_hot_path",
                 std::regex(R"((\.|->)\s*(record_us|record_span|record)\s*\()"),
                 "direct telemetry record call in a hot-path file; use "
                 "AH_OBS_RECORD_US / AH_OBS_RECORD_SPAN / AH_OBS_TRACE_SPAN "
                 "(null-checked and sampling-gated)"});
    return c;
  }();
  return checks;
}

/// The subset of the hot-path checks applied function-by-function to
/// taint-reachable code in files without the whole-file marker.
const std::vector<Check>& reach_checks() {
  static const std::vector<Check> checks = [] {
    std::vector<Check> c;
    for (const Check& check : hot_path_checks()) {
      if (std::string(check.rule) == "obs_hot_path") continue;
      c.push_back({"hot_path_reach", check.pattern, check.message});
    }
    return c;
  }();
  return checks;
}

const std::vector<Check>& determinism_checks() {
  static const std::vector<Check> checks = [] {
    std::vector<Check> c;
    c.push_back({"determinism", std::regex(R"((^|[^_A-Za-z0-9])s?rand\s*\()"),
                 "libc rand()/srand() is hidden global state; draw from the "
                 "owning component's common::Rng"});
    c.push_back({"determinism", std::regex(R"(std\s*::\s*random_device\b)"),
                 "std::random_device is nondeterministic; seeds flow from the "
                 "experiment config through common::Rng::split"});
    c.push_back(
        {"determinism",
         std::regex(R"((system_clock|steady_clock|high_resolution_clock)\b)"),
         "wall-clock time in simulated code; use sim::Simulator::now()"});
    c.push_back({"determinism",
                 std::regex(
                     R"(std\s*::\s*unordered_(map|set|multimap|multiset)\b)"),
                 "unordered container: iteration order varies across standard "
                 "libraries and hash seeds; use a sorted container, or "
                 "AH_LINT_ALLOW with a note that iteration order is never "
                 "observed"});
    return c;
  }();
  return checks;
}

const std::vector<Check>& ptr_order_checks() {
  static const std::vector<Check> checks = [] {
    std::vector<Check> c;
    c.push_back({"ptr_order", std::regex(R"(std\s*::\s*hash\s*<[^>]*\*)"),
                 "std::hash over a pointer type hashes the address, which "
                 "varies run to run; hash a stable id instead"});
    c.push_back({"ptr_order",
                 std::regex(
                     R"(std\s*::\s*(map|set|multimap|multiset)\s*<\s*[^,<>]*\*)"),
                 "ordered container keyed by pointer value: iteration order "
                 "is allocation order, not a stable property; key by node "
                 "id / sequence number"});
    c.push_back({"ptr_order", std::regex(R"(std\s*::\s*less\s*<[^>]*\*)"),
                 "std::less over a pointer type compares addresses; compare "
                 "a stable id instead"});
    c.push_back({"ptr_order",
                 std::regex(R"(reinterpret_cast\s*<\s*(std\s*::\s*)?u?intptr_t)"),
                 "pointer-to-integer cast: the integer inherits the "
                 "address's run-to-run variance; derive ordering/hashes "
                 "from stable ids"});
    return c;
  }();
  return checks;
}

const std::vector<Check>& shared_state_checks() {
  static const std::vector<Check> checks = [] {
    std::vector<Check> c;
    // `static` not followed by const/constexpr.  static_assert/static_cast
    // never match: no whitespace follows the keyword there.
    c.push_back({"shared_state",
                 std::regex(R"((^|[^_A-Za-z0-9])static\s+(?!const\b|constexpr\b))"),
                 "non-const static in an immutable-layer file: a hidden "
                 "writable global shared by every model and work-line "
                 "thread; make it static const/constexpr or move it to the "
                 "mutable layer"});
    c.push_back({"shared_state",
                 std::regex(R"((^|[^_A-Za-z0-9])mutable\b)"),
                 "mutable member in an immutable-layer file: writes through "
                 "const references defeat the shared-const thread-safety "
                 "argument; move the state to the mutable layer"});
    return c;
  }();
  return checks;
}

/// True when any path component is one of the determinism-scoped
/// directories (path-component match, so fixture trees mirror the layout).
bool in_determinism_scope(const std::filesystem::path& path) {
  static const std::set<std::string> kDirs = {"sim", "harmony", "webstack",
                                              "cluster"};
  for (const auto& part : path) {
    if (kDirs.count(part.string()) != 0) return true;
  }
  return false;
}

bool is_header(const std::filesystem::path& path) {
  return path.extension() == ".hpp";
}

/// Layer membership by path component (the LAST recognized component wins,
/// so fixture trees that mirror the layout resolve the same way).
std::string layer_of(const std::filesystem::path& path) {
  static const std::set<std::string> kLayers = {
      "common", "obs",  "sim",  "ctrl",   "cluster",
      "webstack", "tpcw", "core", "harmony"};
  std::string layer;
  for (const auto& part : path) {
    if (kLayers.count(part.string()) != 0) layer = part.string();
  }
  return layer;
}

/// The allowed-include DAG (see the `layering` rule details).
bool layer_edge_allowed(const std::string& from, const std::string& to) {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {"common"}},
      {"obs", {"obs", "common"}},
      {"sim", {"sim", "common"}},
      {"ctrl", {"ctrl", "sim", "obs", "common"}},
      {"cluster", {"cluster", "sim", "common"}},
      {"webstack", {"webstack", "cluster", "ctrl", "sim", "obs", "common"}},
      {"tpcw", {"tpcw", "webstack", "cluster", "sim", "obs", "common"}},
      {"harmony", {"harmony", "common"}},
  };
  if (from == "core") return true;
  const auto it = kAllowed.find(from);
  return it != kAllowed.end() && it->second.count(to) != 0;
}

bool suppressed(const FileRecord& file, std::size_t line,
                const std::string& rule) {
  return file.allows.count({line, rule}) != 0 ||
         (line > 1 && file.allows.count({line - 1, rule}) != 0);
}

void add_finding(std::vector<Finding>& findings, const FileRecord& file,
                 std::size_t line, const std::string& rule,
                 std::string message) {
  if (suppressed(file, line, rule)) return;
  findings.push_back({file.path.string(), file.rel, line, rule,
                      std::move(message)});
}

void run_line_rules(const FileRecord& file, std::vector<Finding>& findings) {
  std::vector<const std::vector<Check>*> active;
  if (file.hot_path) active.push_back(&hot_path_checks());
  if (in_determinism_scope(file.path)) {
    active.push_back(&determinism_checks());
    active.push_back(&ptr_order_checks());
  }
  if (file.immutable) active.push_back(&shared_state_checks());

  static const std::regex kIostream(R"(#\s*include\s*<iostream>)");
  static const std::regex kPercentP(R"("[^"]*%p)");
  const bool header = is_header(file.path);
  const bool determinism = in_determinism_scope(file.path);

  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& line = file.lines[i];
    const std::size_t line_no = i + 1;
    for (const auto* checks : active) {
      for (const Check& check : *checks) {
        if (std::regex_search(line, check.pattern)) {
          add_finding(findings, file, line_no, check.rule, check.message);
        }
      }
    }
    if (header && std::regex_search(line, kIostream)) {
      add_finding(findings, file, line_no, "include_hygiene",
                  "<iostream> in a header pulls stream static-init into "
                  "every TU; use <ostream>/<iosfwd> here, <iostream> in the "
                  ".cpp");
    }
    // %p lives inside string literals, which the stripped lines blank out;
    // scan the comment-stripped literal-preserving text instead.
    if (determinism && i < file.lines_lit.size() &&
        std::regex_search(file.lines_lit[i], kPercentP)) {
      add_finding(findings, file, line_no, "ptr_order",
                  "%p formats a pointer value, which varies run to run; "
                  "print a stable id instead");
    }
  }
}

void run_hot_path_reach(const Index& index, const Taint& taint,
                        std::vector<Finding>& findings) {
  if (taint.seed_count == 0) return;  // pre-adoption tree: nothing seeded

  // Per file: tainted functions in index order (named and lambdas).
  std::map<std::size_t, std::vector<std::size_t>> tainted_by_file;
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    if (taint.tainted[i] && !index.functions[i].is_macro) {
      tainted_by_file[index.functions[i].file].push_back(i);
    }
  }

  // A header and its same-stem .cpp are one marker unit for staleness: the
  // header is where the class lives, so its marker is justified whenever
  // the component's code is hot, even if every reached function happens to
  // be defined out of line.
  std::set<std::string> reached_stems;
  for (const auto& [fi, fns] : tainted_by_file) {
    std::filesystem::path stem = index.files[fi].path;
    stem.replace_extension();
    reached_stems.insert(stem.generic_string());
  }

  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    const FileRecord& file = index.files[fi];
    const auto it = tainted_by_file.find(fi);
    const bool reached = it != tainted_by_file.end();
    std::filesystem::path stem = file.path;
    stem.replace_extension();
    const bool pair_reached =
        reached_stems.count(stem.generic_string()) != 0;

    if (file.hot_path && !pair_reached && file.function_count > 0) {
      add_finding(findings, file, file.hot_path_line, "hot_path_reach",
                  "stale marker: no function in this file is reachable from "
                  "any AH_HOT_ENTRY seed; seed the file's entry points (or "
                  "drop the marker if the file left the hot path)");
      continue;
    }
    if (!reached || file.hot_path) continue;

    // Reachable code in an unmarked file: function-level checks plus the
    // missing-marker finding.
    const std::size_t first = it->second.front();
    add_finding(findings, file, index.functions[first].name_line,
                "hot_path_reach",
                "missing marker: hot-path-reachable code (" +
                    taint_chain(index, taint, first) +
                    ") but no AH_HOT_PATH_FILE; add the marker, or "
                    "AH_LINT_ALLOW(hot_path_reach, ...) here for a mixed "
                    "hot/cold TU (function-level checks still apply)");
    for (const std::size_t fn_idx : it->second) {
      const FunctionDef& fn = index.functions[fn_idx];
      for (const std::size_t line_no : fn.own_lines) {
        if (line_no == 0 || line_no > file.lines.size()) continue;
        const std::string& line = file.lines[line_no - 1];
        for (const Check& check : reach_checks()) {
          if (std::regex_search(line, check.pattern)) {
            add_finding(findings, file, line_no, "hot_path_reach",
                        std::string(check.message) +
                            " [hot-path-reachable: " +
                            taint_chain(index, taint, fn_idx) + "]");
          }
        }
      }
    }
  }
}

void run_layering(const Index& index, const IncludeGraph& includes,
                  std::vector<Finding>& findings) {
  for (std::size_t fi = 0; fi < index.files.size(); ++fi) {
    const FileRecord& file = index.files[fi];
    const std::string from = layer_of(file.path);
    if (from.empty()) continue;  // unlayered (bench/, tools/)
    for (const auto& [target, line] : includes.edges[fi]) {
      const std::string to = layer_of(index.files[target].path);
      if (to.empty()) continue;
      if (!layer_edge_allowed(from, to)) {
        add_finding(findings, file, line, "layering",
                    "include of '" + index.files[target].rel + "' (layer " +
                        to + ") from layer " + from +
                        " inverts the layer DAG (common -> obs/sim -> ctrl "
                        "-> cluster -> webstack -> tpcw; harmony -> common; "
                        "core on top); move the dependency down or "
                        "AH_LAYERING_ALLOW(\"reason\") it");
      }
    }
  }
  for (const std::vector<std::size_t>& cycle : includes.cycles) {
    const std::size_t head = cycle.front();
    std::string path_text;
    for (const std::size_t fi : cycle) {
      path_text += index.files[fi].rel + " -> ";
    }
    path_text += index.files[head].rel;
    // Report at the head file's include that enters the cycle.
    std::size_t line = 1;
    const std::size_t next = cycle.size() > 1 ? cycle[1] : head;
    for (const auto& [target, inc_line] : includes.edges[head]) {
      if (target == next) {
        line = inc_line;
        break;
      }
    }
    add_finding(findings, index.files[head], line, "layering",
                "include cycle among project headers: " + path_text);
  }
}

}  // namespace

const std::vector<RuleDoc>& rule_docs() { return docs(); }

std::size_t rule_registration(const std::string& name) {
  const std::vector<RuleDoc>& all = docs();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (name == all[i].name) return i;
  }
  return static_cast<std::size_t>(-1);
}

std::vector<Finding> run_rules(const Index& index,
                               const IncludeGraph& includes,
                               const Taint& taint) {
  std::vector<Finding> findings;
  for (const FileRecord& file : index.files) {
    run_line_rules(file, findings);
  }
  run_hot_path_reach(index, taint, findings);
  run_layering(index, includes, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              const std::size_t ra = rule_registration(a.rule);
              const std::size_t rb = rule_registration(b.rule);
              if (ra != rb) return ra < rb;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace ah_lint
