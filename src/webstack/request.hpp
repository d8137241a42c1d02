// Request/response model shared by the three server tiers.
//
// The web stack is workload-agnostic: a request carries a *profile* of
// resource demands (CPU per tier, database query mix, response size) and the
// TPC-W layer maps its 14 interaction types onto such profiles.  Keeping the
// stack independent of TPC-W lets tests drive the servers with synthetic
// profiles directly.
#pragma once

#include <cstdint>
#include <string>

#include "common/analysis.hpp"
#include "common/inline_function.hpp"
#include "common/units.hpp"

AH_HOT_PATH_FILE;

namespace ah::webstack {

/// Database query classes, mirroring what the TPC-W servlets issue.
enum class QueryClass : int {
  kSelectSimple = 0,  // keyed single-table lookup
  kSelectJoin = 1,    // multi-table join (best sellers, search)
  kUpdate = 2,        // transactional write (buy confirm, cart update)
  kInsert = 3,        // row insert (order line, registration)
};

inline constexpr int kQueryClassCount = 4;

/// Static description of one request type's demands.
struct RequestProfile {
  std::string name;

  /// Whether the proxy may cache the response (static/semi-static pages).
  bool cacheable = false;

  /// Mean response size; actual sizes are randomized around this.
  common::Bytes response_bytes = 8 * 1024;

  /// CPU demand at the proxy tier for parsing/forwarding, per request.
  common::SimTime proxy_cpu = common::SimTime::micros(300);

  /// CPU demand of servlet execution at the application tier.
  common::SimTime app_cpu = common::SimTime::millis(3);

  /// Number of database queries of each class issued by the servlet.
  int queries[kQueryClassCount] = {0, 0, 0, 0};

  [[nodiscard]] int total_queries() const {
    int total = 0;
    for (int q : queries) total += q;
    return total;
  }
  [[nodiscard]] bool needs_db() const { return total_queries() > 0; }
  [[nodiscard]] bool has_writes() const {
    return queries[static_cast<int>(QueryClass::kUpdate)] > 0 ||
           queries[static_cast<int>(QueryClass::kInsert)] > 0;
  }
};

/// One in-flight request.
struct Request {
  std::uint64_t id = 0;
  const RequestProfile* profile = nullptr;
  /// Identity of the page/object requested; cache keys are derived from it.
  /// Drawn from a Zipf-like popularity distribution by the workload.
  std::uint64_t object_id = 0;
  /// Realized response size for this request.
  common::Bytes response_bytes = 0;
  /// Time the emulated browser issued the request.
  common::SimTime issued_at = common::SimTime::zero();
};

struct Response {
  bool ok = true;
  /// Where the response was produced (for cache statistics).
  enum class Origin { kProxyMemory, kProxyDisk, kApp, kDb, kError };
  Origin origin = Origin::kApp;
  common::Bytes bytes = 0;
};

/// Response continuation.  A plain-data InlineFunction rather than
/// std::function: the server tiers park their per-request state in pooled
/// structs and thread single-pointer closures through the event queue, so
/// the continuation always fits inline and the steady-state request path
/// performs no heap allocations.  The 80-byte capacity leaves room for the
/// workload driver's browser closure (Request + bookkeeping, ~72 bytes),
/// the largest capture that crosses this interface.  A response callback
/// fires exactly once; an oversized or owning capture is a compile error,
/// never a silent per-request allocation.
using ResponseFn = common::InlineFunction<void(const Response&), 80>;

/// One database query as issued by an application server.
struct DbQuery {
  QueryClass cls = QueryClass::kSelectSimple;
  /// Table/index identity for table-cache behaviour.
  std::uint64_t table_id = 0;
  /// Result payload size.
  common::Bytes result_bytes = 2 * 1024;
  /// Identity of the request this query belongs to, so database-hop trace
  /// spans join up with the proxy/app spans of the same request.
  std::uint64_t request_id = 0;
};

struct DbResult {
  bool ok = true;
};

/// Query-result continuation (see ResponseFn for the callable choice).
using DbResultFn = common::InlineFunction<void(const DbResult&), 48>;

}  // namespace ah::webstack
