// In-memory span log for the traced benchmark run.
//
// A span is one call from the benchmark into a layer: name, start, end,
// the span that was open when it began (its parent), and the id of the
// study it belongs to.  Span names are "<layer>.<what>" with the layer
// being a module under src/ (core, sim, harmony, obs, ctrl, tpcw, ...), so
// a layer's self time is the summed self time of its spans.  Spans are
// kept in a pre-sized vector and written out as CSV when the run ends.
//
// The log is single-threaded, like the benchmark: spans are opened around
// whole calls from the benchmark's one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";  // string literal, "<layer>.<what>"
    std::int32_t parent = -1;
    std::uint32_t run = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time covered by child spans
  };

  explicit SpanLog(std::size_t capacity);

  /// Spans opened from now on carry `run` as their run id.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name);
  /// Closes span `index` (must be the innermost open span).
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, Totals> by_name() const;
  /// Self time per layer (the name up to the first '.').
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes `index,name,parent,run,start_ns,end_ns,self_ns` rows.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t run_ = 0;
};

/// RAII span: no-op when the log is null (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace perfbench
