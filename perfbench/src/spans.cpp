#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

SpanLog::SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

std::int32_t SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.run = run_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::close(std::int32_t index) {
  if (index != current_) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children nest strictly inside their parent (one thread, RAII scopes),
  // so subtracting each child's duration leaves the uncovered part.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::map<std::string, SpanLog::Totals> SpanLog::by_name() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& totals = out[spans_[i].name];
    ++totals.count;
    totals.total_ms +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    totals.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[layer_of(spans_[i].name)] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<std::int64_t> self = self_ns();
  std::fprintf(out, "index,name,parent,run,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu,%s,%d,%u,%lld,%lld,%lld\n", i, s.name, s.parent,
                 s.run, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
