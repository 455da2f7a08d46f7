#include "spans.h"

#include <chrono>
#include <unordered_map>

#include "stats.h"

namespace perfbench {
namespace {

thread_local uint32_t t_current_span = 0;

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::map<std::string, SpanTotals> SpanLog::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint32_t, std::vector<Interval>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans_) {
    SpanTotals& t = totals[s.name];
    const Interval self{s.start_ns, s.end_ns};
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    t.self_ns += it == children.end() ? s.end_ns - s.start_ns
                                      : SelfNs(self, it->second);
  }
  return totals;
}

std::vector<uint64_t> SpanLog::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name)
    : ScopedSpan(log, name, t_current_span) {}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint32_t parent)
    : log_(log), saved_current_(t_current_span) {
  span_.name = name;
  span_.parent = parent;
  span_.id = log_->NextId();
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  t_current_span = saved_current_;
  log_->Add(std::move(span_));
}

}  // namespace perfbench
