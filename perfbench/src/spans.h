// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark around its calls into the program's public functions (never
// inside the program), kept in memory, and summarised once the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Per-name totals over a span log.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;  // sum of durations
  uint64_t self_ns = 0;   // sum of durations minus child coverage
};

class SpanLog {
 public:
  /// Allocates a span id (thread-safe).
  uint32_t NextId();
  /// Appends a finished span (thread-safe).
  void Add(Span span);
  /// Totals per span name; self time via SelfNs over each span's children.
  std::map<std::string, SpanTotals> Summarize() const;
  /// Durations in ns of every span called `name`, in completion order.
  std::vector<uint64_t> Durations(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint32_t next_id_ = 1;
};

/// RAII span. The parent defaults to the innermost open span on this
/// thread; pass `parent` explicitly for work handed to another thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name);
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
  uint32_t saved_current_;
};

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
