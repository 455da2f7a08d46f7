#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double TailQuantile(size_t n, double cap, size_t min_beyond) {
  if (n == 0) return 0.5;
  const double q =
      1.0 - static_cast<double>(min_beyond) / static_cast<double>(n);
  return std::max(0.5, std::min(cap, q));
}

SubWindowSummary SubWindowQuantiles(const std::vector<double>& values,
                                    size_t per_window, size_t max_windows,
                                    double over) {
  SubWindowSummary out;
  out.windows = std::clamp<size_t>(values.size() / per_window, 1, max_windows);
  std::vector<double> p50, tail;
  for (size_t k = 0; k < out.windows; ++k) {
    const std::vector<double> part(
        values.begin() + static_cast<std::ptrdiff_t>(k * values.size() / out.windows),
        values.begin() + static_cast<std::ptrdiff_t>((k + 1) * values.size() / out.windows));
    p50.push_back(Quantile(part, 0.5));
    tail.push_back(Quantile(part, TailQuantile(part.size())));
  }
  out.p50 = Quantile(p50, over);
  out.tail = Quantile(tail, over);
  return out;
}

std::vector<double> PerIndexQuantile(const std::vector<std::vector<double>>& samples,
                                     double q, size_t min_samples) {
  std::vector<double> out;
  for (const std::vector<double>& s : samples) {
    if (!s.empty() && s.size() >= min_samples) out.push_back(Quantile(s, q));
  }
  return out;
}

uint64_t CoveredNs(const Interval& parent, std::vector<Interval> children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children) {
    const uint64_t s = std::max(c.start, parent.start);
    const uint64_t e = std::min(c.end, parent.end);
    if (e > s) clipped.push_back({s, e});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  uint64_t covered = 0;
  uint64_t run_start = 0, run_end = 0;
  bool open = false;
  for (const Interval& c : clipped) {
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

uint64_t SelfNs(const Interval& parent, const std::vector<Interval>& children) {
  const uint64_t duration =
      parent.end > parent.start ? parent.end - parent.start : 0;
  return duration - CoveredNs(parent, children);
}

double ReconciliationResidual(double whole, const std::vector<double>& parts) {
  if (!(whole > 0.0)) return 0.0;
  double sum = 0.0;
  for (double p : parts) sum += p;
  return 1.0 - sum / whole;
}

}  // namespace perfbench
