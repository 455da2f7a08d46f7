// The benchmark's own arithmetic: tail-percentile choice, sub-window
// summaries, self time from spans, and the reconciliation residual. Kept
// free of the program's headers so stats_test.cc exercises it in
// isolation.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Quantile q of `values` (0 <= q <= 1) with linear interpolation between
/// closest ranks; 0 for an empty sample. Takes a copy (sorts it).
double Quantile(std::vector<double> values, double q);

/// Highest quantile <= `cap` with at least `min_beyond` samples above it
/// in a sample of `n`: min(cap, 1 - min_beyond / n). Returns 0.5 (the
/// median) when the sample cannot support any tail quantile above it.
double TailQuantile(size_t n, double cap = 0.99, size_t min_beyond = 10);

/// p50 and tail over consecutive sub-windows of `values` (in arrival
/// order): as many sub-windows as hold `per_window` values each, at least
/// 1 and at most `max_windows`; each sub-window's tail is its
/// TailQuantile. Reported is quantile `over` of the sub-windows' p50s and
/// of their tails: by default the median, which a burst of noise in a
/// few sub-windows does not move; a lower quantile reports the less
/// disturbed sub-windows.
struct SubWindowSummary {
  double p50 = 0.0;
  double tail = 0.0;
  size_t windows = 0;
};
SubWindowSummary SubWindowQuantiles(const std::vector<double>& values,
                                    size_t per_window = 1000,
                                    size_t max_windows = 5, double over = 0.5);

/// Quantile `q` of each index's samples, for work that is repeated
/// identically (a same-seed training run, step by step): samples[i] holds
/// index i's time in every repeat that timed it. Indices timed by fewer
/// than `min_samples` repeats are left out. Noise that slows the host
/// down in some moments then only has to miss each index in a few of
/// the repeats, not a whole repeat.
std::vector<double> PerIndexQuantile(const std::vector<std::vector<double>>& samples,
                                     double q, size_t min_samples);

/// A closed interval on one clock, in nanoseconds.
struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

/// Nanoseconds of `parent` covered by the union of `children` (children
/// may overlap each other — concurrent workers — and are clipped to the
/// parent).
uint64_t CoveredNs(const Interval& parent, std::vector<Interval> children);

/// Self time of a span: its duration minus the part its children cover.
uint64_t SelfNs(const Interval& parent, const std::vector<Interval>& children);

/// Share of `whole` that the `parts` do not account for:
/// 1 - sum(parts) / whole. Negative when the parts overshoot. 0 when
/// `whole` is not positive.
double ReconciliationResidual(double whole, const std::vector<double>& parts);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
