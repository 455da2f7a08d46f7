// What one benchmark run hands back to main(): correctness, request
// accounting, and the measured metrics by name. Also the window helper
// that turns the program's own obs counters, histograms and sketches
// into deltas over a measured interval.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch files (checkpoint, access log)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when the measurement itself is not trustworthy (the load
  /// generator fell behind its schedule); main() then prints no result.
  bool valid = true;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check (printed to stderr).
  void Mismatch(const std::string& what);
};

/// obs deltas between construction and Close().
class ObsWindow {
 public:
  ObsWindow();
  void Close();

  double wall_ns() const { return static_cast<double>(end_ns_ - start_ns_); }
  double Counter(const std::string& name) const;
  double HistogramCount(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  hap::obs::SketchSnapshot Sketch(const std::string& name) const;
  double SketchQuantileMs(const std::string& name, double q) const;
  double SketchMeanMs(const std::string& name) const;

 private:
  hap::obs::MetricsSnapshot start_, end_;
  uint64_t start_ns_ = 0, end_ns_ = 0;
};

/// Wall-clock timings are reported at this quantile over a run's samples
/// (serving sub-windows, each training step's repeats, set-ups): noise
/// from the host (descheduled vCPUs, slow phases) only ever slows a
/// sample down, so the least disturbed samples are the program's, and a
/// tenth rather than the minimum keeps one lucky sample (or a step the
/// poller saw late) from setting the result.
constexpr double kLeastDisturbed = 0.1;

/// Number of CPUs the calling thread may run on (at least 1).
int AllowedCpus();

/// Moves the calling thread onto the `index`-th CPU (modulo AllowedCpus())
/// of its affinity mask, then restores the mask. A running thread stays
/// where it is until the scheduler has a reason to move it, so what the
/// thread does next runs on that CPU, while threads it starts keep the
/// whole mask.
void MoveToCpu(int index);

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

/// Median of a sample (0 when empty).
double Median(std::vector<double> values);

/// Kernel-layer metrics (kernel.*, coarsen.*, mem.*, graph_level.*) and
/// pool.* over `window`; `threads` is the pool width the work ran on.
void AddKernelAndPoolMetrics(const ObsWindow& window, int threads,
                             Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
