#include "report.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/metric_names.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace names = hap::obs::names;

template <typename T>
const T* Find(const std::vector<T>& items, const std::string& name) {
  for (const T& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

}  // namespace

int AllowedCpus() {
  cpu_set_t mask;
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return 1;
  return std::max(1, CPU_COUNT(&mask));
}

void MoveToCpu(int index) {
  cpu_set_t mask;
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  const int target = index % std::max(1, CPU_COUNT(&mask));
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask) || seen++ != target) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) == 0) {
      ::sched_setaffinity(0, sizeof(mask), &mask);
    }
    return;
  }
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

ObsWindow::ObsWindow()
    : start_(hap::obs::SnapshotMetrics()), start_ns_(hap::obs::MonotonicNs()) {}

void ObsWindow::Close() {
  end_ns_ = hap::obs::MonotonicNs();
  end_ = hap::obs::SnapshotMetrics();
}

double ObsWindow::Counter(const std::string& name) const {
  const auto* a = Find(start_.counters, name);
  const auto* b = Find(end_.counters, name);
  if (b == nullptr) return 0.0;
  return static_cast<double>(b->value - (a == nullptr ? 0 : a->value));
}

double ObsWindow::HistogramCount(const std::string& name) const {
  const auto* a = Find(start_.histograms, name);
  const auto* b = Find(end_.histograms, name);
  if (b == nullptr) return 0.0;
  return static_cast<double>(b->count - (a == nullptr ? 0 : a->count));
}

double ObsWindow::HistogramSum(const std::string& name) const {
  const auto* a = Find(start_.histograms, name);
  const auto* b = Find(end_.histograms, name);
  if (b == nullptr) return 0.0;
  return static_cast<double>(b->sum - (a == nullptr ? 0 : a->sum));
}

hap::obs::SketchSnapshot ObsWindow::Sketch(const std::string& name) const {
  const auto* b = Find(end_.sketches, name);
  if (b == nullptr) return hap::obs::SketchSnapshot{};
  const auto* a = Find(start_.sketches, name);
  return a == nullptr ? *b : b->DeltaSince(*a);
}

double ObsWindow::SketchQuantileMs(const std::string& name, double q) const {
  const hap::obs::SketchSnapshot s = Sketch(name);
  return s.count == 0 ? 0.0 : s.Quantile(q) / 1e6;
}

double ObsWindow::SketchMeanMs(const std::string& name) const {
  const hap::obs::SketchSnapshot s = Sketch(name);
  return s.count == 0 ? 0.0 : s.Mean() / 1e6;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

void AddKernelAndPoolMetrics(const ObsWindow& w, int threads, Report* r) {
  const double thread_ns = w.wall_ns() * std::max(1, threads);
  const double matmul_ns = w.HistogramSum(names::kMatMulNs);
  r->Set("kernel.matmul_gflops", Ratio(w.Counter(names::kMatMulFlops), matmul_ns),
         "GFLOP/s");
  r->Set("kernel.matmul_ns_frac", Ratio(matmul_ns, thread_ns), "ratio");
  const double blocked = w.Counter(names::kMatMulDispatchBlocked);
  r->Set("kernel.matmul_blocked_frac",
         Ratio(blocked, blocked + w.Counter(names::kMatMulDispatchNaive)),
         "ratio");
  r->Set("kernel.spmatmul_ns_frac",
         Ratio(w.HistogramSum(names::kSpMatMulNs), thread_ns), "ratio");
  r->Set("coarsen.ns_per_call",
         Ratio(w.HistogramSum(names::kCoarsenNs), w.Counter(names::kCoarsenCalls)),
         "ns");
  const double pool_hit = w.Counter(names::kMemPoolHit);
  r->Set("mem.pool_hit_ratio",
         Ratio(pool_hit, pool_hit + w.Counter(names::kMemPoolMiss)), "ratio");
  const double level_hit = w.Counter(names::kGraphCacheHit);
  r->Set("graph_level.cache_hit_ratio",
         Ratio(level_hit, level_hit + w.Counter(names::kGraphCacheMiss)),
         "ratio");
  // Busy time is counted on pool workers only (the submitting thread runs
  // its share inline), so the denominator is the worker count.
  r->Set("pool.busy_frac",
         Ratio(w.Counter(names::kPoolBusyNs), w.wall_ns() * std::max(1, threads - 1)),
         "ratio");
  r->Set("pool.queue_wait_us_mean",
         Ratio(w.HistogramSum(names::kPoolQueueWaitNs),
               w.HistogramCount(names::kPoolQueueWaitNs)) / 1e3,
         "us");
}

}  // namespace perfbench
