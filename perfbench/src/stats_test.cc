// Tests of the benchmark's own arithmetic (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(TailQuantileTest, KeepsTenSamplesBeyond) {
  // 1000 samples support p99 exactly: 10 lie above it.
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);
  // More samples still report p99, never a higher percentile.
  EXPECT_DOUBLE_EQ(TailQuantile(100000), 0.99);
  // 250 samples: p96 is the highest with 10 beyond.
  EXPECT_DOUBLE_EQ(TailQuantile(250), 0.96);
  EXPECT_NEAR(TailQuantile(150), 1.0 - 10.0 / 150.0, 1e-12);
  // Too few samples for any tail: fall back to the median.
  EXPECT_DOUBLE_EQ(TailQuantile(12), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(0), 0.5);
}

TEST(TailQuantileTest, LeavesAtLeastTenAbove) {
  for (size_t n : {20u, 37u, 150u, 999u, 1001u, 5000u}) {
    const double q = TailQuantile(n);
    EXPECT_GE(static_cast<double>(n) * (1.0 - q), 10.0 - 1e-9) << n;
  }
}

TEST(QuantileTest, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({10}, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(SubWindowQuantilesTest, OneSpoiledWindowDoesNotMoveTheResult) {
  // Five windows of 1000: values 1..1000 each, except that the third is
  // shifted by 1000 (a burst of noise).
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i + (w == 2 ? 1000.0 : 0.0));
  }
  const SubWindowSummary s = SubWindowQuantiles(v);
  EXPECT_EQ(s.windows, 5u);
  EXPECT_DOUBLE_EQ(s.p50, Quantile(std::vector<double>(v.begin(), v.begin() + 1000), 0.5));
  EXPECT_DOUBLE_EQ(s.tail, Quantile(std::vector<double>(v.begin(), v.begin() + 1000), 0.99));
}

TEST(SubWindowQuantilesTest, SmallSamplesUseOneWindow) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  const SubWindowSummary s = SubWindowQuantiles(v);
  EXPECT_EQ(s.windows, 1u);
  EXPECT_DOUBLE_EQ(s.p50, Quantile(v, 0.5));
  EXPECT_DOUBLE_EQ(s.tail, Quantile(v, TailQuantile(200)));
  // Never more than max_windows.
  EXPECT_EQ(SubWindowQuantiles(std::vector<double>(20000, 1.0)).windows, 5u);
}

TEST(SubWindowQuantilesTest, LowQuantileReportsTheLessDisturbedWindows) {
  // Twenty windows of 1000; window w holds 1..1000 shifted by 100 * w, so
  // the windows' p50s are 500.5 + 100 * w and their p99s 990.01 + 100 * w.
  std::vector<double> v;
  for (int w = 0; w < 20; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i + 100.0 * w);
  }
  const SubWindowSummary s = SubWindowQuantiles(v, 1000, 20, 0.1);
  EXPECT_EQ(s.windows, 20u);
  // Quantile 0.1 of twenty sorted values sits at rank 1.9.
  EXPECT_NEAR(s.p50, 500.5 + 190.0, 1e-9);
  EXPECT_NEAR(s.tail, 990.01 + 190.0, 1e-9);
}

TEST(PerIndexQuantileTest, SlowMomentsInSomeRepeatsDoNotMoveIt) {
  // Three indices whose true times are 1, 2 and 3, timed in ten repeats;
  // every repeat is slowed (x3) at one index, which no whole-repeat
  // statistic would survive. Index 3 was timed only once.
  std::vector<std::vector<double>> samples(4);
  for (int r = 0; r < 10; ++r) {
    for (int i = 0; i < 3; ++i) {
      samples[i].push_back((i + 1) * (r % 3 == i ? 3.0 : 1.0));
    }
  }
  samples[3].push_back(7.0);
  const std::vector<double> out = PerIndexQuantile(samples, 0.1, 5);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
  EXPECT_EQ(PerIndexQuantile(samples, 0.1, 1).size(), 4u);
}

TEST(SelfTimeTest, SubtractsChildCoverage) {
  // Parent [0, 100); children cover [10, 30) and [50, 60): self 70.
  EXPECT_EQ(SelfNs({0, 100}, {{10, 30}, {50, 60}}), 70u);
  EXPECT_EQ(SelfNs({0, 100}, {}), 100u);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Two workers' slices overlap on [20, 30): covered is [10, 40) = 30.
  EXPECT_EQ(CoveredNs({0, 100}, {{10, 30}, {20, 40}}), 30u);
  EXPECT_EQ(SelfNs({0, 100}, {{20, 40}, {10, 30}}), 70u);
  // Nested and identical intervals.
  EXPECT_EQ(CoveredNs({0, 100}, {{10, 50}, {20, 30}, {10, 50}}), 40u);
}

TEST(SelfTimeTest, ClipsChildrenToTheParent) {
  EXPECT_EQ(CoveredNs({10, 20}, {{0, 15}, {18, 40}}), 7u);
  EXPECT_EQ(SelfNs({10, 20}, {{0, 100}}), 0u);
  EXPECT_EQ(CoveredNs({10, 20}, {{30, 40}}), 0u);
}

TEST(ReconciliationResidualTest, ShareThePartsLeaveOut) {
  EXPECT_NEAR(ReconciliationResidual(100.0, {40.0, 30.0, 20.0}), 0.1, 1e-12);
  EXPECT_NEAR(ReconciliationResidual(100.0, {60.0, 50.0}), -0.1, 1e-12);
  EXPECT_DOUBLE_EQ(ReconciliationResidual(100.0, {100.0}), 0.0);
  EXPECT_DOUBLE_EQ(ReconciliationResidual(0.0, {1.0}), 0.0);
}

}  // namespace
}  // namespace perfbench
