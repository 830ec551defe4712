// Unit tests of the benchmark's own statistics (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> Range(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

// A phase at `rate` requests per second whose every request took
// `latency` seconds from its schedule, sent on time.
std::vector<Sample> Steady(size_t n, double rate, double latency) {
  std::vector<Sample> out;
  for (size_t k = 0; k < n; ++k) {
    const double due = static_cast<double>(k) / rate;
    out.push_back({due, due, due + latency, true});
  }
  return out;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(Range(100), 50), 50);
  EXPECT_EQ(Percentile(Range(100), 99), 99);
  EXPECT_EQ(Percentile(Range(1000), 99), 990);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
}

TEST(PercentileTest, SupportedPercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SupportedPercentile(10000), 99.9);
  EXPECT_EQ(SupportedPercentile(1000), 99.0);
  EXPECT_EQ(SupportedPercentile(999), 95.0);  // p99 has only 9 beyond
  EXPECT_EQ(SupportedPercentile(200), 95.0);
  EXPECT_EQ(SupportedPercentile(100), 90.0);
  EXPECT_EQ(SupportedPercentile(99), 50.0);
  EXPECT_EQ(SupportedPercentile(20), 50.0);
  EXPECT_EQ(SupportedPercentile(19), std::nullopt);
}

TEST(ScheduleLatencyTest, MeasuredFromTheScheduleNotTheSend) {
  // Due at 1.0, sent late at 1.5 behind a stalled request, done at 1.6:
  // the request waited 0.6 s, not the 0.1 s its own round trip took.
  const Sample s{1.0, 1.5, 1.6, true};
  EXPECT_DOUBLE_EQ(ScheduleLatency(s), 0.6);
  EXPECT_TRUE(IsLate(s));
  EXPECT_FALSE(IsLate({1.0, 1.0005, 1.1, true}));
}

TEST(ScheduleLatencyTest, FailuresAreCountedNotTimed) {
  const std::vector<Sample> samples = {
      {0.0, 0.0, 0.1, true}, {1.0, 1.0, 1.2, false}, {2.0, 2.5, 2.6, true}};
  const std::vector<double> lat = Latencies(samples);
  ASSERT_EQ(lat.size(), 2u);
  EXPECT_DOUBLE_EQ(lat[0], 0.1);
  EXPECT_DOUBLE_EQ(lat[1], 0.6);
  EXPECT_EQ(Failures(samples), 1u);
  EXPECT_DOUBLE_EQ(LateShare(samples), 1.0 / 3.0);
}

TEST(BacklogTest, GrowingLatencyIsABacklog) {
  std::vector<Sample> growing = Steady(400, 100, 0.001);
  for (size_t k = 0; k < growing.size(); ++k) {
    growing[k].done += 0.002 * static_cast<double>(k);  // falls behind
  }
  EXPECT_TRUE(BacklogGrew(growing, 0.1));
  EXPECT_FALSE(BacklogGrew(Steady(400, 100, 0.05), 0.01));
}

TEST(LadderTest, RungNeedsSupportedPercentileWithinLimit) {
  EXPECT_TRUE(RungPasses(Steady(100, 100, 0.005), 90, 0.01));
  EXPECT_FALSE(RungPasses(Steady(99, 100, 0.005), 90, 0.01));  // 9 beyond
  EXPECT_FALSE(RungPasses(Steady(100, 100, 0.02), 90, 0.01));
  std::vector<Sample> failed = Steady(100, 100, 0.005);
  failed[3].ok = false;
  EXPECT_FALSE(RungPasses(failed, 90, 0.01));
}

TEST(LadderTest, HighestRateWithEveryLowerRungPassing) {
  const std::vector<double> rates = {1000, 2000, 4000, 8000};
  EXPECT_EQ(HighestPassingRate(rates, {true, true, false, true}), 2000);
  EXPECT_EQ(HighestPassingRate(rates, {true, true, true, true}), 8000);
  EXPECT_EQ(HighestPassingRate(rates, {false, true, true, true}), 0);
  // A ladder stopped at its first failure.
  EXPECT_EQ(HighestPassingRate(rates, {true, false}), 1000);
}

TEST(StationarityTest, FlagsGrowthOnly) {
  EXPECT_TRUE((Stationarity{1e-3, 1.5e-3, 100, 120}).ok());
  EXPECT_FALSE((Stationarity{1e-3, 3e-3, 100, 100}).latency_flat());
  EXPECT_FALSE((Stationarity{1e-3, 1e-3, 100, 200}).memory_flat());
}

}  // namespace
}  // namespace perfbench
