#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "sim/population.h"

namespace dynagg {
namespace {

TEST(MetricsTest, TrueAverageAllAlive) {
  const std::vector<double> values = {1, 2, 3, 4};
  Population pop(4);
  EXPECT_DOUBLE_EQ(TrueAverage(values, pop), 2.5);
}

TEST(MetricsTest, TrueAverageSkipsDead) {
  const std::vector<double> values = {10, 20, 30, 40};
  Population pop(4);
  pop.Kill(3);
  EXPECT_DOUBLE_EQ(TrueAverage(values, pop), 20.0);
}

TEST(MetricsTest, TrueAverageEmptyPopulation) {
  const std::vector<double> values = {1.0};
  Population pop(1);
  pop.Kill(0);
  EXPECT_EQ(TrueAverage(values, pop), 0.0);
}

TEST(MetricsTest, TrueSum) {
  const std::vector<double> values = {1, 2, 3};
  Population pop(3);
  EXPECT_DOUBLE_EQ(TrueSum(values, pop), 6.0);
  pop.Kill(1);
  EXPECT_DOUBLE_EQ(TrueSum(values, pop), 4.0);
}

TEST(MetricsTest, RmsDeviationOverAlive) {
  Population pop(3);
  const std::vector<double> estimates = {4, 6, 5};
  const double rms = RmsDeviationOverAlive(
      pop, 5.0, [&](HostId id) { return estimates[id]; });
  EXPECT_DOUBLE_EQ(rms, std::sqrt((1.0 + 1.0 + 0.0) / 3.0));
}

TEST(MetricsTest, RmsDeviationIgnoresDeadEstimates) {
  Population pop(3);
  pop.Kill(2);
  const std::vector<double> estimates = {5, 5, 1000};
  const double rms = RmsDeviationOverAlive(
      pop, 5.0, [&](HostId id) { return estimates[id]; });
  EXPECT_EQ(rms, 0.0);
}

TEST(MetricsTest, RmsDeviationPerHost) {
  Population pop(2);
  const double rms = RmsDeviationPerHost(
      pop, [](HostId id) { return id == 0 ? 10.0 : 20.0; },
      [](HostId id) { return id == 0 ? 13.0 : 16.0; });
  EXPECT_DOUBLE_EQ(rms, std::sqrt((9.0 + 16.0) / 2.0));
}

// The metric sums walk host ids, not the alive list churn scrambles. On a
// churned population they must agree with the alive-order sums up to
// rounding.
TEST(MetricsTest, IdOrderMatchesAliveOrderReference) {
  constexpr int kHosts = 10000;
  Rng rng(909);
  std::vector<double> values(kHosts);
  std::vector<double> estimates(kHosts);
  for (int i = 0; i < kHosts; ++i) {
    values[i] = 100.0 * rng.NextDouble();
    estimates[i] = values[i] + rng.NextDouble() - 0.5;
  }
  Population pop(kHosts, kHosts * 4 / 5);
  for (int step = 0; step < 4 * kHosts; ++step) {
    const HostId id = static_cast<HostId>(rng.UniformInt(kHosts));
    if (rng.Bernoulli(0.4)) {
      pop.Kill(id);
    } else {
      pop.Revive(id);
    }
  }
  const std::vector<HostId>& alive = pop.alive_ids();
  ASSERT_GT(alive.size(), 1000u);
  ASSERT_FALSE(std::is_sorted(alive.begin(), alive.end()));

  double sum = 0.0;
  for (const HostId id : alive) sum += values[id];
  const double avg = sum / static_cast<double>(alive.size());
  DeviationStat dev;
  for (const HostId id : alive) dev.Add(estimates[id], avg);

  const auto estimate = [&](HostId id) { return estimates[id]; };
  EXPECT_NEAR(TrueSum(values, pop), sum, 1e-12 * sum);
  EXPECT_NEAR(TrueAverage(values, pop), avg, 1e-12 * avg);
  EXPECT_NEAR(RmsDeviationOverAlive(pop, avg, estimate), dev.rms(),
              1e-12 * dev.rms());
  EXPECT_NEAR(
      RmsDeviationPerHost(pop, [&](HostId) { return avg; }, estimate),
      dev.rms(), 1e-12 * dev.rms());
}

TEST(MetricsTest, FirstSustainedBelowBasic) {
  EXPECT_EQ(FirstSustainedBelow({5, 4, 3, 0.5, 0.4, 0.3}, 1.0), 3);
}

TEST(MetricsTest, FirstSustainedBelowRequiresSustained) {
  // Dips back above the threshold: only the final crossing counts.
  EXPECT_EQ(FirstSustainedBelow({0.5, 2.0, 0.5, 0.5}, 1.0), 2);
}

TEST(MetricsTest, FirstSustainedBelowNever) {
  EXPECT_EQ(FirstSustainedBelow({3, 2, 1.5}, 1.0), -1);
  EXPECT_EQ(FirstSustainedBelow({}, 1.0), -1);
}

TEST(MetricsTest, FirstSustainedBelowImmediate) {
  EXPECT_EQ(FirstSustainedBelow({0.1, 0.2}, 1.0), 0);
}

}  // namespace
}  // namespace dynagg
