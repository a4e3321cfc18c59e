// Failure-injection integration tests: the dynamic protocols must keep
// tracking the live aggregate through kills, revivals and sustained churn,
// while the static baselines demonstrably do not.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "agg/count_sketch.h"
#include "agg/count_sketch_reset.h"
#include "agg/invert_average.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "env/uniform_env.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "sim/population.h"

namespace dynagg {
namespace {

std::vector<double> UniformValues(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble(0, 100);
  return values;
}

TEST(FailureRecoveryTest, PsrTracksThroughRepeatedFailures) {
  // Two successive correlated failures: the protocol must re-converge after
  // each one (the continual-estimate property of Section II.C).
  const int n = 2000;
  const std::vector<double> values = UniformValues(n, 1);
  PushSumRevertSwarm swarm(
      values, {.lambda = 0.1, .mode = GossipMode::kPushPull});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(2);
  FailurePlan failures;
  {
    // Round 20: top quarter; round 60: next quarter.
    std::vector<HostId> ids(n);
    for (int i = 0; i < n; ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(),
              [&](HostId a, HostId b) { return values[a] > values[b]; });
    failures.AddKill(
        20, std::vector<HostId>(ids.begin(), ids.begin() + n / 4));
    failures.AddKill(60, std::vector<HostId>(ids.begin() + n / 4,
                                             ids.begin() + n / 2));
  }
  std::vector<double> rms_series;
  for (int round = 0; round < 110; ++round) {
    failures.Apply(round, &pop);
    swarm.RunRound(env, pop, rng);
    rms_series.push_back(RmsDeviationOverAlive(
        pop, TrueAverage(values, pop),
        [&](HostId id) { return swarm.Estimate(id); }));
  }
  // Converged before each failure and recovered after both.
  EXPECT_LT(rms_series[19], 6.0);
  EXPECT_GT(rms_series[21], rms_series[19]);  // failure spike
  EXPECT_LT(rms_series[55], 5.0);             // recovered once
  EXPECT_LT(rms_series[109], 5.0);            // recovered twice
}

TEST(FailureRecoveryTest, PsrSurvivesContinuousChurn) {
  const int n = 1000;
  const std::vector<double> values = UniformValues(n, 3);
  PushSumRevertSwarm swarm(
      values, {.lambda = 0.05, .mode = GossipMode::kPushPull});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(4);
  Rng churn_rng(5);
  const FailurePlan churn =
      FailurePlan::Churn(n, 10, 100, 0.01, 0.1, churn_rng);
  std::vector<double> rms_tail;
  for (int round = 0; round < 100; ++round) {
    churn.Apply(round, &pop);
    swarm.RunRound(env, pop, rng);
    if (round >= 60) {
      rms_tail.push_back(RmsDeviationOverAlive(
          pop, TrueAverage(values, pop),
          [&](HostId id) { return swarm.Estimate(id); }));
    }
  }
  double mean_rms = 0.0;
  for (const double r : rms_tail) mean_rms += r;
  mean_rms /= static_cast<double>(rms_tail.size());
  // Uncorrelated churn: the estimate stays near the moving truth.
  EXPECT_LT(mean_rms, 5.0);
}

TEST(FailureRecoveryTest, RevivedHostsRejoinTheAverage) {
  const int n = 500;
  std::vector<double> values(n, 10.0);
  // Hosts n/2.. carry value 90 and are initially dead.
  for (int i = n / 2; i < n; ++i) values[i] = 90.0;
  PushSumRevertSwarm swarm(
      values, {.lambda = 0.1, .mode = GossipMode::kPushPull});
  UniformEnvironment env(n);
  Population pop(n);
  for (HostId id = n / 2; id < n; ++id) pop.Kill(id);
  Rng rng(6);
  for (int round = 0; round < 30; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.Estimate(0), 10.0, 2.0);
  for (HostId id = n / 2; id < n; ++id) pop.Revive(id);
  for (int round = 0; round < 60; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.Estimate(0), 50.0, 5.0);
}

TEST(FailureRecoveryTest, CsrRecoveryTimeScalesWithCutoff) {
  // "The range cutoff limits how long a bit no longer sourced remains in
  // the system": a larger cutoff base delays recovery.
  auto recovery_round = [](double cutoff_base) {
    const int n = 1000;
    const std::vector<int64_t> ones(n, 1);
    CsrParams params;
    params.cutoff_base = cutoff_base;
    CsrSwarm swarm(ones, params);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(7);
    for (int round = 0; round < 20; ++round) swarm.RunRound(env, pop, rng);
    for (HostId id = n / 2; id < n; ++id) pop.Kill(id);
    for (int round = 0; round < 80; ++round) {
      swarm.RunRound(env, pop, rng);
      if (std::abs(swarm.EstimateCount(0) - n / 2.0) < 0.3 * (n / 2.0)) {
        return round;
      }
    }
    return 80;
  };
  const int fast = recovery_round(7.0);
  const int slow = recovery_round(20.0);
  EXPECT_LT(fast, slow);
  EXPECT_LT(fast, 25);
}

TEST(FailureRecoveryTest, InvertAverageBeatsStaticSketchAfterFailure) {
  const int n = 1000;
  const std::vector<double> values = UniformValues(n, 8);
  UniformEnvironment env(n);

  // Static multi-insert sum (Considine): register round(v) identifiers.
  std::vector<int64_t> mults(n);
  for (int i = 0; i < n; ++i) {
    mults[i] = static_cast<int64_t>(values[i] + 0.5);
  }
  CountSketchSwarm static_sum(mults, CountSketchParams{});
  InvertAverageParams ia_params;
  ia_params.psr.lambda = 0.1;
  InvertAverageSwarm dynamic_sum(values, ia_params);

  Population pop_static(n);
  Population pop_dynamic(n);
  Rng rng_static(9);
  Rng rng_dynamic(9);
  for (int round = 0; round < 25; ++round) {
    static_sum.RunRound(env, pop_static, rng_static);
    dynamic_sum.RunRound(env, pop_dynamic, rng_dynamic);
  }
  // Kill the top-valued half in both populations.
  std::vector<HostId> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  std::sort(ids.begin(), ids.end(),
            [&](HostId a, HostId b) { return values[a] > values[b]; });
  for (int i = 0; i < n / 2; ++i) {
    pop_static.Kill(ids[i]);
    pop_dynamic.Kill(ids[i]);
  }
  for (int round = 0; round < 40; ++round) {
    static_sum.RunRound(env, pop_static, rng_static);
    dynamic_sum.RunRound(env, pop_dynamic, rng_dynamic);
  }
  const double truth = TrueSum(values, pop_dynamic);
  const double static_err =
      std::abs(static_sum.EstimateCount(0) - truth);
  const double dynamic_err = std::abs(dynamic_sum.EstimateSum(0) - truth);
  // The static sketch still reports ~ the old sum (~4x the new one).
  EXPECT_GT(static_err, 1.5 * truth);
  EXPECT_LT(dynamic_err, 0.5 * truth);
}

TEST(FailureRecoveryTest, TotalExtinctionAndRepopulation) {
  const int n = 100;
  const std::vector<double> values = UniformValues(n, 10);
  PushSumRevertSwarm swarm(
      values, {.lambda = 0.1, .mode = GossipMode::kPushPull});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(11);
  for (int round = 0; round < 20; ++round) swarm.RunRound(env, pop, rng);
  for (HostId id = 0; id < n; ++id) pop.Kill(id);
  // Rounds with nobody alive must be harmless.
  for (int round = 0; round < 5; ++round) swarm.RunRound(env, pop, rng);
  for (HostId id = 0; id < n; ++id) pop.Revive(id);
  for (int round = 0; round < 40; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.Estimate(0), TrueAverage(values, pop), 10.0);
}

}  // namespace
}  // namespace dynagg
