// Cross-module convergence tests: every protocol, driven end-to-end through
// the round driver over multiple environments, must reach its aggregate.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "agg/count_sketch_reset.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "env/spatial_env.h"
#include "env/uniform_env.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {
namespace {

std::vector<double> UniformValues(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble(0, 100);
  return values;
}

TEST(ConvergenceTest, RunRoundsDrivesFailuresAndObserver) {
  const int n = 100;
  const std::vector<double> values = UniformValues(n, 1);
  PushSumSwarm swarm(values, GossipMode::kPushPull);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(2);
  FailurePlan failures;
  failures.AddKill(5, {0, 1, 2});
  std::vector<int> observed_rounds;
  std::vector<int> alive_at_round;
  for (int round = 0; round < 10; ++round) {
    failures.Apply(round, &pop);
    swarm.RunRound(env, pop, rng);
    observed_rounds.push_back(round);
    alive_at_round.push_back(pop.num_alive());
  }
  ASSERT_EQ(observed_rounds.size(), 10u);
  EXPECT_EQ(observed_rounds.front(), 0);
  EXPECT_EQ(observed_rounds.back(), 9);
  EXPECT_EQ(alive_at_round[4], 100);
  EXPECT_EQ(alive_at_round[5], 97);
}

TEST(ConvergenceTest, ShuffledAliveOrderIsPermutation) {
  Population pop(50);
  pop.Kill(7);
  pop.Kill(31);
  Rng rng(3);
  std::vector<HostId> order;
  ShuffledAliveOrder(pop, rng, &order);
  ASSERT_EQ(order.size(), 48u);
  std::vector<bool> seen(50, false);
  for (const HostId id : order) {
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
    EXPECT_TRUE(pop.IsAlive(id));
  }
}

TEST(ConvergenceTest, PushSumConvergenceIsLogarithmic) {
  // Kempe et al.: convergence time grows ~log(n). Rounds to reach 1% error
  // at n=4000 should exceed n=250 by only a few rounds, not a factor.
  auto rounds_to_converge = [](int n) {
    const std::vector<double> values = UniformValues(n, 4);
    PushSumSwarm swarm(values, GossipMode::kPushPull);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(5);
    const double truth = TrueAverage(values, pop);
    for (int round = 0; round < 100; ++round) {
      swarm.RunRound(env, pop, rng);
      const double rms = RmsDeviationOverAlive(
          pop, truth, [&](HostId id) { return swarm.Estimate(id); });
      if (rms < 0.5) return round + 1;
    }
    return 100;
  };
  const int small = rounds_to_converge(250);
  const int large = rounds_to_converge(4000);
  EXPECT_LT(large, 100);
  EXPECT_LE(large - small, 8);  // ~log2(16) = 4 extra rounds, plus slack
}

TEST(ConvergenceTest, PushPullFasterThanPush) {
  // Karp et al. (Section III.A): push/pull roughly halves initial
  // convergence versus pure push.
  auto rounds_to_converge = [](GossipMode mode) {
    const int n = 2000;
    const std::vector<double> values = UniformValues(n, 6);
    PushSumSwarm swarm(values, mode);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(7);
    const double truth = TrueAverage(values, pop);
    for (int round = 0; round < 100; ++round) {
      swarm.RunRound(env, pop, rng);
      const double rms = RmsDeviationOverAlive(
          pop, truth, [&](HostId id) { return swarm.Estimate(id); });
      if (rms < 0.5) return round + 1;
    }
    return 100;
  };
  EXPECT_LT(rounds_to_converge(GossipMode::kPushPull),
            rounds_to_converge(GossipMode::kPush));
}

TEST(ConvergenceTest, PushSumConvergesOnSpatialGrid) {
  // Spatial gossip with 1/d^2 walks still converges (Section IV.A), just
  // slower than uniform.
  const int side = 24;
  const int n = side * side;
  const std::vector<double> values = UniformValues(n, 8);
  PushSumSwarm swarm(values, GossipMode::kPushPull);
  SpatialGridEnvironment env(side, side);
  Population pop(n);
  Rng rng(9);
  const double truth = TrueAverage(values, pop);
  for (int round = 0; round < 120; ++round) swarm.RunRound(env, pop, rng);
  const double rms = RmsDeviationOverAlive(
      pop, truth, [&](HostId id) { return swarm.Estimate(id); });
  EXPECT_LT(rms, 2.0);
}

TEST(ConvergenceTest, CsrConvergesOnSpatialGrid) {
  const int side = 20;
  const int n = side * side;
  const std::vector<int64_t> ones(n, 1);
  // Spatial propagation is slower than uniform: relax the cutoff base
  // accordingly (the paper sizes f(k) per-environment, Section IV.A).
  CsrParams params;
  params.cutoff_base = 14.0;
  params.cutoff_slope = 0.5;
  CsrSwarm swarm(ones, params);
  SpatialGridEnvironment env(side, side);
  Population pop(n);
  Rng rng(10);
  for (int round = 0; round < 80; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.EstimateCount(0), n, 0.45 * n);
}

TEST(ConvergenceTest, AllHostsAgreeAfterConvergence) {
  // Gossip averaging drives *every* host's estimate together, not only the
  // population mean: max spread across hosts must be small.
  const int n = 1000;
  const std::vector<double> values = UniformValues(n, 11);
  PushSumRevertSwarm swarm(
      values, {.lambda = 0.001, .mode = GossipMode::kPushPull});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(12);
  for (int round = 0; round < 60; ++round) swarm.RunRound(env, pop, rng);
  double lo = 1e300;
  double hi = -1e300;
  for (HostId id = 0; id < n; ++id) {
    lo = std::min(lo, swarm.Estimate(id));
    hi = std::max(hi, swarm.Estimate(id));
  }
  EXPECT_LT(hi - lo, 2.0);
}

}  // namespace
}  // namespace dynagg
