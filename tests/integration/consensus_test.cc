// Consensus property at scale: after convergence, *all* hosts — not just a
// sampled one — must report (a) nearly identical estimates and (b) the
// correct aggregate, across protocols and environments. Run at 10,000
// hosts to catch anything that only appears beyond toy sizes.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "agg/count_sketch_reset.h"
#include "agg/invert_average.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "env/random_graph_env.h"
#include "env/uniform_env.h"
#include "sim/metrics.h"
#include "sim/population.h"

namespace dynagg {
namespace {

constexpr int kHosts = 10000;

std::vector<double> UniformValues(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble(0, 100);
  return values;
}

struct Spread {
  double lo = 1e300;
  double hi = -1e300;
  void Add(double x) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  double width() const { return hi - lo; }
};

TEST(ConsensusTest, PsrAllHostsAgreeAtScale) {
  const std::vector<double> values = UniformValues(kHosts, 1);
  PushSumRevertSwarm swarm(
      values, {.lambda = 0.001, .mode = GossipMode::kPushPull});
  UniformEnvironment env(kHosts);
  Population pop(kHosts);
  Rng rng(2);
  for (int round = 0; round < 40; ++round) swarm.RunRound(env, pop, rng);
  const double truth = TrueAverage(values, pop);
  Spread spread;
  for (HostId id = 0; id < kHosts; ++id) {
    const double est = swarm.Estimate(id);
    spread.Add(est);
    ASSERT_NEAR(est, truth, 2.0) << "host " << id;
  }
  EXPECT_LT(spread.width(), 3.0);
}

TEST(ConsensusTest, CsrAllHostsHoldIdenticalSketchAtConvergence) {
  const std::vector<int64_t> ones(kHosts, 1);
  CsrSwarm swarm(ones, CsrParams{});
  UniformEnvironment env(kHosts);
  Population pop(kHosts);
  Rng rng(3);
  for (int round = 0; round < 30; ++round) swarm.RunRound(env, pop, rng);
  // Derived bits (not raw counters, which differ by small ages) must agree
  // across all hosts once converged.
  const FmSketch reference = swarm.DeriveBits(0);
  const double est0 = swarm.EstimateCount(0);
  int disagreements = 0;
  for (HostId id = 0; id < kHosts; ++id) {
    if (!(swarm.DeriveBits(id) == reference)) ++disagreements;
  }
  // A handful of hosts can be mid-flip on a boundary counter.
  EXPECT_LT(disagreements, kHosts / 100);
  EXPECT_NEAR(est0, kHosts, 0.3 * kHosts);
}

TEST(ConsensusTest, InvertAverageConsistentAcrossHosts) {
  const std::vector<double> values = UniformValues(kHosts, 4);
  InvertAverageParams params;
  params.psr.lambda = 0.001;
  InvertAverageSwarm swarm(values, params);
  UniformEnvironment env(kHosts);
  Population pop(kHosts);
  Rng rng(5);
  for (int round = 0; round < 30; ++round) swarm.RunRound(env, pop, rng);
  const double truth = TrueSum(values, pop);
  Spread spread;
  for (HostId id = 0; id < kHosts; id += 11) {
    const double est = swarm.EstimateSum(id);
    spread.Add(est);
    ASSERT_NEAR(est, truth, 0.35 * truth) << "host " << id;
  }
  // Sum spread is dominated by the shared sketch: hosts agree tightly.
  EXPECT_LT(spread.width(), 0.1 * truth);
}

TEST(ConsensusTest, SparseOverlayStillReachesConsensus) {
  const std::vector<double> values = UniformValues(kHosts, 6);
  PushSumRevertSwarm swarm(
      values, {.lambda = 0.0, .mode = GossipMode::kPushPull});
  RandomGraphEnvironment env(kHosts, 8, 7);
  Population pop(kHosts);
  Rng rng(8);
  for (int round = 0; round < 80; ++round) swarm.RunRound(env, pop, rng);
  const double truth = TrueAverage(values, pop);
  Spread spread;
  for (HostId id = 0; id < kHosts; ++id) spread.Add(swarm.Estimate(id));
  EXPECT_LT(spread.width(), 2.0);
  EXPECT_NEAR((spread.lo + spread.hi) / 2, truth, 1.0);
}

}  // namespace
}  // namespace dynagg
