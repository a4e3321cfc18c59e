#include "agg/full_transfer.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "env/uniform_env.h"
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

double SwarmRms(const FullTransferSwarm& swarm, const Population& pop,
                double truth) {
  return RmsDeviationOverAlive(
      pop, truth, [&](HostId id) { return swarm.Estimate(id); });
}

/// One host's Full-Transfer scalars, as FullTransferSwarm keeps them per
/// host: pristine <1, v0> mass, an empty inbox and an empty ring of the
/// last `window` mass-bearing rounds.
struct FtHost {
  FtHost(double v0, int window) : v0(v0), mass{1.0, v0}, ring(window) {}
  double v0;
  Mass mass;
  Mass inbox;
  std::vector<Mass> ring;
  int32_t next = 0;
  int32_t count = 0;
};

void EndRound(FtHost& h) {
  FtEndRound(h.mass, h.inbox, h.ring, h.next, h.count);
}

double Estimate(const FtHost& h) { return FtEstimate(h.ring, h.count, h.v0); }

TEST(FullTransferStepsTest, ParcelsSplitRevertedMassEvenly) {
  FtHost h(20.0, /*window=*/3);
  const Mass p1 = FtParcel(h.mass, h.v0, /*lambda=*/0.0, /*parcels=*/4);
  const Mass p2 = FtParcel(h.mass, h.v0, 0.0, 4);
  EXPECT_DOUBLE_EQ(p1.weight, 0.25);
  EXPECT_DOUBLE_EQ(p1.value, 5.0);
  EXPECT_DOUBLE_EQ(p2.weight, 0.25);
  EXPECT_DOUBLE_EQ(p2.value, 5.0);
  // All mass has left the host: with nothing received, the round leaves
  // it empty.
  EndRound(h);
  EXPECT_DOUBLE_EQ(h.mass.weight, 0.0);
}

TEST(FullTransferStepsTest, ReversionReseedsEmptyNode) {
  FtHost h(40.0, 3);
  // Drain the host completely, receive nothing.
  EndRound(h);
  EXPECT_DOUBLE_EQ(h.mass.weight, 0.0);
  // Next round's emission still carries the lambda fraction of the initial
  // mass: the host cannot permanently vanish from the computation.
  const Mass parcel = FtParcel(h.mass, h.v0, 0.5, 1);
  EXPECT_DOUBLE_EQ(parcel.weight, 0.5);
  EXPECT_DOUBLE_EQ(parcel.value, 20.0);
}

TEST(FullTransferStepsTest, EstimateSkipsEmptyRounds) {
  FtHost h(10.0, /*window=*/2);
  h.inbox += Mass{1.0, 70.0};
  EndRound(h);
  EXPECT_DOUBLE_EQ(Estimate(h), 70.0);
  // A round with no received mass must not dilute the window.
  EndRound(h);
  EXPECT_DOUBLE_EQ(Estimate(h), 70.0);
}

TEST(FullTransferStepsTest, WindowAveragesRecentRounds) {
  FtHost h(0.0, /*window=*/2);
  h.inbox += Mass{1.0, 10.0};
  EndRound(h);
  h.inbox += Mass{1.0, 30.0};
  EndRound(h);
  // Window holds <1,10> and <1,30>: estimate 40/2 = 20.
  EXPECT_DOUBLE_EQ(Estimate(h), 20.0);
  // A third mass-bearing round evicts the oldest entry.
  h.inbox += Mass{1.0, 50.0};
  EndRound(h);
  EXPECT_DOUBLE_EQ(Estimate(h), 40.0);  // (30 + 50) / 2
}

TEST(FullTransferStepsTest, EstimateBeforeAnyMassIsInitialValue) {
  const FtHost h(123.0, 3);
  EXPECT_DOUBLE_EQ(Estimate(h), 123.0);
}

TEST(FullTransferSwarmTest, ConvergesToAverage) {
  const int n = 1000;
  const std::vector<double> values = UniformValues(n, 1);
  FullTransferSwarm swarm(values,
                          {.lambda = 0.1, .parcels = 4, .window = 3});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(2);
  const double truth = TrueAverage(values, pop);
  for (int round = 0; round < 50; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_LT(SwarmRms(swarm, pop, truth), 3.0);
}

TEST(FullTransferSwarmTest, MassConservedWithStableMembership) {
  const int n = 200;
  const std::vector<double> values = UniformValues(n, 3);
  double value_sum = 0.0;
  for (const double v : values) value_sum += v;
  FullTransferSwarm swarm(values,
                          {.lambda = 0.2, .parcels = 4, .window = 3});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(4);
  for (int round = 0; round < 40; ++round) {
    swarm.RunRound(env, pop, rng);
    const Mass total = swarm.TotalAliveMass(pop);
    ASSERT_NEAR(total.weight, n, 1e-9 * n);
    ASSERT_NEAR(total.value, value_sum, 1e-9 * value_sum);
  }
}

TEST(FullTransferSwarmTest, LowerFloorThanBasicRevertAfterFailure) {
  // Fig 10b's claim: at equal lambda, Full-Transfer converges to a smaller
  // residual error than the basic reverting protocol after a correlated
  // failure, because estimates no longer correlate with the host's own
  // initial value.
  const int n = 4000;
  const std::vector<double> values = UniformValues(n, 5);
  UniformEnvironment env(n);
  const double lambda = 0.5;

  auto kill_top_half = [&](Population& pop) {
    std::vector<HostId> ids(n);
    for (int i = 0; i < n; ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(), [&](HostId a, HostId b) {
      return values[a] > values[b];
    });
    for (int i = 0; i < n / 2; ++i) pop.Kill(ids[i]);
  };

  FullTransferSwarm ft(values, {.lambda = lambda, .parcels = 4, .window = 3});
  Population ft_pop(n);
  Rng ft_rng(6);
  for (int round = 0; round < 20; ++round) ft.RunRound(env, ft_pop, ft_rng);
  kill_top_half(ft_pop);
  for (int round = 0; round < 40; ++round) ft.RunRound(env, ft_pop, ft_rng);
  const double ft_rms = SwarmRms(ft, ft_pop, TrueAverage(values, ft_pop));

  PushSumRevertSwarm basic(values,
                           {.lambda = lambda, .mode = GossipMode::kPush});
  Population basic_pop(n);
  Rng basic_rng(6);
  for (int round = 0; round < 20; ++round) {
    basic.RunRound(env, basic_pop, basic_rng);
  }
  kill_top_half(basic_pop);
  for (int round = 0; round < 40; ++round) {
    basic.RunRound(env, basic_pop, basic_rng);
  }
  const double basic_rms = RmsDeviationOverAlive(
      basic_pop, TrueAverage(values, basic_pop),
      [&](HostId id) { return basic.Estimate(id); });

  EXPECT_LT(ft_rms, basic_rms);
}

TEST(FullTransferSwarmTest, SingleParcelSingleWindowStillWorks) {
  const int n = 500;
  const std::vector<double> values = UniformValues(n, 7);
  FullTransferSwarm swarm(values,
                          {.lambda = 0.1, .parcels = 1, .window = 1});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(8);
  for (int round = 0; round < 40; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_LT(SwarmRms(swarm, pop, TrueAverage(values, pop)), 25.0);
}

}  // namespace
}  // namespace dynagg
