// Push-flow unit tests: flow conservation (the effective masses always
// sum to the initial total once every view is consistent), convergence of
// the synchronous rounds, self-healing after dropped messages (the next
// cumulative flow on the same directed edge restores the receiver's
// view), the sequence-number guard against reordered deliveries, the
// churn-join edge teardown, and hosts tracking hundreds of edges.

#include "agg/push_flow.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "env/uniform_env.h"
#include "net/message.h"
#include "sim/population.h"

namespace dynagg {
namespace {

std::vector<double> UniformValues(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble(0, 100);
  return values;
}

double TotalEffectiveMass(const PushFlowSwarm& swarm) {
  double total = 0.0;
  for (HostId i = 0; i < swarm.size(); ++i) total += swarm.effective_mass(i);
  return total;
}

double TotalEffectiveWeight(const PushFlowSwarm& swarm) {
  double total = 0.0;
  for (HostId i = 0; i < swarm.size(); ++i) {
    total += swarm.effective_weight(i);
  }
  return total;
}

double MaxEstimateError(const PushFlowSwarm& swarm, double truth) {
  double worst = 0.0;
  for (HostId i = 0; i < swarm.size(); ++i) {
    worst = std::max(worst, std::abs(swarm.Estimate(i) - truth));
  }
  return worst;
}

TEST(PushFlowSwarmTest, InitialEstimateIsOwnValue) {
  PushFlowSwarm swarm({3.0, 7.0});
  EXPECT_DOUBLE_EQ(swarm.Estimate(0), 3.0);
  EXPECT_DOUBLE_EQ(swarm.Estimate(1), 7.0);
  EXPECT_DOUBLE_EQ(swarm.effective_weight(0), 1.0);
}

TEST(PushFlowSwarmTest, SynchronousRoundsConvergeAndConserve) {
  const int n = 256;
  const std::vector<double> values = UniformValues(n, 1);
  const double truth =
      std::accumulate(values.begin(), values.end(), 0.0) / n;
  PushFlowSwarm swarm(values);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(2);
  for (int round = 0; round < 60; ++round) {
    swarm.RunRound(env, pop, rng);
    // With every message delivered, flow conservation is exact each round.
    EXPECT_NEAR(TotalEffectiveMass(swarm), truth * n, 1e-6);
    EXPECT_NEAR(TotalEffectiveWeight(swarm), n, 1e-9);
  }
  EXPECT_LT(MaxEstimateError(swarm, truth), 1e-6);
}

TEST(PushFlowSwarmTest, AsyncTickPlansOneMessagePerMatchedHost) {
  const int n = 64;
  PushFlowSwarm swarm(UniformValues(n, 3));
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(4);
  std::vector<net::Message> wave;
  swarm.PlanAsyncTick(env, pop, rng, &wave);
  EXPECT_EQ(wave.size(), static_cast<size_t>(n));
  for (const net::Message& m : wave) {
    EXPECT_NE(m.src, m.dst);
    EXPECT_GT(m.b, 0.0);  // some denominator flow was pushed
    EXPECT_EQ(m.tag, 1u);  // first push on every directed edge
  }
  // Nothing delivered yet: the planned outflow is in flight, so the
  // network total is short by exactly the undelivered flow...
  EXPECT_LT(TotalEffectiveWeight(swarm), n);
  // ...and delivering the wave restores conservation exactly.
  for (const net::Message& m : wave) swarm.Deliver(m);
  EXPECT_NEAR(TotalEffectiveWeight(swarm), n, 1e-9);
}

TEST(PushFlowSwarmTest, LostMessageSelfHealsOnNextPushOverSameEdge) {
  // Two hosts pushing at each other: drop the first message from host 0,
  // then let a later push over the same directed edge restate the
  // cumulative flow. The receiver's view — and with it global
  // conservation — must be fully repaired, not just incrementally patched.
  PushFlowSwarm swarm({0.0, 100.0});
  UniformEnvironment env(2);
  Population pop(2);
  Rng rng(5);

  std::vector<net::Message> wave;
  swarm.PlanAsyncTick(env, pop, rng, &wave);
  ASSERT_EQ(wave.size(), 2u);
  for (const net::Message& m : wave) {
    if (m.src != 0) swarm.Deliver(m);  // drop host 0's first push
  }
  EXPECT_LT(TotalEffectiveWeight(swarm), 2.0);

  for (int tick = 0; tick < 4; ++tick) {
    wave.clear();
    swarm.PlanAsyncTick(env, pop, rng, &wave);
    for (const net::Message& m : wave) swarm.Deliver(m);
  }
  EXPECT_NEAR(TotalEffectiveMass(swarm), 100.0, 1e-9);
  EXPECT_NEAR(TotalEffectiveWeight(swarm), 2.0, 1e-9);
  EXPECT_NEAR(swarm.Estimate(0), 50.0, 1.0);
  EXPECT_NEAR(swarm.Estimate(1), 50.0, 1.0);
}

TEST(PushFlowSwarmTest, StaleSequenceNumbersAreIgnored) {
  PushFlowSwarm swarm({10.0, 20.0});
  // Hand-crafted cumulative flows from host 0 toward host 1, delivered
  // out of order: the newer flow (seq 2) lands first, the overtaken one
  // (seq 1) must be dropped instead of rolling the view backwards.
  const net::Message newer{0, 1, 8.0, 0.75, 2};
  const net::Message older{0, 1, 5.0, 0.5, 1};
  swarm.Deliver(newer);
  const double mass_after_newer = swarm.effective_mass(1);
  const double weight_after_newer = swarm.effective_weight(1);
  EXPECT_DOUBLE_EQ(mass_after_newer, 28.0);
  EXPECT_DOUBLE_EQ(weight_after_newer, 1.75);

  swarm.Deliver(older);
  EXPECT_DOUBLE_EQ(swarm.effective_mass(1), mass_after_newer);
  EXPECT_DOUBLE_EQ(swarm.effective_weight(1), weight_after_newer);

  // A genuinely newer restatement still applies, as a delta on the view.
  swarm.Deliver(net::Message{0, 1, 9.0, 1.0, 3});
  EXPECT_DOUBLE_EQ(swarm.effective_mass(1), 29.0);
  EXPECT_DOUBLE_EQ(swarm.effective_weight(1), 2.0);
}

TEST(PushFlowSwarmTest, DuplicateDeliveryIsIdempotent) {
  PushFlowSwarm swarm({10.0, 20.0});
  const net::Message m{0, 1, 5.0, 0.5, 1};
  swarm.Deliver(m);
  const double mass = swarm.effective_mass(1);
  swarm.Deliver(m);  // retransmission of the same cumulative flow
  EXPECT_DOUBLE_EQ(swarm.effective_mass(1), mass);
}

TEST(PushFlowSwarmTest, OnJoinTearsDownBothEndsAndConserves) {
  const int n = 32;
  const std::vector<double> values = UniformValues(n, 6);
  const double total = std::accumulate(values.begin(), values.end(), 0.0);
  PushFlowSwarm swarm(values);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(7);
  for (int round = 0; round < 20; ++round) swarm.RunRound(env, pop, rng);

  const HostId id = 5;
  int neighbors = 0;
  for (HostId p = 0; p < n; ++p) {
    if (swarm.tracks_edge(p, id)) ++neighbors;
  }
  ASSERT_GT(neighbors, 0);
  swarm.OnJoin(id);

  // Every view was consistent before the join, so dropping both halves of
  // each of id's edges and resetting id keeps the network total exact.
  EXPECT_NEAR(TotalEffectiveMass(swarm), total, 1e-9 * total);
  EXPECT_NEAR(TotalEffectiveWeight(swarm), n, 1e-9);
  EXPECT_EQ(swarm.num_edges(id), 0);
  EXPECT_DOUBLE_EQ(swarm.Estimate(id), values[id]);
  EXPECT_DOUBLE_EQ(swarm.effective_weight(id), 1.0);
  for (HostId p = 0; p < n; ++p) EXPECT_FALSE(swarm.tracks_edge(p, id)) << p;

  // The swarm keeps converging on the unchanged average afterwards.
  for (int round = 0; round < 60; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(TotalEffectiveMass(swarm), total, 1e-9 * total);
  EXPECT_LT(MaxEstimateError(swarm, total / n), 1e-6);
}

TEST(PushFlowSwarmTest, RebornHostsFirstPushIsAccepted) {
  // Two hosts push at each other for a few ticks, so each has adopted the
  // other's flow up to sequence number 5. Host 0 is then reborn: its next
  // push restarts at sequence number 1 and must land, not be dropped as
  // stale by host 1's old view.
  PushFlowSwarm swarm({0.0, 100.0});
  UniformEnvironment env(2);
  Population pop(2);
  Rng rng(8);
  std::vector<net::Message> wave;
  for (int tick = 0; tick < 5; ++tick) {
    wave.clear();
    swarm.PlanAsyncTick(env, pop, rng, &wave);
    for (const net::Message& m : wave) swarm.Deliver(m);
  }
  swarm.OnJoin(0);
  EXPECT_NEAR(TotalEffectiveMass(swarm), 100.0, 1e-9);

  wave.clear();
  swarm.PlanAsyncTick(env, pop, rng, &wave);
  ASSERT_EQ(wave.size(), 2u);
  for (const net::Message& m : wave) {
    EXPECT_EQ(m.tag, 1u) << "sender " << m.src;  // both halves restarted
    const double mass_before = swarm.effective_mass(m.dst);
    const double weight_before = swarm.effective_weight(m.dst);
    swarm.Deliver(m);
    EXPECT_DOUBLE_EQ(swarm.effective_mass(m.dst), mass_before + m.a);
    EXPECT_DOUBLE_EQ(swarm.effective_weight(m.dst), weight_before + m.b);
  }
  EXPECT_NEAR(TotalEffectiveMass(swarm), 100.0, 1e-9);
  EXPECT_NEAR(TotalEffectiveWeight(swarm), 2.0, 1e-9);
}

TEST(PushFlowSwarmTest, HostTracksHundredsOfPeers) {
  // Hand-crafted flows into host 0 from 500 distinct senders: every edge
  // is found again for the stale and the newer restatement. Integer
  // payloads keep every sum exact.
  const int peers = 500;
  PushFlowSwarm hub(std::vector<double>(peers + 1, 0.0));
  for (HostId p = 1; p <= peers; ++p) {
    hub.Deliver(net::Message{p, 0, static_cast<double>(p), 1.0, 2});
  }
  EXPECT_EQ(hub.num_edges(0), peers);
  const double first = peers * (peers + 1) / 2.0;
  EXPECT_EQ(hub.effective_mass(0), first);
  EXPECT_EQ(hub.effective_weight(0), 1.0 + peers);
  for (HostId p = peers; p >= 1; --p) {
    hub.Deliver(net::Message{p, 0, 1e6, 1e6, 1});  // stale: dropped
    hub.Deliver(net::Message{p, 0, p + 1.0, 2.0, 3});
  }
  EXPECT_EQ(hub.num_edges(0), peers);
  EXPECT_EQ(hub.effective_mass(0), first + peers);
  EXPECT_EQ(hub.effective_weight(0), 1.0 + 2.0 * peers);

  // Uniform pairing: after 300 ticks every host has exchanged with
  // hundreds of distinct peers. Conservation, convergence and the join
  // teardown still hold.
  const int n = 600;
  const std::vector<double> values = UniformValues(n, 9);
  const double total = std::accumulate(values.begin(), values.end(), 0.0);
  PushFlowSwarm swarm(values);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(10);
  std::vector<net::Message> wave;
  for (int tick = 0; tick < 300; ++tick) {
    wave.clear();
    swarm.PlanAsyncTick(env, pop, rng, &wave);
    for (const net::Message& m : wave) swarm.Deliver(m);
  }
  EXPECT_GT(swarm.num_edges(0), 200);
  EXPECT_NEAR(TotalEffectiveMass(swarm), total, 1e-9 * total);
  EXPECT_NEAR(TotalEffectiveWeight(swarm), n, 1e-9);
  EXPECT_LT(MaxEstimateError(swarm, total / n), 1e-6);
  swarm.OnJoin(0);
  EXPECT_NEAR(TotalEffectiveMass(swarm), total, 1e-9 * total);
  EXPECT_NEAR(TotalEffectiveWeight(swarm), n, 1e-9);
  for (HostId p = 1; p < n; ++p) EXPECT_FALSE(swarm.tracks_edge(p, 0)) << p;
}

}  // namespace
}  // namespace dynagg
