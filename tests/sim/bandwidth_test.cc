#include "sim/bandwidth.h"

#include <vector>

#include <gtest/gtest.h>

#include "agg/count_sketch_reset.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "env/uniform_env.h"
#include "sim/population.h"

namespace dynagg {
namespace {

TEST(TrafficMeterTest, AccumulatesMessagesAndBytes) {
  TrafficMeter meter;
  meter.RecordMessage(10);
  meter.RecordMessage(30);
  EXPECT_EQ(meter.total().messages, 2);
  EXPECT_EQ(meter.total().bytes, 40);
  EXPECT_DOUBLE_EQ(meter.MeanMessageBytes(), 20.0);
  meter.Reset();
  EXPECT_EQ(meter.total().messages, 0);
  EXPECT_DOUBLE_EQ(meter.MeanMessageBytes(), 0.0);
}

TEST(TrafficMeterTest, StatsCompose) {
  TrafficStats a{2, 100};
  const TrafficStats b{3, 50};
  a += b;
  EXPECT_EQ(a.messages, 5);
  EXPECT_EQ(a.bytes, 150);
}

TEST(TrafficMeterTest, PushSumPushPullCosts2nMessagesPerRound) {
  // Section V: "every push/pull iteration requires a minimum of 2n
  // messages, where n is the number of participating hosts".
  const int n = 500;
  const std::vector<double> values(n, 1.0);
  PushSumSwarm swarm(values, GossipMode::kPushPull);
  TrafficMeter meter;
  swarm.set_traffic_meter(&meter);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  swarm.RunRound(env, pop, rng);
  EXPECT_EQ(meter.total().messages, 2 * n);
  EXPECT_EQ(meter.total().bytes, 2 * n * kMassMessageBytes);
}

TEST(TrafficMeterTest, PushSumPushCostsNMessagesPerRound) {
  const int n = 500;
  const std::vector<double> values(n, 1.0);
  PushSumSwarm swarm(values, GossipMode::kPush);
  TrafficMeter meter;
  swarm.set_traffic_meter(&meter);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(2);
  swarm.RunRound(env, pop, rng);
  // Self-messages are not radio traffic: exactly one payload per host.
  EXPECT_EQ(meter.total().messages, n);
}

TEST(TrafficMeterTest, DeadHostsSendNothing) {
  const int n = 100;
  const std::vector<double> values(n, 1.0);
  PushSumRevertSwarm swarm(values,
                           {.lambda = 0.1, .mode = GossipMode::kPushPull});
  TrafficMeter meter;
  swarm.set_traffic_meter(&meter);
  UniformEnvironment env(n);
  Population pop(n);
  for (HostId id = 10; id < n; ++id) pop.Kill(id);
  Rng rng(3);
  swarm.RunRound(env, pop, rng);
  EXPECT_EQ(meter.total().messages, 2 * 10);
}

TEST(TrafficMeterTest, IsolatedHostSendsNothing) {
  const std::vector<double> values = {1.0};
  PushSumSwarm swarm(values, GossipMode::kPush);
  TrafficMeter meter;
  swarm.set_traffic_meter(&meter);
  UniformEnvironment env(1);
  Population pop(1);
  Rng rng(4);
  swarm.RunRound(env, pop, rng);
  EXPECT_EQ(meter.total().messages, 0);
}

TEST(TrafficMeterTest, CsrPayloadMatchesSerializedBytes) {
  const int n = 50;
  const std::vector<int64_t> ones(n, 1);
  CsrSwarm swarm(ones, CsrParams{});
  TrafficMeter meter;
  swarm.set_traffic_meter(&meter);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(5);
  swarm.RunRound(env, pop, rng);
  EXPECT_EQ(meter.total().messages, 2 * n);
  const int64_t payload = swarm.SerializedBytes();
  EXPECT_EQ(meter.total().bytes, 2 * n * payload);
  // And SerializedBytes must agree with the actual serialization.
  CountSketchResetNode node;
  node.Init(CsrParams{}, /*host_key=*/0, /*multiplicity=*/1);
  BufWriter w;
  node.Serialize(&w);
  EXPECT_EQ(static_cast<int64_t>(w.size()), payload);
}

TEST(TrafficMeterTest, CsrOrdersOfMagnitudeHeavierThanPushSum) {
  // The quantitative basis for Invert-Average (Section IV.B).
  const int n = 200;
  const std::vector<double> values(n, 1.0);
  const std::vector<int64_t> ones(n, 1);
  PushSumRevertSwarm psr(values,
                         {.lambda = 0.01, .mode = GossipMode::kPushPull});
  CsrSwarm csr(ones, CsrParams{});
  TrafficMeter psr_meter;
  TrafficMeter csr_meter;
  psr.set_traffic_meter(&psr_meter);
  csr.set_traffic_meter(&csr_meter);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng1(6);
  Rng rng2(6);
  for (int round = 0; round < 5; ++round) {
    psr.RunRound(env, pop, rng1);
    csr.RunRound(env, pop, rng2);
  }
  EXPECT_GT(csr_meter.total().bytes, 50 * psr_meter.total().bytes);
}

}  // namespace
}  // namespace dynagg
