#include "agg/aggregator.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dynagg {
namespace {

AggregatorConfig SmallConfig() {
  AggregatorConfig config;
  config.lambda = 0.05;
  config.csr.bins = 32;
  config.csr.levels = 16;
  config.count_multiplicity = 50;
  return config;
}

// Runs one full gossip round between two aggregators (a initiates).
void GossipOnce(NodeAggregator& a, NodeAggregator& b) {
  const auto request = a.BeginRound();
  b.BeginRound();  // b also starts its round (ages its sketch)
  const auto reply = b.HandleMessage(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(a.HandleReply(*reply).ok());
  a.EndRound();
  b.EndRound();
}

TEST(NodeAggregatorTest, InitialEstimatesAreLocal) {
  NodeAggregator agg(/*device_id=*/1, /*local_value=*/42.0, SmallConfig());
  EXPECT_DOUBLE_EQ(agg.AverageEstimate(), 42.0);
  EXPECT_GT(agg.CountEstimate(), 0.0);
}

TEST(NodeAggregatorTest, PairConvergesToPairAverage) {
  NodeAggregator a(1, 10.0, SmallConfig());
  NodeAggregator b(2, 30.0, SmallConfig());
  for (int round = 0; round < 30; ++round) GossipOnce(a, b);
  EXPECT_NEAR(a.AverageEstimate(), 20.0, 1.5);
  EXPECT_NEAR(b.AverageEstimate(), 20.0, 1.5);
}

TEST(NodeAggregatorTest, ExchangeConservesMass) {
  NodeAggregator a(1, 0.0, SmallConfig());
  NodeAggregator b(2, 100.0, SmallConfig());
  const auto request = a.BeginRound();
  b.BeginRound();
  const auto reply = b.HandleMessage(request);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(a.HandleReply(*reply).ok());
  // Before EndRound (reversion), total mass must equal the initial total.
  const Mass ma = a.psr_node().mass();
  const Mass mb = b.psr_node().mass();
  EXPECT_NEAR(ma.weight + mb.weight, 2.0, 1e-12);
  EXPECT_NEAR(ma.value + mb.value, 100.0, 1e-12);
  // And the exchange equalized them.
  EXPECT_NEAR(ma.weight, mb.weight, 1e-12);
  EXPECT_NEAR(ma.value, mb.value, 1e-12);
}

TEST(NodeAggregatorTest, GroupOfTenEstimatesSizeAndSum) {
  const int n = 10;
  AggregatorConfig config = SmallConfig();
  std::vector<std::unique_ptr<NodeAggregator>> devices;
  double true_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double value = 10.0 * i;
    true_sum += value;
    devices.push_back(
        std::make_unique<NodeAggregator>(1000 + i, value, config));
  }
  Rng rng(1);
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < n; ++i) {
      const int peer = static_cast<int>(rng.UniformInt(n - 1));
      const int j = peer >= i ? peer + 1 : peer;
      const auto request = devices[i]->BeginRound();
      const auto reply = devices[j]->HandleMessage(request);
      ASSERT_TRUE(reply.ok());
      ASSERT_TRUE(devices[i]->HandleReply(*reply).ok());
      devices[i]->EndRound();
    }
  }
  // Count: within FM error for 32 bins (~14% expected; allow wide margin).
  EXPECT_NEAR(devices[0]->CountEstimate(), n, 0.5 * n);
  // Average: reversion floor applies.
  EXPECT_NEAR(devices[0]->AverageEstimate(), 45.0, 8.0);
  // Sum: product of the two.
  EXPECT_NEAR(devices[0]->SumEstimate(), true_sum, 0.55 * true_sum);
}

// The facade's serialized request/reply equalization and its end-of-round
// reversion are the PushSumRevertNode push/pull steps: the same random
// pairing run on both must give the same estimates bit for bit.
TEST(NodeAggregatorTest, SerializedExchangeMatchesNodeSteps) {
  const int n = 5;
  const AggregatorConfig config = SmallConfig();
  std::vector<std::unique_ptr<NodeAggregator>> devices;
  std::vector<PushSumRevertNode> nodes(n);
  for (int i = 0; i < n; ++i) {
    const double value = 7.5 * i + 1.25;
    devices.push_back(std::make_unique<NodeAggregator>(100 + i, value, config));
    nodes[i].Init(value);
  }
  Rng rng(20240517);
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < n; ++i) {
      const int peer = static_cast<int>(rng.UniformInt(n - 1));
      const int j = peer >= i ? peer + 1 : peer;
      const auto request = devices[i]->BeginRound();
      const auto reply = devices[j]->HandleMessage(request);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_TRUE(devices[i]->HandleReply(*reply).ok());
      PushSumRevertNode::Exchange(nodes[i], nodes[j]);
    }
    for (int i = 0; i < n; ++i) {
      devices[i]->EndRound();
      nodes[i].EndRoundPushPull(config.lambda, RevertMode::kFixed);
    }
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(devices[i]->AverageEstimate(), nodes[i].Estimate())
          << "device " << i << ", round " << round;
    }
  }
}

TEST(NodeAggregatorTest, IsolatedDeviceDecaysToSelf) {
  AggregatorConfig config = SmallConfig();
  config.lambda = 0.2;
  NodeAggregator a(1, 10.0, config);
  NodeAggregator b(2, 90.0, config);
  for (int round = 0; round < 20; ++round) GossipOnce(a, b);
  EXPECT_NEAR(a.AverageEstimate(), 50.0, 10.0);
  // Device b walks away; a gossips with nobody.
  for (int round = 0; round < 80; ++round) {
    a.BeginRound();
    a.EndRound();
  }
  EXPECT_NEAR(a.AverageEstimate(), 10.0, 1.0);
  // The size sketch decays back towards 1 as b's slots age out.
  EXPECT_LT(a.CountEstimate(), 4.0);
}

TEST(NodeAggregatorTest, SetLocalValueShiftsEstimate) {
  AggregatorConfig config = SmallConfig();
  config.lambda = 0.5;
  NodeAggregator a(1, 10.0, config);
  a.SetLocalValue(70.0);
  for (int round = 0; round < 30; ++round) {
    a.BeginRound();
    a.EndRound();
  }
  EXPECT_NEAR(a.AverageEstimate(), 70.0, 1.0);
}

TEST(NodeAggregatorTest, RejectsGarbagePayload) {
  NodeAggregator a(1, 1.0, SmallConfig());
  const std::vector<uint8_t> garbage = {1, 2, 3, 4, 5};
  EXPECT_FALSE(a.HandleMessage(garbage).ok());
  EXPECT_FALSE(a.HandleReply(garbage).ok());
}

TEST(NodeAggregatorTest, RejectsWrongMessageType) {
  NodeAggregator a(1, 1.0, SmallConfig());
  NodeAggregator b(2, 2.0, SmallConfig());
  const auto request = a.BeginRound();
  // Feeding a *request* into HandleReply must fail.
  EXPECT_FALSE(b.HandleReply(request).ok());
}

TEST(NodeAggregatorTest, RejectsGeometryMismatch) {
  AggregatorConfig small = SmallConfig();
  AggregatorConfig big = SmallConfig();
  big.csr.bins = 64;
  NodeAggregator a(1, 1.0, small);
  NodeAggregator b(2, 2.0, big);
  const auto request = a.BeginRound();
  EXPECT_FALSE(b.HandleMessage(request).ok());
}

TEST(NodeAggregatorTest, PayloadSizeIsGeometryBound) {
  NodeAggregator a(1, 1.0, SmallConfig());
  const auto payload = a.BeginRound();
  // header(3) + mass(16) + geometry varints + 32*16 counters + length.
  EXPECT_GT(payload.size(), 32u * 16u);
  EXPECT_LT(payload.size(), 32u * 16u + 64u);
}

TEST(NodeAggregatorTest, HandleMessageMergesPeerSketch) {
  NodeAggregator a(1, 1.0, SmallConfig());
  NodeAggregator b(2, 2.0, SmallConfig());
  const double before = b.CountEstimate();
  const auto request = a.BeginRound();
  b.BeginRound();
  ASSERT_TRUE(b.HandleMessage(request).ok());
  EXPECT_GE(b.CountEstimate(), before);
}

}  // namespace
}  // namespace dynagg
