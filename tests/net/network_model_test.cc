// NetworkModel property tests: per-message delivery decisions must be a
// pure function of (root seed, message index) — the same index yields the
// same verdict no matter how many other indices were decided before it, in
// any order — and every decision must consume a constant number of Rng
// draws whether or not the message is dropped, so the driver's reported
// draw count is itself order-independent. Distribution checks pin the
// semantics of each latency kind and of the Bernoulli drop.

#include "net/network_model.h"

#include <algorithm>
#include <random>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"

namespace dynagg {
namespace net {
namespace {

NetworkParams ExponentialLossyParams() {
  NetworkParams p;
  p.latency = LatencyKind::kExponential;
  p.latency_s = 7.5;
  p.loss = 0.3;
  p.jitter_s = 2.0;
  return p;
}

TEST(NetworkModelTest, DecisionsAreIndexPureInAnyOrder) {
  const NetworkParams params = ExponentialLossyParams();
  constexpr uint64_t kMessages = 500;

  NetworkModel forward(params, /*root_seed=*/0xfeed);
  std::vector<NetworkModel::Delivery> expect;
  for (uint64_t i = 0; i < kMessages; ++i) expect.push_back(forward.Decide(i));

  // Shuffled order, with every index also re-decided a second time.
  std::vector<uint64_t> order;
  for (uint64_t i = 0; i < kMessages; ++i) {
    order.push_back(i);
    order.push_back(kMessages - 1 - i);
  }
  std::mt19937_64 shuffle(42);
  std::shuffle(order.begin(), order.end(), shuffle);

  NetworkModel scrambled(params, /*root_seed=*/0xfeed);
  for (const uint64_t i : order) {
    const NetworkModel::Delivery d = scrambled.Decide(i);
    EXPECT_EQ(d.dropped, expect[i].dropped) << "index " << i;
    EXPECT_EQ(d.delay, expect[i].delay) << "index " << i;
  }
  // Twice the decisions, exactly twice the draws: constant per message.
  EXPECT_EQ(scrambled.rng_draws(), 2 * forward.rng_draws());
}

TEST(NetworkModelTest, DropCoinNeverShiftsLatencyDraws) {
  // The latency of message i must not depend on the drop verdicts — its
  // own or any other message's. Same root seed at very different loss
  // rates: identical per-message delays (dropped messages included, whose
  // latency is still drawn) and identical draw totals.
  NetworkParams rarely = ExponentialLossyParams();
  rarely.loss = 0.05;
  NetworkParams often = ExponentialLossyParams();
  often.loss = 0.95;

  NetworkModel a(rarely, 1);
  NetworkModel b(often, 1);
  int dropped_a = 0;
  int dropped_b = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    const auto da = a.Decide(i);
    const auto db = b.Decide(i);
    EXPECT_EQ(da.delay, db.delay) << "index " << i;
    dropped_a += da.dropped ? 1 : 0;
    dropped_b += db.dropped ? 1 : 0;
  }
  EXPECT_LT(dropped_a, 50);
  EXPECT_GT(dropped_b, 350);
  EXPECT_EQ(a.rng_draws(), b.rng_draws());
}

TEST(NetworkModelTest, DifferentRootSeedsDecorrelate) {
  const NetworkParams params = ExponentialLossyParams();
  NetworkModel a(params, 1);
  NetworkModel b(params, 2);
  int identical = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const auto da = a.Decide(i);
    const auto db = b.Decide(i);
    if (da.dropped == db.dropped && da.delay == db.delay) ++identical;
  }
  EXPECT_LT(identical, 10);
}

TEST(NetworkModelTest, FixedLatencyIsExactAndLossless) {
  NetworkParams params;
  params.latency = LatencyKind::kFixed;
  params.latency_s = 3.0;
  NetworkModel model(params, 7);
  for (uint64_t i = 0; i < 100; ++i) {
    const auto d = model.Decide(i);
    EXPECT_FALSE(d.dropped);
    EXPECT_EQ(d.delay, FromSeconds(3.0));
  }
}

TEST(NetworkModelTest, UniformLatencyStaysInRange) {
  NetworkParams params;
  params.latency = LatencyKind::kUniform;
  params.latency_s = 2.0;
  params.latency_hi_s = 5.0;
  NetworkModel model(params, 7);
  double mean = 0.0;
  constexpr int kMessages = 2000;
  for (uint64_t i = 0; i < kMessages; ++i) {
    const auto d = model.Decide(i);
    EXPECT_GE(d.delay, FromSeconds(2.0));
    EXPECT_LE(d.delay, FromSeconds(5.0));
    mean += ToSeconds(d.delay);
  }
  mean /= kMessages;
  EXPECT_NEAR(mean, 3.5, 0.1);
}

TEST(NetworkModelTest, ExponentialLatencyMatchesItsMean) {
  NetworkParams params;
  params.latency = LatencyKind::kExponential;
  params.latency_s = 10.0;
  NetworkModel model(params, 7);
  double mean = 0.0;
  constexpr int kMessages = 4000;
  for (uint64_t i = 0; i < kMessages; ++i) {
    const auto d = model.Decide(i);
    EXPECT_GE(d.delay, 0);
    mean += ToSeconds(d.delay);
  }
  mean /= kMessages;
  EXPECT_NEAR(mean, 10.0, 0.6);
}

TEST(NetworkModelTest, ZeroMeanExponentialDegeneratesToInstant) {
  NetworkParams params;
  params.latency = LatencyKind::kExponential;
  params.latency_s = 0.0;
  NetworkModel model(params, 7);
  for (uint64_t i = 0; i < 50; ++i) EXPECT_EQ(model.Decide(i).delay, 0);
}

TEST(NetworkModelTest, JitterWidensFixedLatency) {
  NetworkParams params;
  params.latency = LatencyKind::kFixed;
  params.latency_s = 3.0;
  params.jitter_s = 1.5;
  NetworkModel model(params, 7);
  bool saw_jitter = false;
  for (uint64_t i = 0; i < 500; ++i) {
    const auto d = model.Decide(i);
    EXPECT_GE(d.delay, FromSeconds(3.0));
    EXPECT_LE(d.delay, FromSeconds(4.5));
    if (d.delay != FromSeconds(3.0)) saw_jitter = true;
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(NetworkModelTest, BernoulliDropRateIsCalibrated) {
  NetworkParams params;
  params.latency = LatencyKind::kFixed;
  params.latency_s = 1.0;
  params.loss = 0.25;
  NetworkModel model(params, 7);
  int dropped = 0;
  constexpr int kMessages = 4000;
  for (uint64_t i = 0; i < kMessages; ++i) {
    if (model.Decide(i).dropped) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / kMessages, 0.25, 0.03);
}

TEST(NetworkModelTest, CatalogsNameEveryModelAndKey) {
  const auto models = NetworkModelCatalog();
  ASSERT_EQ(models.size(), 3u);
  EXPECT_STREQ(models[0].name, "fixed");
  EXPECT_STREQ(models[1].name, "uniform");
  EXPECT_STREQ(models[2].name, "exponential");
  bool saw_loss = false;
  bool saw_stream = false;
  for (const auto& key : AsyncSpecKeyCatalog()) {
    if (std::string_view(key.name) == "net.loss") saw_loss = true;
    if (std::string_view(key.name) == "seeds.message_stream") {
      saw_stream = true;
    }
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_TRUE(saw_stream);
}

}  // namespace
}  // namespace net
}  // namespace dynagg
