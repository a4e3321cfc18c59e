// Robustness tests: every deserialization path must reject malformed input
// with a Status — never crash, never silently accept garbage — because
// gossip payloads arrive from untrusted radios.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregator.h"
#include "agg/count_sketch_reset.h"
#include "agg/fm_sketch.h"
#include "common/rng.h"
#include "common/wire.h"
#include "env/contact_trace.h"
#include "env/crawdad.h"

namespace dynagg {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t len) {
  std::vector<uint8_t> bytes(len);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
  return bytes;
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, AggregatorSurvivesRandomPayloads) {
  Rng rng(GetParam());
  AggregatorConfig config;
  config.csr.bins = 16;
  config.csr.levels = 8;
  NodeAggregator agg(1, 10.0, config);
  for (int trial = 0; trial < 200; ++trial) {
    const auto garbage = RandomBytes(rng, rng.UniformInt(300));
    (void)agg.HandleMessage(garbage);
    (void)agg.HandleReply(garbage);
  }
  // The aggregator must still function after the bombardment.
  NodeAggregator peer(2, 30.0, config);
  const auto request = agg.BeginRound();
  peer.BeginRound();
  const auto reply = peer.HandleMessage(request);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(agg.HandleReply(*reply).ok());
  agg.EndRound();
  EXPECT_GT(agg.AverageEstimate(), 0.0);
}

TEST_P(FuzzSeedTest, AggregatorSurvivesTruncatedRealPayloads) {
  Rng rng(GetParam() ^ 0xfeed);
  AggregatorConfig config;
  config.csr.bins = 16;
  config.csr.levels = 8;
  NodeAggregator a(1, 10.0, config);
  NodeAggregator b(2, 20.0, config);
  const auto request = a.BeginRound();
  b.BeginRound();
  // Every strict prefix of a real payload must be rejected cleanly.
  for (size_t len = 0; len < request.size(); ++len) {
    std::vector<uint8_t> prefix(request.begin(), request.begin() + len);
    EXPECT_FALSE(b.HandleMessage(prefix).ok()) << "prefix length " << len;
  }
  // The full payload still works afterwards.
  EXPECT_TRUE(b.HandleMessage(request).ok());
}

TEST_P(FuzzSeedTest, AggregatorRejectsBitflippedMassNaN) {
  AggregatorConfig config;
  config.csr.bins = 16;
  config.csr.levels = 8;
  NodeAggregator a(1, 10.0, config);
  NodeAggregator b(2, 20.0, config);
  // Non-finite bit patterns written over the weight (offset 3) or the value
  // (offset 11) field: NaN, +inf and -inf. One accepted payload would
  // corrupt b's mass for good.
  const uint64_t kNaN = 0x7ff8000000000001ull;
  const uint64_t kPosInf = 0x7ff0000000000000ull;
  const uint64_t kNegInf = 0xfff0000000000000ull;
  const struct {
    int offset;
    uint64_t bits;
  } cases[] = {{3, kNaN}, {3, kPosInf}, {11, kNegInf}, {11, kPosInf}};
  for (const auto& c : cases) {
    auto request = a.BeginRound();
    for (int i = 0; i < 8; ++i) {
      request[c.offset + i] = static_cast<uint8_t>(c.bits >> (8 * i));
    }
    b.BeginRound();
    EXPECT_FALSE(b.HandleMessage(request).ok())
        << "offset " << c.offset << ", bits " << std::hex << c.bits;
  }
}

TEST_P(FuzzSeedTest, FmSketchDeserializeNeverCrashes) {
  Rng rng(GetParam() ^ 0x5ce7c4);
  for (int trial = 0; trial < 500; ++trial) {
    const auto garbage = RandomBytes(rng, rng.UniformInt(200));
    BufReader reader(garbage.data(), garbage.size());
    const auto result = FmSketch::Deserialize(&reader);
    if (result.ok()) {
      // Accepted payloads must be structurally valid.
      EXPECT_GE(result->bins(), 1);
      EXPECT_LE(result->levels(), 64);
    }
  }
}

TEST_P(FuzzSeedTest, CsrMergeSerializedNeverCorruptsState) {
  Rng rng(GetParam() ^ 0xc54);
  CsrParams params;
  params.bins = 8;
  params.levels = 8;
  CountSketchResetNode node;
  node.Init(params, 7, 3);
  const std::vector<uint8_t> before = node.counters();
  for (int trial = 0; trial < 300; ++trial) {
    const auto garbage = RandomBytes(rng, rng.UniformInt(150));
    BufReader reader(garbage.data(), garbage.size());
    const Status status = node.MergeSerialized(&reader);
    if (!status.ok()) continue;
    // If a random payload happens to parse, it can only lower counters.
    for (size_t i = 0; i < before.size(); ++i) {
      ASSERT_LE(node.counters()[i], before[i]);
    }
  }
}

TEST_P(FuzzSeedTest, TraceParsersNeverCrash) {
  Rng rng(GetParam() ^ 0x7ace);
  for (int trial = 0; trial < 200; ++trial) {
    const auto bytes = RandomBytes(rng, rng.UniformInt(400));
    const std::string text(bytes.begin(), bytes.end());
    (void)ContactTrace::Parse(text);
    (void)ParseCrawdadContacts(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace dynagg
