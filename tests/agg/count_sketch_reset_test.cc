#include "agg/count_sketch_reset.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "agg/count_sketch.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/wire.h"
#include "env/uniform_env.h"
#include "sim/population.h"

namespace dynagg {
namespace {

CsrParams SmallParams() {
  CsrParams p;
  p.bins = 16;
  p.levels = 16;
  return p;
}

TEST(CsrNodeTest, InitPinsOwnedSlotsToZero) {
  CountSketchResetNode node;
  node.Init(SmallParams(), /*host_key=*/3, /*multiplicity=*/5);
  EXPECT_FALSE(node.owned_slots().empty());
  for (const int32_t offset : node.owned_slots()) {
    EXPECT_EQ(node.counters()[offset], 0);
  }
  // Everything else is infinity.
  size_t infinite = 0;
  for (const uint8_t c : node.counters()) {
    if (c == kCsrInfinity) ++infinite;
  }
  EXPECT_EQ(infinite, node.counters().size() - node.owned_slots().size());
}

TEST(CsrNodeTest, AgeCountersKeepsOwnedAtZeroAndInfinityFixed) {
  CountSketchResetNode node;
  node.Init(SmallParams(), 1, 3);
  node.AgeCounters();
  node.AgeCounters();
  for (const int32_t offset : node.owned_slots()) {
    EXPECT_EQ(node.counters()[offset], 0);
  }
  for (size_t i = 0; i < node.counters().size(); ++i) {
    const bool owned =
        std::find(node.owned_slots().begin(), node.owned_slots().end(),
                  static_cast<int32_t>(i)) != node.owned_slots().end();
    if (!owned) {
      EXPECT_EQ(node.counters()[i], kCsrInfinity);
    }
  }
}

TEST(CsrNodeTest, AgeIncrementsFiniteCounters) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(SmallParams(), 1, 1);
  b.Init(SmallParams(), 2, 1);
  // b learns a's zero counter, then ages it.
  b.MergeFrom(a);
  const int32_t a_slot = a.owned_slots()[0];
  EXPECT_EQ(b.counters()[a_slot], 0);
  b.AgeCounters();
  // a's slot may coincide with b's own slot; only check when distinct.
  if (a_slot != b.owned_slots()[0]) {
    EXPECT_EQ(b.counters()[a_slot], 1);
    b.AgeCounters();
    EXPECT_EQ(b.counters()[a_slot], 2);
  }
}

TEST(CsrNodeTest, CountersSaturateBelowInfinity) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(SmallParams(), 1, 1);
  b.Init(SmallParams(), 2, 1);
  b.MergeFrom(a);
  for (int i = 0; i < 1000; ++i) b.AgeCounters();
  for (const uint8_t c : b.counters()) {
    EXPECT_TRUE(c == 0 || c == kCsrCounterCap || c == kCsrInfinity);
  }
}

TEST(CsrNodeTest, MergeTakesElementwiseMin) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(SmallParams(), 1, 4);
  b.Init(SmallParams(), 2, 4);
  const std::vector<uint8_t> a_before = a.counters();
  const std::vector<uint8_t> b_before = b.counters();
  a.MergeFrom(b);
  for (size_t i = 0; i < a_before.size(); ++i) {
    EXPECT_EQ(a.counters()[i], std::min(a_before[i], b_before[i]));
  }
}

TEST(CsrNodeTest, ExchangeMergeEqualizes) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(SmallParams(), 1, 4);
  b.Init(SmallParams(), 2, 4);
  CountSketchResetNode::ExchangeMerge(a, b);
  EXPECT_EQ(a.counters(), b.counters());
}

TEST(CsrNodeTest, EstimateOfSingleHostIsSmall) {
  CountSketchResetNode node;
  CsrParams p;  // default 64-bin geometry
  node.Init(p, 1, 1);
  // One owned object: run lengths are 0 or 1, estimate near m/phi.
  EXPECT_LT(node.EstimateCount(), 2.5 * 64 / kFmPhi);
}

TEST(CsrNodeTest, BitSetFollowsCutoff) {
  CsrParams p = SmallParams();
  p.cutoff_base = 2.0;
  p.cutoff_slope = 0.0;  // f(k) = 2 for all k
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(p, 1, 1);
  b.Init(p, 2, 1);
  b.MergeFrom(a);
  const int32_t slot = a.owned_slots()[0];
  if (slot == b.owned_slots()[0]) GTEST_SKIP() << "slot collision";
  const auto [bin, level] = b.SlotAt(slot);
  EXPECT_TRUE(b.BitSet(bin, level));  // counter 0 <= 2
  b.AgeCounters();
  b.AgeCounters();
  EXPECT_TRUE(b.BitSet(bin, level));  // counter 2 <= 2
  b.AgeCounters();
  EXPECT_FALSE(b.BitSet(bin, level));  // counter 3 > 2: decayed out
}

TEST(CsrNodeTest, DisabledCutoffNeverDecays) {
  CsrParams p = SmallParams();
  p.cutoff_enabled = false;
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(p, 1, 1);
  b.Init(p, 2, 1);
  b.MergeFrom(a);
  const auto [bin, level] = b.SlotAt(a.owned_slots()[0]);
  for (int i = 0; i < 500; ++i) b.AgeCounters();
  EXPECT_TRUE(b.BitSet(bin, level));
}

TEST(CsrNodeTest, DeriveBitsMatchesBitSet) {
  CountSketchResetNode node;
  node.Init(SmallParams(), 9, 20);
  const FmSketch bits = node.DeriveBits();
  for (int b = 0; b < node.bins(); ++b) {
    for (int k = 0; k < node.levels(); ++k) {
      EXPECT_EQ(bits.TestSlot(b, k), node.BitSet(b, k));
    }
  }
}

TEST(CsrNodeTest, SerializedMergeMatchesDirectMerge) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  CountSketchResetNode b_copy;
  a.Init(SmallParams(), 1, 8);
  b.Init(SmallParams(), 2, 8);
  b_copy.Init(SmallParams(), 2, 8);
  BufWriter w;
  a.Serialize(&w);
  BufReader r(w.buffer());
  ASSERT_TRUE(b.MergeSerialized(&r).ok());
  b_copy.MergeFrom(a);
  EXPECT_EQ(b.counters(), b_copy.counters());
}

TEST(CsrNodeTest, MergeSerializedRejectsGeometryMismatch) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(SmallParams(), 1, 1);
  CsrParams other = SmallParams();
  other.bins = 32;
  b.Init(other, 2, 1);
  BufWriter w;
  a.Serialize(&w);
  BufReader r(w.buffer());
  EXPECT_EQ(b.MergeSerialized(&r).code(), StatusCode::kInvalidArgument);
}

TEST(CsrNodeTest, MergeSerializedRejectsTruncation) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(SmallParams(), 1, 1);
  b.Init(SmallParams(), 2, 1);
  BufWriter w;
  a.Serialize(&w);
  std::vector<uint8_t> bytes = w.buffer();
  bytes.resize(bytes.size() / 2);
  BufReader r(bytes.data(), bytes.size());
  EXPECT_FALSE(b.MergeSerialized(&r).ok());
}

// Random counters biased toward the values the kernels treat specially:
// 0 (pinned), the cap and the infinity sentinel.
std::vector<uint8_t> RandomCounters(Rng& rng, size_t n) {
  std::vector<uint8_t> c(n);
  for (uint8_t& v : c) {
    switch (rng.UniformInt(4)) {
      case 0: v = 0; break;
      case 1: v = kCsrCounterCap; break;
      case 2: v = kCsrInfinity; break;
      default: v = static_cast<uint8_t>(rng.UniformInt(256)); break;
    }
  }
  return c;
}

// Serializes `wire` (bin-major counters) in the CSR wire format.
std::vector<uint8_t> WirePayload(int bins, int levels,
                                 const std::vector<uint8_t>& wire) {
  BufWriter w;
  w.PutVarint(static_cast<uint64_t>(bins));
  w.PutVarint(static_cast<uint64_t>(levels));
  w.PutBytes(std::string_view(reinterpret_cast<const char*>(wire.data()),
                              wire.size()));
  return w.Release();
}

TEST(CsrKernelTest, KernelsMatchScalarReference) {
  Rng rng(13);
  for (const int bins : {1, 5, 64, 300}) {
    for (const int levels : {1, 7, 24, 32}) {
      SCOPED_TRACE(testing::Message() << bins << " x " << levels);
      const size_t n = static_cast<size_t>(bins) * levels;

      // Age: saturating increment below the cap, then re-pin owned slots.
      std::vector<uint8_t> aged = RandomCounters(rng, n);
      std::vector<int32_t> owned;
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.1)) owned.push_back(static_cast<int32_t>(i));
      }
      std::vector<uint8_t> expected = aged;
      for (uint8_t& c : expected) {
        if (c < kCsrCounterCap) ++c;
      }
      for (const int32_t offset : owned) expected[offset] = 0;
      CsrAge(aged, owned);
      EXPECT_EQ(aged, expected);

      // One-way and two-way min-merge.
      const std::vector<uint8_t> a = RandomCounters(rng, n);
      const std::vector<uint8_t> b = RandomCounters(rng, n);
      std::vector<uint8_t> min_ab(n);
      for (size_t i = 0; i < n; ++i) min_ab[i] = std::min(a[i], b[i]);
      std::vector<uint8_t> dst = a;
      CsrMergeMin(dst, b);
      EXPECT_EQ(dst, min_ab);
      std::vector<uint8_t> x = a;
      std::vector<uint8_t> y = b;
      CsrExchangeMin(x, y);
      EXPECT_EQ(x, min_ab);
      EXPECT_EQ(y, min_ab);
    }
  }
}

TEST(CsrKernelTest, EstimateMatchesPerBinScan) {
  Rng rng(17);
  for (const bool cutoff : {true, false}) {
    for (const int bins : {1, 5, 64, 300}) {
      for (const int levels : {1, 7, 24, 32}) {
        SCOPED_TRACE(testing::Message() << bins << " x " << levels
                                        << " cutoff " << cutoff);
        CsrParams p;
        p.bins = bins;
        p.levels = levels;
        p.cutoff_enabled = cutoff;
        // Multiplicity 0: every counter starts at infinity, so merging a
        // payload installs it verbatim.
        CountSketchResetNode node;
        node.Init(p, /*host_key=*/1, /*multiplicity=*/0);
        const std::vector<uint8_t> wire =
            RandomCounters(rng, static_cast<size_t>(bins) * levels);
        const std::vector<uint8_t> payload = WirePayload(bins, levels, wire);
        BufReader r(payload);
        ASSERT_TRUE(node.MergeSerialized(&r).ok());

        int64_t total_run = 0;
        for (int b = 0; b < bins; ++b) {
          int run = 0;
          while (run < levels) {
            const uint8_t c = wire[static_cast<size_t>(b) * levels + run];
            const double f = std::clamp(p.cutoff_base + p.cutoff_slope * run,
                                        0.0, double{kCsrCounterCap});
            const bool set = cutoff ? c <= static_cast<uint8_t>(f)
                                    : c != kCsrInfinity;
            if (!set) break;
            ++run;
          }
          EXPECT_EQ(node.RunLength(b), run);
          total_run += run;
        }
        const double expected =
            bins / kFmPhi * std::exp2(static_cast<double>(total_run) / bins);
        EXPECT_EQ(node.EstimateCount(), expected);
      }
    }
  }
}

TEST(CsrNodeTest, WireFormatIsBinMajor) {
  CsrParams p;
  p.bins = 5;
  p.levels = 7;
  const int n = 50;
  CsrSwarm swarm(std::vector<int64_t>(n, 3), p);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(8);
  for (int round = 0; round < 4; ++round) swarm.RunRound(env, pop, rng);
  const CountSketchResetNode& node = swarm.node(0);

  // The logical accessor agrees with the hash placement of owned objects.
  for (int64_t idx = 0; idx < 3; ++idx) {
    const SketchSlot slot =
        SketchPlace(HashCombine(0, static_cast<uint64_t>(idx)), p.hash_seed,
                    p.bins, p.levels - 1);
    EXPECT_EQ(node.counter(slot.bin, slot.level), 0);
  }

  BufWriter w;
  node.Serialize(&w);
  BufReader r(w.buffer());
  uint64_t bins = 0;
  uint64_t levels = 0;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(r.ReadVarint(&bins).ok());
  ASSERT_TRUE(r.ReadVarint(&levels).ok());
  ASSERT_TRUE(r.ReadBytes(&bytes).ok());
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(bins, 5u);
  ASSERT_EQ(levels, 7u);
  ASSERT_EQ(bytes.size(), 35u);
  EXPECT_EQ(static_cast<int64_t>(w.size()), node.SerializedBytes());
  for (int b = 0; b < p.bins; ++b) {
    for (int k = 0; k < p.levels; ++k) {
      EXPECT_EQ(bytes[static_cast<size_t>(b) * p.levels + k],
                node.counter(b, k))
          << "bin " << b << " level " << k;
    }
  }
}

TEST(CsrNodeTest, SlotAtInvertsOffsetOf) {
  CountSketchResetNode node;
  CsrParams p;
  p.bins = 5;
  p.levels = 7;
  node.Init(p, 1, 1);
  for (int b = 0; b < p.bins; ++b) {
    for (int k = 0; k < p.levels; ++k) {
      const SketchSlot slot = node.SlotAt(node.OffsetOf(b, k));
      EXPECT_EQ(slot.bin, b);
      EXPECT_EQ(slot.level, k);
    }
  }
}

TEST(CsrSwarmTest, ConvergedEstimateNearHostCount) {
  const int n = 2000;
  const std::vector<int64_t> ones(n, 1);
  CsrSwarm swarm(ones, CsrParams{});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (int round = 0; round < 30; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.EstimateCount(0), n, 0.3 * n);
  EXPECT_NEAR(swarm.EstimateCount(n / 2), n, 0.3 * n);
}

TEST(CsrSwarmTest, MatchesStaticSketchWhenCutoffDisabled) {
  // With the cutoff disabled, the converged CSR bits must equal the
  // converged static Count-Sketch bits: both protocols register identical
  // object populations (cross-validation of the two implementations).
  const int n = 300;
  const std::vector<int64_t> ones(n, 1);
  CsrParams csr_params;
  csr_params.cutoff_enabled = false;
  csr_params.bins = 32;
  csr_params.levels = 20;
  CsrSwarm csr(ones, csr_params);
  CountSketchParams cs_params;
  cs_params.bins = 32;
  cs_params.levels = 20;
  CountSketchSwarm cs(ones, cs_params);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng1(2);
  Rng rng2(2);
  for (int round = 0; round < 40; ++round) {
    csr.RunRound(env, pop, rng1);
    cs.RunRound(env, pop, rng2);
  }
  EXPECT_TRUE(csr.node(0).DeriveBits() == cs.node(0).sketch());
  EXPECT_DOUBLE_EQ(csr.EstimateCount(0), cs.EstimateCount(0));
}

TEST(CsrSwarmTest, RecoversAfterMassFailure) {
  // Fig 9: after half the hosts fail, the cutoff ages their bits out and
  // the estimate reverts to the surviving count within ~f(0)+ rounds.
  const int n = 2000;
  const std::vector<int64_t> ones(n, 1);
  CsrSwarm swarm(ones, CsrParams{});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(3);
  for (int round = 0; round < 25; ++round) swarm.RunRound(env, pop, rng);
  for (HostId id = n / 2; id < n; ++id) pop.Kill(id);
  for (int round = 0; round < 30; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.EstimateCount(0), n / 2, 0.35 * n / 2);
}

TEST(CsrSwarmTest, WithoutCutoffNeverRecovers) {
  const int n = 1000;
  const std::vector<int64_t> ones(n, 1);
  CsrParams params;
  params.cutoff_enabled = false;
  CsrSwarm swarm(ones, params);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(4);
  for (int round = 0; round < 25; ++round) swarm.RunRound(env, pop, rng);
  const double before = swarm.EstimateCount(0);
  for (HostId id = n / 2; id < n; ++id) pop.Kill(id);
  for (int round = 0; round < 30; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_DOUBLE_EQ(swarm.EstimateCount(0), before);
}

TEST(CsrSwarmTest, MultiplicityScalesEstimate) {
  const int n = 100;
  const int64_t mult = 50;
  const std::vector<int64_t> mults(n, mult);
  CsrSwarm swarm(mults, CsrParams{});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(5);
  for (int round = 0; round < 25; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.EstimateCount(0) / mult, n, 0.35 * n);
}

TEST(CsrSwarmTest, PushModeConverges) {
  const int n = 1000;
  const std::vector<int64_t> ones(n, 1);
  CsrParams params;
  params.mode = GossipMode::kPush;
  CsrSwarm swarm(ones, params);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(6);
  for (int round = 0; round < 40; ++round) swarm.RunRound(env, pop, rng);
  EXPECT_NEAR(swarm.EstimateCount(0), n, 0.35 * n);
}

TEST(CsrSwarmTest, CounterDistributionBoundedByLinearCutoff) {
  // Fig 6's claim: at convergence, counters for level k are bounded by a
  // function linear in k and independent of n — check 7 + k/4 + slack.
  const int n = 5000;
  const std::vector<int64_t> ones(n, 1);
  CsrSwarm swarm(ones, CsrParams{});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(7);
  for (int round = 0; round < 40; ++round) swarm.RunRound(env, pop, rng);
  // Levels that at least two hosts own (k <~ log2(n/m)) must have small
  // counters everywhere.
  const CountSketchResetNode& node = swarm.node(0);
  for (int b = 0; b < node.bins(); ++b) {
    for (int k = 0; k < 4; ++k) {
      const uint8_t c = node.counter(b, k);
      if (c == kCsrInfinity) continue;  // never sourced
      EXPECT_LE(c, 7.0 + k / 4.0 + 6.0) << "bin " << b << " level " << k;
    }
  }
}

}  // namespace
}  // namespace dynagg
