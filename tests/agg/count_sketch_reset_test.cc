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

// A (levels x bins) array of kBits-wide cells, one logical value per cell
// including the padding cell that ends an odd nibble row.
template <int kBits>
struct CellArray {
  int bins;
  int levels;
  std::vector<uint8_t> cells;  // levels x row_cells(), unpacked

  size_t row_cells() const {
    return CsrCells<kBits>::RowBytes(bins) * CsrCells<kBits>::kPerByte;
  }
  bool padding(size_t index) const {
    return static_cast<int>(index % row_cells()) >= bins;
  }
  std::vector<uint8_t> Pack() const {
    std::vector<uint8_t> bytes(cells.size() / CsrCells<kBits>::kPerByte, 0);
    for (size_t i = 0; i < cells.size(); ++i) {
      bytes[i / CsrCells<kBits>::kPerByte] |= static_cast<uint8_t>(
          cells[i] << (i % CsrCells<kBits>::kPerByte * kBits));
    }
    return bytes;
  }
  static std::vector<uint8_t> Unpack(const std::vector<uint8_t>& bytes) {
    std::vector<uint8_t> out(bytes.size() * CsrCells<kBits>::kPerByte);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = CsrCells<kBits>::Get(bytes.data(), i);
    }
    return out;
  }
};

// Random cells biased toward 0, the cap and infinity; padding cells hold
// infinity, as in a swarm.
template <int kBits>
CellArray<kBits> RandomCells(Rng& rng, int bins, int levels) {
  using Cells = CsrCells<kBits>;
  CellArray<kBits> a{bins, levels, {}};
  a.cells.resize(a.row_cells() * levels);
  for (size_t i = 0; i < a.cells.size(); ++i) {
    uint8_t& v = a.cells[i];
    switch (a.padding(i) ? 2 : rng.UniformInt(4)) {
      case 0: v = 0; break;
      case 1: v = Cells::kCap; break;
      case 2: v = Cells::kInfinity; break;
      default:
        v = static_cast<uint8_t>(rng.UniformInt(Cells::kInfinity + 1));
        break;
    }
  }
  return a;
}

// Every kernel at width kBits against scalar loops over unpacked cells.
template <int kBits>
void CheckKernelsAgainstScalarReference(uint64_t seed) {
  using Cells = CsrCells<kBits>;
  Rng rng(seed);
  for (const int bins : {1, 5, 64, 300}) {
    for (const int levels : {1, 7, 24, 32}) {
      SCOPED_TRACE(testing::Message() << kBits << "-bit cells, " << bins
                                      << " x " << levels);
      // Age: saturating increment below the cap, then re-pin owned cells.
      const CellArray<kBits> start = RandomCells<kBits>(rng, bins, levels);
      std::vector<int32_t> owned;
      for (size_t i = 0; i < start.cells.size(); ++i) {
        if (!start.padding(i) && rng.Bernoulli(0.1)) {
          owned.push_back(static_cast<int32_t>(i));
        }
      }
      std::vector<uint8_t> expected = start.cells;
      for (uint8_t& c : expected) {
        if (c < Cells::kCap) ++c;
      }
      for (const int32_t index : owned) expected[index] = 0;
      std::vector<uint8_t> aged = start.Pack();
      CsrAge<kBits>(aged, owned);
      EXPECT_EQ(CellArray<kBits>::Unpack(aged), expected);

      // One-way and two-way min-merge.
      const CellArray<kBits> a = RandomCells<kBits>(rng, bins, levels);
      const CellArray<kBits> b = RandomCells<kBits>(rng, bins, levels);
      std::vector<uint8_t> min_ab(a.cells.size());
      for (size_t i = 0; i < min_ab.size(); ++i) {
        min_ab[i] = std::min(a.cells[i], b.cells[i]);
      }
      std::vector<uint8_t> dst = a.Pack();
      CsrMergeMin<kBits>(dst, b.Pack());
      EXPECT_EQ(CellArray<kBits>::Unpack(dst), min_ab);
      std::vector<uint8_t> x = a.Pack();
      std::vector<uint8_t> y = b.Pack();
      CsrExchangeMin<kBits>(x, y);
      EXPECT_EQ(CellArray<kBits>::Unpack(x), min_ab);
      EXPECT_EQ(CellArray<kBits>::Unpack(y), min_ab);

      // Run total against a per-bin scan, with limits up to the cap.
      std::vector<uint8_t> limits(levels);
      for (uint8_t& l : limits) {
        l = static_cast<uint8_t>(rng.UniformInt(Cells::kCap + 1));
      }
      int64_t total_run = 0;
      for (int bin = 0; bin < bins; ++bin) {
        int run = 0;
        while (run < levels &&
               a.cells[run * a.row_cells() + bin] <= limits[run]) {
          ++run;
        }
        total_run += run;
      }
      EXPECT_EQ(CsrRunTotal<kBits>(a.Pack(), bins, limits), total_run);
    }
  }
}

TEST(CsrKernelTest, KernelsMatchScalarReference) {
  CheckKernelsAgainstScalarReference<8>(13);
}

TEST(CsrKernelTest, NibbleKernelsMatchScalarReference) {
  CheckKernelsAgainstScalarReference<4>(14);
}

TEST(CsrKernelTest, NibbleCapAndInfinityAreSticky) {
  // One byte holds two cells: low nibble first.
  std::vector<uint8_t> cells = {0x0d, 0xfe, 0xe0};  // (13, 0) (14, 15) (0, 14)
  CsrAge<4>(cells, {});
  EXPECT_EQ(cells, (std::vector<uint8_t>{0x1e, 0xfe, 0xe1}));
  CsrAge<4>(cells, std::vector<int32_t>{0, 5});
  EXPECT_EQ(cells, (std::vector<uint8_t>{0x20, 0xfe, 0x02}));
}

TEST(CsrKernelTest, NibblePaddingNeverCounts) {
  // Every real cell of a 5-bin nibble array reads 0 (all bits set); each
  // level row ends in a padding cell at infinity.
  for (const int levels : {1, 7, 32}) {
    CellArray<4> a{5, levels, {}};
    a.cells.resize(a.row_cells() * levels);
    for (size_t i = 0; i < a.cells.size(); ++i) {
      a.cells[i] = a.padding(i) ? CsrCells<4>::kInfinity : 0;
    }
    std::vector<uint8_t> packed = a.Pack();
    const std::vector<uint8_t> limits(levels, CsrCells<4>::kCap);
    EXPECT_EQ(CsrRunTotal<4>(packed, 5, limits), 5 * levels);
    for (int round = 0; round < 20; ++round) {
      CsrAge<4>(packed, {});
      CsrMergeMin<4>(packed, a.Pack());
    }
    for (size_t i = 0; i < a.cells.size(); ++i) {
      if (a.padding(i)) {
        EXPECT_EQ(CsrCells<4>::Get(packed.data(), i), CsrCells<4>::kInfinity);
      }
    }
  }
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

  // The swarm accessor agrees with the hash placement of owned objects.
  for (int64_t idx = 0; idx < 3; ++idx) {
    const SketchSlot slot =
        SketchPlace(HashCombine(0, static_cast<uint64_t>(idx)), p.hash_seed,
                    p.bins, p.levels - 1);
    EXPECT_EQ(swarm.counter(0, slot.bin, slot.level), 0);
  }

  // A node that received host 0's counters sends them back bin-major.
  std::vector<uint8_t> host0(static_cast<size_t>(p.bins) * p.levels);
  for (int b = 0; b < p.bins; ++b) {
    for (int k = 0; k < p.levels; ++k) {
      host0[static_cast<size_t>(b) * p.levels + k] = swarm.counter(0, b, k);
    }
  }
  CountSketchResetNode node;
  node.Init(p, /*host_key=*/1, /*multiplicity=*/0);
  const std::vector<uint8_t> payload = WirePayload(p.bins, p.levels, host0);
  BufReader in(payload);
  ASSERT_TRUE(node.MergeSerialized(&in).ok());

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
  EXPECT_EQ(node.SerializedBytes(), swarm.SerializedBytes());
  EXPECT_EQ(bytes, host0);
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
  EXPECT_TRUE(csr.DeriveBits(0) == cs.node(0).sketch());
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
  for (int b = 0; b < swarm.params().bins; ++b) {
    for (int k = 0; k < 4; ++k) {
      const uint8_t c = swarm.counter(0, b, k);
      if (c == kCsrInfinity) continue;  // never sourced
      EXPECT_LE(c, 7.0 + k / 4.0 + 6.0) << "bin " << b << " level " << k;
    }
  }
}

// A nibble swarm is the byte swarm seen through clamp(c) = min(c, 14)
// with infinity at 15 (file comment, "Cell width"): same estimates bit for
// bit, every counter equal under the clamp, through failures and joins.
TEST(CsrSwarmTest, NibbleSwarmMatchesByteSwarm) {
  const int n = 200;
  std::vector<int64_t> mults(n);
  for (int i = 0; i < n; ++i) mults[i] = 1 + i % 3;
  const auto clamp = [](uint8_t c) -> uint8_t {
    return c == kCsrInfinity ? c : std::min<uint8_t>(c, CsrCells<4>::kCap);
  };
  for (const int bins : {5, 64}) {
    for (const int levels : {7, 24}) {
      for (const bool cutoff : {true, false}) {
        for (const GossipMode mode :
             {GossipMode::kPush, GossipMode::kPushPull}) {
          SCOPED_TRACE(testing::Message()
                       << bins << " x " << levels << " cutoff " << cutoff
                       << " push/pull "
                       << (mode == GossipMode::kPushPull));
          CsrParams p;
          p.bins = bins;
          p.levels = levels;
          p.cutoff_enabled = cutoff;
          p.mode = mode;
          CsrSwarm bytes(mults, p, /*read_counter_max=*/kCsrCounterCap);
          CsrSwarm nibbles(mults, p, /*read_counter_max=*/0);
          ASSERT_EQ(bytes.cell_bits(), 8);
          ASSERT_EQ(nibbles.cell_bits(), 4);
          UniformEnvironment env(n);
          Population pop(n);
          Rng rng_bytes(21);
          Rng rng_nibbles(21);
          for (int round = 0; round < 40; ++round) {
            if (round == 12) {
              for (HostId id = 0; id < n; id += 2) pop.Kill(id);
            }
            if (round == 25) {
              for (HostId id = 0; id < n; id += 6) {
                pop.Revive(id);
                bytes.OnJoin(id);
                nibbles.OnJoin(id);
              }
            }
            bytes.RunRound(env, pop, rng_bytes);
            nibbles.RunRound(env, pop, rng_nibbles);
            int estimate_mismatches = 0;
            int counter_mismatches = 0;
            ForEachAliveId(pop, [&](HostId id) {
              if (bytes.EstimateCount(id) != nibbles.EstimateCount(id)) {
                ++estimate_mismatches;
              }
              for (int k = 0; k < levels; ++k) {
                const CsrLevelRow b = bytes.level_row(id, k);
                const CsrLevelRow nb = nibbles.level_row(id, k);
                for (int bin = 0; bin < bins; ++bin) {
                  if (clamp(b[bin]) != nb[bin]) ++counter_mismatches;
                }
              }
            });
            ASSERT_EQ(estimate_mismatches, 0) << "round " << round;
            ASSERT_EQ(counter_mismatches, 0) << "round " << round;
          }
        }
      }
    }
  }
}

TEST(CsrSwarmTest, CellWidthFollowsCutoffAndReads) {
  const std::vector<int64_t> ones(10, 1);
  CsrParams paper;  // f(k) = 7 + k/4 <= 12 over 24 levels
  EXPECT_EQ(CsrSwarm(ones, paper, 0).cell_bits(), 4);
  EXPECT_EQ(CsrSwarm(ones, paper, 13).cell_bits(), 4);
  EXPECT_EQ(CsrSwarm(ones, paper, 14).cell_bits(), 8);
  EXPECT_EQ(CsrSwarm(ones, paper).cell_bits(), 8);
  CsrParams high = paper;
  high.cutoff_base = 10.0;  // f(23) = 15.75
  EXPECT_EQ(CsrSwarm(ones, high, 0).cell_bits(), 8);
  high.cutoff_base = 14.0;  // "c <= 14" cannot tell 14 from 20 at 4 bits
  high.cutoff_slope = 0.0;
  EXPECT_EQ(CsrSwarm(ones, high, 0).cell_bits(), 8);
  high.cutoff_enabled = false;  // any finite counter: exact at 4 bits
  EXPECT_EQ(CsrSwarm(ones, high, 0).cell_bits(), 4);
}

}  // namespace
}  // namespace dynagg
