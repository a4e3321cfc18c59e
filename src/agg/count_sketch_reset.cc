#include "agg/count_sketch_reset.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "common/hash.h"
#include "obs/telemetry.h"

namespace dynagg {

namespace {

// Kernel block width. Full blocks pass it as a compile-time constant, so
// each inner loop has a fixed trip count that GCC's -O2 cost model (which
// refuses epilogues and runtime alias checks) vectorizes; the one partial
// block at the end passes a runtime width and stays scalar.
constexpr size_t kLanes = 64;
using FullBlock = std::integral_constant<size_t, kLanes>;

// Calls block(offset, width) over [0, n) in kLanes-wide blocks.
template <typename BlockFn>
inline void ForEachBlock(size_t n, BlockFn&& block) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) block(i, FullBlock{});
  if (i < n) block(i, n - i);
}

template <typename Width>
inline void AgeBlock(uint8_t* __restrict c, Width width) {
  for (size_t j = 0; j < width; ++j) c[j] += c[j] < kCsrCounterCap ? 1 : 0;
}

template <typename Width>
inline void MinBlock(uint8_t* __restrict dst, const uint8_t* __restrict src,
                     Width width) {
  for (size_t j = 0; j < width; ++j) dst[j] = std::min(dst[j], src[j]);
}

template <typename Width>
inline void ExchangeMinBlock(uint8_t* __restrict a, uint8_t* __restrict b,
                             Width width) {
  for (size_t j = 0; j < width; ++j) {
    const uint8_t m = std::min(a[j], b[j]);
    a[j] = m;
    b[j] = m;
  }
}

// Run total over `width` adjacent bins (columns) of a level-major array
// with row stride `bins`: alive[j] stays 1 while bin j's run reaches the
// current level, run[j] counts the levels it reached.
template <typename Width>
inline int64_t RunTotalBlock(const uint8_t* __restrict column, size_t bins,
                             std::span<const uint8_t> bit_limit,
                             Width width) {
  uint8_t alive[kLanes];
  uint8_t run[kLanes];
  for (size_t j = 0; j < width; ++j) {
    alive[j] = 1;
    run[j] = 0;
  }
  for (size_t k = 0; k < bit_limit.size(); ++k) {
    const uint8_t* __restrict row = column + k * bins;
    const uint8_t limit = bit_limit[k];
    uint8_t any = 0;
    for (size_t j = 0; j < width; ++j) {
      alive[j] &= row[j] <= limit ? 1 : 0;
      run[j] += alive[j];
      any |= alive[j];
    }
    if (any == 0) break;
  }
  int64_t total = 0;
  for (size_t j = 0; j < width; ++j) total += run[j];
  return total;
}

// dst (cols x rows) = src (rows x cols) transposed, both row-major: moves
// counters between the level-major node layout and the bin-major wire.
void Transpose(const uint8_t* __restrict src, size_t rows, size_t cols,
               uint8_t* __restrict dst) {
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

int VarintLength(uint64_t v) {
  int len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

}  // namespace

void CsrAge(std::span<uint8_t> counters, std::span<const int32_t> owned) {
  // Saturating increment first, then restore the owned slots: cheaper than
  // testing membership per byte.
  uint8_t* c = counters.data();
  ForEachBlock(counters.size(),
               [c](size_t i, auto width) { AgeBlock(c + i, width); });
  for (const int32_t offset : owned) c[offset] = 0;
}

void CsrMergeMin(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  DYNAGG_DCHECK(dst.size() == src.size());
  uint8_t* d = dst.data();
  const uint8_t* s = src.data();
  ForEachBlock(dst.size(),
               [d, s](size_t i, auto width) { MinBlock(d + i, s + i, width); });
}

void CsrExchangeMin(std::span<uint8_t> a, std::span<uint8_t> b) {
  DYNAGG_DCHECK(a.size() == b.size());
  uint8_t* pa = a.data();
  uint8_t* pb = b.data();
  ForEachBlock(a.size(), [pa, pb](size_t i, auto width) {
    ExchangeMinBlock(pa + i, pb + i, width);
  });
}

int64_t CsrRunTotal(std::span<const uint8_t> counters, int bins,
                    std::span<const uint8_t> bit_limit) {
  DYNAGG_DCHECK(counters.size() ==
                static_cast<size_t>(bins) * bit_limit.size());
  const auto stride = static_cast<size_t>(bins);
  int64_t total = 0;
  ForEachBlock(stride, [&](size_t i, auto width) {
    total += RunTotalBlock(counters.data() + i, stride, bit_limit, width);
  });
  return total;
}

void CountSketchResetNode::Init(const CsrParams& params, uint64_t host_key,
                                int64_t multiplicity) {
  DYNAGG_CHECK_GE(params.bins, 1);
  DYNAGG_CHECK_GE(params.levels, 1);
  DYNAGG_CHECK_LE(params.levels, kCsrMaxLevels);
  DYNAGG_CHECK_GE(multiplicity, 0);
  bins_ = params.bins;
  levels_ = params.levels;
  for (int k = 0; k < levels_; ++k) {
    const double f = params.cutoff_base + params.cutoff_slope * k;
    const double clamped = std::clamp(f, 0.0, double{kCsrCounterCap});
    bit_limit_[k] = params.cutoff_enabled ? static_cast<uint8_t>(clamped)
                                          : kCsrCounterCap;
  }
  counters_.assign(static_cast<size_t>(bins_) * levels_, kCsrInfinity);
  owned_.clear();
  // Owned slots use the same deterministic placement as the static
  // Count-Sketch, so both protocols register identical object populations
  // (this is exploited by the cross-validation tests).
  for (int64_t idx = 0; idx < multiplicity; ++idx) {
    const uint64_t object_id =
        HashCombine(host_key, static_cast<uint64_t>(idx));
    const SketchSlot slot =
        SketchPlace(object_id, params.hash_seed, bins_, levels_ - 1);
    owned_.push_back(OffsetOf(slot.bin, slot.level));
  }
  std::sort(owned_.begin(), owned_.end());
  owned_.erase(std::unique(owned_.begin(), owned_.end()), owned_.end());
  for (const int32_t offset : owned_) counters_[offset] = 0;
}

void CountSketchResetNode::AgeCounters() { CsrAge(counters_, owned_); }

void CountSketchResetNode::MergeFrom(const CountSketchResetNode& other) {
  DYNAGG_CHECK_EQ(bins_, other.bins_);
  DYNAGG_CHECK_EQ(levels_, other.levels_);
  if (this == &other) return;
  CsrMergeMin(counters_, other.counters_);
}

void CountSketchResetNode::ExchangeMerge(CountSketchResetNode& a,
                                         CountSketchResetNode& b) {
  DYNAGG_CHECK_EQ(a.bins_, b.bins_);
  DYNAGG_CHECK_EQ(a.levels_, b.levels_);
  if (&a == &b) return;
  CsrExchangeMin(a.counters_, b.counters_);
}

int CountSketchResetNode::RunLength(int bin) const {
  int run = 0;
  while (run < levels_ && BitSet(bin, run)) ++run;
  return run;
}

double CountSketchResetNode::EstimateCount() const {
  const int64_t total_run = CsrRunTotal(
      counters_, bins_, std::span<const uint8_t>(bit_limit_.data(), levels_));
  const double mean_run = static_cast<double>(total_run) / bins_;
  return static_cast<double>(bins_) / kFmPhi * std::exp2(mean_run);
}

FmSketch CountSketchResetNode::DeriveBits() const {
  FmSketch bits(bins_, levels_);
  for (int b = 0; b < bins_; ++b) {
    for (int k = 0; k < levels_; ++k) {
      if (BitSet(b, k)) bits.InsertSlot(b, k);
    }
  }
  return bits;
}

int64_t CountSketchResetNode::SerializedBytes() const {
  const auto payload = static_cast<uint64_t>(counters_.size());
  return VarintLength(static_cast<uint64_t>(bins_)) +
         VarintLength(static_cast<uint64_t>(levels_)) +
         VarintLength(payload) + static_cast<int64_t>(payload);
}

void CountSketchResetNode::Serialize(BufWriter* out) const {
  out->PutVarint(static_cast<uint64_t>(bins_));
  out->PutVarint(static_cast<uint64_t>(levels_));
  std::vector<uint8_t> wire(counters_.size());
  Transpose(counters_.data(), levels_, bins_, wire.data());
  out->PutBytes(std::string_view(reinterpret_cast<const char*>(wire.data()),
                                 wire.size()));
}

Status CountSketchResetNode::MergeSerialized(BufReader* in) {
  uint64_t bins = 0;
  uint64_t levels = 0;
  DYNAGG_RETURN_IF_ERROR(in->ReadVarint(&bins));
  DYNAGG_RETURN_IF_ERROR(in->ReadVarint(&levels));
  if (static_cast<int>(bins) != bins_ ||
      static_cast<int>(levels) != levels_) {
    return Status::InvalidArgument("CSR: geometry mismatch");
  }
  std::vector<uint8_t> wire;
  DYNAGG_RETURN_IF_ERROR(in->ReadBytes(&wire));
  if (wire.size() != counters_.size()) {
    return Status::Corruption("CSR: counter payload size mismatch");
  }
  std::vector<uint8_t> incoming(wire.size());
  Transpose(wire.data(), bins_, levels_, incoming.data());
  CsrMergeMin(counters_, incoming);
  return Status::OK();
}

CsrSwarm::CsrSwarm(const std::vector<int64_t>& multiplicities,
                   const CsrParams& params)
    : nodes_(multiplicities.size()),
      multiplicities_(multiplicities),
      params_(params) {
  for (size_t i = 0; i < multiplicities.size(); ++i) {
    nodes_[i].Init(params_, /*host_key=*/i, multiplicities[i]);
  }
}

void CsrSwarm::OnJoin(HostId id) {
  nodes_[id].Init(params_, /*host_key=*/static_cast<uint64_t>(id),
                  multiplicities_[id]);
}

void CsrSwarm::RunRound(const Environment& env, const Population& pop,
                        Rng& rng) {
  {
    // Fig 5 phase 1: all hosts age their counters. Protocol work on host
    // state, timed under the apply phase in its own span (the exchange
    // walk below opens the next one).
    obs::ScopedPhase span(obs::Phase::kApply);
    ForEachAliveId(pop, [this](HostId i) { nodes_[i].AgeCounters(); });
  }
  // Phase 2: exchanges, applied sequentially in shuffled plan order
  // (min-merge is idempotent and monotone, so in-round ordering only
  // affects the speed of information spread, not the converged state).
  kernel_.PlanExchangeRound(env, pop, rng);
  kernel_.ForEachExchange([this](HostId i, HostId peer) {
    if (meter_ != nullptr) {
      meter_->RecordMessage(nodes_[i].SerializedBytes());
    }
    if (params_.mode == GossipMode::kPushPull) {
      if (meter_ != nullptr) {
        meter_->RecordMessage(nodes_[peer].SerializedBytes());
      }
      CountSketchResetNode::ExchangeMerge(nodes_[i], nodes_[peer]);
    } else {
      nodes_[peer].MergeFrom(nodes_[i]);
    }
  });
}

}  // namespace dynagg
