#include "agg/count_sketch_reset.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "common/hash.h"
#include "obs/telemetry.h"

namespace dynagg {

namespace {

// Kernel block width in cells. Full blocks pass their byte width as a
// compile-time constant, so each inner loop has a fixed trip count that
// GCC's -O2 cost model (which refuses epilogues and runtime alias checks)
// vectorizes; the one partial block at the end passes a runtime width and
// stays scalar. A 64-bin level row is exactly one block at either width.
constexpr size_t kLanes = 64;

template <int kBits>
constexpr size_t kBlockBytes = kLanes / CsrCells<kBits>::kPerByte;

// Calls block(offset, width) over bytes [0, n) in kBlockBytes-wide blocks.
template <int kBits, typename BlockFn>
inline void ForEachBlock(size_t n, BlockFn&& block) {
  using FullBlock = std::integral_constant<size_t, kBlockBytes<kBits>>;
  size_t i = 0;
  for (; i + kBlockBytes<kBits> <= n; i += kBlockBytes<kBits>) {
    block(i, FullBlock{});
  }
  if (i < n) block(i, n - i);
}

// One byte of cells aged: each cell below the cap advances by one. A
// nibble below 14 cannot carry into its neighbour.
template <int kBits>
inline uint8_t AgeByte(uint8_t x) {
  if constexpr (kBits == 8) {
    return x + (x < kCsrCounterCap ? 1 : 0);
  } else {
    return x + ((x & 0x0f) < 0x0e ? 0x01 : 0) +
           ((x & 0xf0) < 0xe0 ? 0x10 : 0);
  }
}

// One byte of cells merged: the cellwise minimum.
template <int kBits>
inline uint8_t MinByte(uint8_t a, uint8_t b) {
  if constexpr (kBits == 8) {
    return std::min(a, b);
  } else {
    return std::min<uint8_t>(a & 0x0f, b & 0x0f) |
           std::min<uint8_t>(a & 0xf0, b & 0xf0);
  }
}

template <int kBits, typename Width>
inline void AgeBlock(uint8_t* __restrict c, Width width) {
  for (size_t j = 0; j < width; ++j) c[j] = AgeByte<kBits>(c[j]);
}

template <int kBits, typename Width>
inline void MinBlock(uint8_t* __restrict dst, const uint8_t* __restrict src,
                     Width width) {
  for (size_t j = 0; j < width; ++j) dst[j] = MinByte<kBits>(dst[j], src[j]);
}

template <int kBits, typename Width>
inline void ExchangeMinBlock(uint8_t* __restrict a, uint8_t* __restrict b,
                             Width width) {
  for (size_t j = 0; j < width; ++j) {
    const uint8_t m = MinByte<kBits>(a[j], b[j]);
    a[j] = m;
    b[j] = m;
  }
}

// Run total (Σ_k of the bins whose run reaches level k; see the header)
// over `width` adjacent bytes (columns) of a level-major array with row
// stride `stride` bytes, one lane per cell: alive[l] stays 1 while lane l's
// run reaches the current level, and each level adds its alive lanes. A
// nibble row is split once per level, low nibbles into lanes [0, width)
// and high nibbles into [width, 2 * width), each taking the byte update.
template <int kBits, typename Width>
inline int64_t RunTotalBlock(const uint8_t* __restrict column, size_t stride,
                             std::span<const uint8_t> bit_limit,
                             Width width) {
  uint8_t alive[kLanes];
  for (size_t j = 0; j < CsrCells<kBits>::kPerByte * width; ++j) alive[j] = 1;
  int64_t total = 0;
  for (size_t k = 0; k < bit_limit.size(); ++k) {
    const uint8_t* __restrict row = column + k * stride;
    const uint8_t limit = bit_limit[k];
    // At most kLanes = 64 lanes are alive, so a byte holds the count.
    uint8_t count = 0;
    for (size_t j = 0; j < width; ++j) {
      if constexpr (kBits == 4) {
        alive[j] &= (row[j] & 0x0f) <= limit ? 1 : 0;
        alive[width + j] &= (row[j] >> 4) <= limit ? 1 : 0;
        count += alive[j] + alive[width + j];
      } else {
        alive[j] &= row[j] <= limit ? 1 : 0;
        count += alive[j];
      }
    }
    if (count == 0) break;
    total += count;
  }
  return total;
}

template <int kBits>
inline void PinCells(uint8_t* c, std::span<const int32_t> owned) {
  constexpr int kPerByte = CsrCells<kBits>::kPerByte;
  for (const int32_t index : owned) {
    const int shift = index % kPerByte * kBits;
    c[index / kPerByte] &=
        static_cast<uint8_t>(~(CsrCells<kBits>::kMask << shift));
  }
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

// Checks the geometry and returns the byte-scale bit limits: bit (b, k)
// is set iff N[b][k] <= limit[k], f(k) clamped to the cap, or the cap
// itself (any finite counter) with the cutoff disabled.
std::array<uint8_t, kCsrMaxLevels> CheckedBitLimits(const CsrParams& params) {
  DYNAGG_CHECK_GE(params.bins, 1);
  DYNAGG_CHECK_GE(params.levels, 1);
  DYNAGG_CHECK_LE(params.levels, kCsrMaxLevels);
  std::array<uint8_t, kCsrMaxLevels> limit{};
  for (int k = 0; k < params.levels; ++k) {
    const double f = params.cutoff_base + params.cutoff_slope * k;
    const double clamped = std::clamp(f, 0.0, double{kCsrCounterCap});
    limit[k] = params.cutoff_enabled ? static_cast<uint8_t>(clamped)
                                     : kCsrCounterCap;
  }
  return limit;
}

// Appends the sorted, distinct cell indices host `host_key` pins to 0, in
// rows of `row_cells` cells. Owned slots use the same deterministic
// placement as the static Count-Sketch, so both protocols register
// identical object populations (the cross-validation tests exploit this).
void AppendOwnedCells(const CsrParams& params, uint64_t host_key,
                      int64_t multiplicity, size_t row_cells,
                      std::vector<int32_t>* owned) {
  DYNAGG_CHECK_GE(multiplicity, 0);
  const size_t first = owned->size();
  for (int64_t idx = 0; idx < multiplicity; ++idx) {
    const uint64_t object_id =
        HashCombine(host_key, static_cast<uint64_t>(idx));
    const SketchSlot slot =
        SketchPlace(object_id, params.hash_seed, params.bins,
                    params.levels - 1);
    owned->push_back(
        static_cast<int32_t>(slot.level * row_cells + slot.bin));
  }
  const auto begin = owned->begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(begin, owned->end());
  owned->erase(std::unique(begin, owned->end()), owned->end());
}

// Nibble cells are exact (file comment, "Cell width") when every bit limit
// is <= 13 or the byte cap, and no caller reads a raw counter above 13.
int CellBitsFor(std::span<const uint8_t> bit_limit, int read_counter_max) {
  constexpr uint8_t kNibbleCap = CsrCells<4>::kCap;
  if (read_counter_max >= kNibbleCap) return 8;
  for (const uint8_t limit : bit_limit) {
    if (limit >= kNibbleCap && limit != kCsrCounterCap) return 8;
  }
  return 4;
}

// The FM estimate (m / phi) * 2^{avg R} from Σ_b R(b).
double FmEstimate(int64_t total_run, int bins) {
  const double mean_run = static_cast<double>(total_run) / bins;
  return static_cast<double>(bins) / kFmPhi * std::exp2(mean_run);
}

}  // namespace

template <int kBits>
void CsrAge(std::span<uint8_t> cells, std::span<const int32_t> owned) {
  // Saturating increment first, then restore the owned cells: cheaper
  // than testing membership per cell.
  uint8_t* c = cells.data();
  ForEachBlock<kBits>(cells.size(), [c](size_t i, auto width) {
    AgeBlock<kBits>(c + i, width);
  });
  PinCells<kBits>(c, owned);
}

template <int kBits>
void CsrMergeMin(std::span<uint8_t> dst, std::span<const uint8_t> src) {
  DYNAGG_DCHECK(dst.size() == src.size());
  uint8_t* d = dst.data();
  const uint8_t* s = src.data();
  ForEachBlock<kBits>(dst.size(), [d, s](size_t i, auto width) {
    MinBlock<kBits>(d + i, s + i, width);
  });
}

template <int kBits>
void CsrExchangeMin(std::span<uint8_t> a, std::span<uint8_t> b) {
  DYNAGG_DCHECK(a.size() == b.size());
  uint8_t* pa = a.data();
  uint8_t* pb = b.data();
  ForEachBlock<kBits>(a.size(), [pa, pb](size_t i, auto width) {
    ExchangeMinBlock<kBits>(pa + i, pb + i, width);
  });
}

template <int kBits>
int64_t CsrRunTotal(std::span<const uint8_t> cells, int bins,
                    std::span<const uint8_t> bit_limit) {
  const size_t stride = CsrCells<kBits>::RowBytes(bins);
  DYNAGG_DCHECK(cells.size() == stride * bit_limit.size());
  int64_t total = 0;
  ForEachBlock<kBits>(stride, [&](size_t i, auto width) {
    total += RunTotalBlock<kBits>(cells.data() + i, stride, bit_limit, width);
  });
  return total;
}

template void CsrAge<4>(std::span<uint8_t>, std::span<const int32_t>);
template void CsrAge<8>(std::span<uint8_t>, std::span<const int32_t>);
template void CsrMergeMin<4>(std::span<uint8_t>, std::span<const uint8_t>);
template void CsrMergeMin<8>(std::span<uint8_t>, std::span<const uint8_t>);
template void CsrExchangeMin<4>(std::span<uint8_t>, std::span<uint8_t>);
template void CsrExchangeMin<8>(std::span<uint8_t>, std::span<uint8_t>);
template int64_t CsrRunTotal<4>(std::span<const uint8_t>, int,
                                std::span<const uint8_t>);
template int64_t CsrRunTotal<8>(std::span<const uint8_t>, int,
                                std::span<const uint8_t>);

int64_t CsrSerializedBytes(int bins, int levels) {
  const auto payload = static_cast<uint64_t>(bins) * levels;
  return VarintLength(static_cast<uint64_t>(bins)) +
         VarintLength(static_cast<uint64_t>(levels)) + VarintLength(payload) +
         static_cast<int64_t>(payload);
}

// ------------------------------------------------------------------ node ---

void CountSketchResetNode::Init(const CsrParams& params, uint64_t host_key,
                                int64_t multiplicity) {
  bit_limit_ = CheckedBitLimits(params);
  bins_ = params.bins;
  levels_ = params.levels;
  counters_.assign(static_cast<size_t>(bins_) * levels_, kCsrInfinity);
  owned_.clear();
  AppendOwnedCells(params, host_key, multiplicity,
                   static_cast<size_t>(bins_), &owned_);
  PinCells<8>(counters_.data(), owned_);
}

void CountSketchResetNode::AgeCounters() { CsrAge<8>(counters_, owned_); }

void CountSketchResetNode::MergeFrom(const CountSketchResetNode& other) {
  DYNAGG_CHECK_EQ(bins_, other.bins_);
  DYNAGG_CHECK_EQ(levels_, other.levels_);
  if (this == &other) return;
  CsrMergeMin<8>(counters_, other.counters_);
}

void CountSketchResetNode::ExchangeMerge(CountSketchResetNode& a,
                                         CountSketchResetNode& b) {
  DYNAGG_CHECK_EQ(a.bins_, b.bins_);
  DYNAGG_CHECK_EQ(a.levels_, b.levels_);
  if (&a == &b) return;
  CsrExchangeMin<8>(a.counters_, b.counters_);
}

int CountSketchResetNode::RunLength(int bin) const {
  int run = 0;
  while (run < levels_ && BitSet(bin, run)) ++run;
  return run;
}

double CountSketchResetNode::EstimateCount() const {
  return FmEstimate(
      CsrRunTotal<8>(counters_, bins_,
                     std::span<const uint8_t>(bit_limit_.data(), levels_)),
      bins_);
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
  CsrMergeMin<8>(counters_, incoming);
  return Status::OK();
}

// ----------------------------------------------------------------- swarm ---

CsrSwarm::CsrSwarm(const std::vector<int64_t>& multiplicities,
                   const CsrParams& params, int read_counter_max)
    : params_(params),
      serialized_bytes_(CsrSerializedBytes(params.bins, params.levels)),
      bit_limit_(CheckedBitLimits(params)) {
  const std::span<uint8_t> limits(bit_limit_.data(), params_.levels);
  cell_bits_ = CellBitsFor(limits, read_counter_max);
  if (cell_bits_ == 4) {
    // The byte cap (the cutoff disabled: any finite counter) becomes the
    // nibble cap; every other limit is <= 13 and stays.
    for (uint8_t& limit : limits) limit = std::min(limit, CsrCells<4>::kCap);
  }
  level_bytes_ = cell_bits_ == 4 ? CsrCells<4>::RowBytes(params_.bins)
                                 : CsrCells<8>::RowBytes(params_.bins);
  host_bytes_ = level_bytes_ * params_.levels;
  const size_t n = multiplicities.size();
  cells_.assign(n * host_bytes_, 0xff);  // every cell at infinity
  owned_begin_.reserve(n + 1);
  owned_begin_.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    AppendOwnedCells(params_, /*host_key=*/i, multiplicities[i],
                     level_bytes_ * (8 / cell_bits_), &owned_);
    owned_begin_.push_back(owned_.size());
    PinOwned(static_cast<HostId>(i));
  }
}

void CsrSwarm::PinOwned(HostId id) {
  if (cell_bits_ == 4) {
    PinCells<4>(host_cells(id).data(), owned(id));
  } else {
    PinCells<8>(host_cells(id).data(), owned(id));
  }
}

void CsrSwarm::OnJoin(HostId id) {
  // The owned cells depend only on (id, multiplicity), so the rebirth
  // restores the constructor's state without rehashing.
  const std::span<uint8_t> cells = host_cells(id);
  std::fill(cells.begin(), cells.end(), uint8_t{0xff});
  PinOwned(id);
}

double CsrSwarm::EstimateCount(HostId id) const {
  const std::span<const uint8_t> limits(bit_limit_.data(), params_.levels);
  const int64_t total_run =
      cell_bits_ == 4 ? CsrRunTotal<4>(host_cells(id), params_.bins, limits)
                      : CsrRunTotal<8>(host_cells(id), params_.bins, limits);
  return FmEstimate(total_run, params_.bins);
}

FmSketch CsrSwarm::DeriveBits(HostId id) const {
  // Widened cells compare against cell-unit limits exactly: a nibble limit
  // is <= 14 and infinity widens to 255.
  FmSketch bits(params_.bins, params_.levels);
  for (int k = 0; k < params_.levels; ++k) {
    const CsrLevelRow row = level_row(id, k);
    for (int b = 0; b < params_.bins; ++b) {
      if (row[b] <= bit_limit_[k]) bits.InsertSlot(b, k);
    }
  }
  return bits;
}

template <int kBits>
void CsrSwarm::RunRoundAt(const Environment& env, const Population& pop,
                          Rng& rng) {
  {
    // Fig 5 phase 1: all hosts age their counters. Protocol work on host
    // state, timed under the apply phase in its own span (the exchange
    // walk below opens the next one).
    obs::ScopedPhase span(obs::Phase::kApply);
    ForEachAliveId(pop, [this](HostId i) {
      CsrAge<kBits>(host_cells(i), owned(i));
    });
  }
  // Phase 2: exchanges, applied sequentially in shuffled plan order
  // (min-merge is idempotent and monotone, so in-round ordering only
  // affects the speed of information spread, not the converged state).
  // Every matched exchange sends one counter array, two under push/pull.
  const PartnerPlan& plan = kernel_.PlanExchangeRound(env, pop, rng);
  const bool push_pull = params_.mode == GossipMode::kPushPull;
  if (meter_ != nullptr) {
    meter_->RecordMessages((push_pull ? 2 : 1) * plan.CountMatched(),
                           serialized_bytes_);
  }
  if (push_pull) {
    kernel_.ForEachExchange([this](HostId i, HostId peer) {
      if (i != peer) CsrExchangeMin<kBits>(host_cells(i), host_cells(peer));
    });
  } else {
    kernel_.ForEachExchange([this](HostId i, HostId peer) {
      if (i != peer) CsrMergeMin<kBits>(host_cells(peer), host_cells(i));
    });
  }
}

void CsrSwarm::RunRound(const Environment& env, const Population& pop,
                        Rng& rng) {
  if (cell_bits_ == 4) {
    RunRoundAt<4>(env, pop, rng);
  } else {
    RunRoundAt<8>(env, pop, rng);
  }
}

}  // namespace dynagg
