// Count-Sketch-Reset: dynamic distributed counting (Section IV.A, Fig 5).
//
// Static counting sketches cannot self-heal: a bit, once set, may be sourced
// by any number of hosts, so no host can locally decide that its sourcing
// population has departed. Count-Sketch-Reset replaces each bit with an age
// counter N[n][k]:
//   - every host owns the slots it would have set in the static sketch and
//     pins their counters to 0;
//   - each round every non-owned counter is incremented, then gossip
//     exchanges take the elementwise minimum;
//   - a slot's *bit* is considered set iff its counter is at most the cutoff
//     f(k) = cutoff_base + cutoff_slope * k (paper: 7 + k/4 under uniform
//     gossip).
// A counter therefore measures the gossip age of the youngest message from
// any live owner. Because the number of owners of level k scales as
// n / 2^(k+1), the expected propagation age grows linearly in k and is
// *independent of network size* — which is what makes the timeout
// network-size-agnostic (Section IV). When every owner of a slot departs,
// its counters age past f(k) everywhere and the slot decays out within
// ~f(k) rounds (Fig 9).
//
// Layout. Counters are stored level-major: the cell at index k * row + b is
// N[b][k], so each level is one contiguous row of `bins` cells. Aging and
// both min-merges are elementwise, so they run as the flat kernels below
// (CsrAge, CsrMergeMin, CsrExchangeMin) over a host's whole array. A
// CountSketchResetNode owns its array; a CsrSwarm keeps every host's array
// in one arena (n x row bytes, host-major) with the owned cell indices as
// one CSR (owned_begin_ + owned_) and one shared bit-limit table, so a
// round streams one contiguous block instead of chasing a heap vector per
// host. The wire format stays bin-major with one byte per counter (byte
// b * levels + k is N[b][k]): Serialize and MergeSerialized transpose, so
// payloads are independent of the in-memory layout.
//
// Cell width. Byte cells (8 bits) hold a counter as is: cap 254, infinity
// 255. Nibble cells (4 bits) pack two counters per byte, low nibble first,
// with cap 14 and infinity 15; a row of odd `bins` ends in a padding cell
// held at infinity. The kernels are one set templated on the width. A swarm
// uses nibbles whenever that is exact, which it derives from its cutoff
// table and from the largest raw counter its caller reads:
//   clamp(c) = min(c, 14) for finite c, clamp(255) = 15
// commutes with the saturating +1 (any c >= 14 ages to a value >= 14) and
// with min (clamp is monotone), and maps the owned pin 0 to 0. So a nibble
// swarm holds clamp(N) of the byte swarm at every step. A bit test
// "c <= L" reads the same through the clamp when L <= 13, and so does
// "finite" (L = the byte cap, i.e. the cutoff disabled) with L = 14. Hence
// nibble cells are exact when every bit limit is <= 13 or the byte cap, and
// no caller reads a raw counter above 13. The paper's f(k) = 7 + k/4 stays
// <= 13 below level 28, so its swarms run at half the bytes.
//
// Run total. The FM estimate needs Σ_b R(b), where R(b) is the run of set
// bits from level 0 in bin b. Counting the same pairs (b, k) with k < R(b)
// level by level gives
//   Σ_b R(b) = Σ_k #{b : bits 0..k of bin b are all set},
// which CsrRunTotal evaluates one level-k row at a time with a branch-free
// compare against the row's bit limit, stopping at the first level that no
// bin's run reaches. The total is an exact integer, so the estimate equals
// the per-bin scan bit for bit.

#ifndef DYNAGG_AGG_COUNT_SKETCH_RESET_H_
#define DYNAGG_AGG_COUNT_SKETCH_RESET_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/aggregate.h"
#include "agg/fm_sketch.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "common/wire.h"
#include "env/environment.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {

/// Counter value meaning "never heard" (infinity in Fig 5).
inline constexpr uint8_t kCsrInfinity = 255;
/// Counters saturate here so they can never roll into the sentinel.
inline constexpr uint8_t kCsrCounterCap = 254;
/// Upper bound on levels so nodes can keep the cutoff table inline.
inline constexpr int kCsrMaxLevels = 32;

/// Count-Sketch-Reset configuration.
struct CsrParams {
  /// Stochastic-averaging bins m (64 -> ~9.7% expected error).
  int bins = 64;
  /// Counter levels per bin (k in [0, levels)). Must be <= kCsrMaxLevels.
  int levels = 24;
  /// Cutoff f(k) = cutoff_base + cutoff_slope * k. The paper derives
  /// 7 + k/4 experimentally for uniform gossip (Fig 6).
  double cutoff_base = 7.0;
  double cutoff_slope = 0.25;
  /// With the cutoff disabled any finite counter counts as a set bit: the
  /// protocol degenerates to static Count-Sketch ("propagation limiting
  /// off" in Fig 9 / "reversion off" in Fig 11).
  bool cutoff_enabled = true;
  GossipMode mode = GossipMode::kPushPull;
  /// Hash seed shared by all hosts.
  uint64_t hash_seed = 0x5eedc0de5eedc0deull;
};

/// Geometry of counter cells `kBits` wide (8: one counter per byte; 4: two
/// per byte, low nibble first). See "Cell width" in the file comment.
template <int kBits>
struct CsrCells {
  static_assert(kBits == 4 || kBits == 8);
  static constexpr int kPerByte = 8 / kBits;
  static constexpr uint8_t kMask = kBits == 8 ? 0xff : 0x0f;
  /// "Never heard" at this width; a byte of 0xff is infinity in every cell.
  static constexpr uint8_t kInfinity = kMask;
  /// Counters saturate here so they can never roll into the sentinel.
  static constexpr uint8_t kCap = kMask - 1;

  /// Bytes of one level row of `bins` cells (padded to whole bytes).
  static constexpr size_t RowBytes(int bins) {
    return (static_cast<size_t>(bins) + kPerByte - 1) / kPerByte;
  }
  /// Cell `index` of a cell array.
  static uint8_t Get(const uint8_t* bytes, size_t index) {
    return static_cast<uint8_t>(
               bytes[index / kPerByte] >> (index % kPerByte * kBits)) &
           kMask;
  }
};

// Per-step kernels over one contiguous array of `kBits`-wide cells (see
// CsrCells; kBits is 4 or 8). Every Count-Sketch-Reset code path (node,
// swarm, Invert-Average, the serialized facade) runs its per-round work
// through these; each compiles to vector code at -O2 on any target
// (fixed-width inner blocks over __restrict pointers).

/// Fig 5 step 2: every cell below the cap advances by one (the cap and the
/// infinity sentinel stay), then the `owned` cell indices are re-pinned
/// to 0.
template <int kBits>
void CsrAge(std::span<uint8_t> cells, std::span<const int32_t> owned);

/// Fig 5 step 5: dst[i] = min(dst[i], src[i]) cell by cell. Sizes must
/// match and the spans must not overlap.
template <int kBits>
void CsrMergeMin(std::span<uint8_t> dst, std::span<const uint8_t> src);

/// Push/pull: a[i] = b[i] = min(a[i], b[i]) cell by cell. Sizes must match
/// and the spans must not overlap.
template <int kBits>
void CsrExchangeMin(std::span<uint8_t> a, std::span<uint8_t> b);

/// Σ over bins of the run of set bits from level 0, for a level-major
/// array of bit_limit.size() rows of RowBytes(bins) bytes, where bit
/// (b, k) is set iff cell b of row k is <= bit_limit[k]. Padding cells
/// hold infinity, which exceeds every limit, so they never count.
template <int kBits>
int64_t CsrRunTotal(std::span<const uint8_t> cells, int bins,
                    std::span<const uint8_t> bit_limit);

/// Size in bytes of a serialized counter array (over-the-air payload).
int64_t CsrSerializedBytes(int bins, int levels);

/// Per-host Count-Sketch-Reset state machine over byte cells.
/// Self-contained (carries its geometry and cutoff table) so applications
/// can embed it directly; it backs the serialized facade and wire format.
class CountSketchResetNode {
 public:
  CountSketchResetNode() = default;

  /// (Re)initializes: all counters at infinity except the `multiplicity`
  /// owned slots (derived deterministically from `host_key`), which are
  /// pinned to 0. multiplicity = 1 counts hosts; = v registers value v.
  void Init(const CsrParams& params, uint64_t host_key, int64_t multiplicity);

  /// Fig 5 step 2: increments every non-owned counter (saturating), keeping
  /// owned slots at 0.
  void AgeCounters();

  /// Fig 5 step 5: elementwise minimum with a received array.
  void MergeFrom(const CountSketchResetNode& other);

  /// Push/pull variant: both arrays become the elementwise minimum.
  static void ExchangeMerge(CountSketchResetNode& a, CountSketchResetNode& b);

  /// Fig 5 steps 6-7: derive bits via the cutoff and apply the FM estimate
  /// (m / phi) * 2^{avg R}. Returns the estimated number of *objects*;
  /// callers registering multiplicity v divide accordingly.
  double EstimateCount() const;

  /// Run of set bits from level 0 in `bin` under the cutoff rule.
  int RunLength(int bin) const;

  int bins() const { return bins_; }
  int levels() const { return levels_; }
  /// Offset of (bin, level) in counters(): level-major.
  int32_t OffsetOf(int bin, int level) const { return level * bins_ + bin; }
  /// Inverse of OffsetOf.
  SketchSlot SlotAt(int32_t offset) const {
    return SketchSlot{offset % bins_, offset / bins_};
  }
  uint8_t counter(int bin, int level) const {
    return counters_[OffsetOf(bin, level)];
  }
  /// The whole array, level-major (see the file comment).
  const std::vector<uint8_t>& counters() const { return counters_; }
  /// Sorted offsets (into counters()) of the slots this host pins to 0.
  const std::vector<int32_t>& owned_slots() const { return owned_; }
  /// Whether (bin, level)'s bit is set under the cutoff rule.
  bool BitSet(int bin, int level) const {
    return counter(bin, level) <= bit_limit_[level];
  }

  /// Derives the equivalent bit sketch (diagnostics / tests).
  FmSketch DeriveBits() const;

  /// Size in bytes of the Serialize output (over-the-air payload size).
  int64_t SerializedBytes() const {
    return CsrSerializedBytes(bins_, levels_);
  }

  /// Serializes the counter array (geometry + raw bytes, bin-major). Owned
  /// slots are host-local and not part of the wire format.
  void Serialize(BufWriter* out) const;
  /// Merges a serialized (bin-major) counter array into this node
  /// (geometry must match). This is the receive path of the facade API.
  Status MergeSerialized(BufReader* in);

 private:
  int bins_ = 0;
  int levels_ = 0;
  // Bit (b, k) is set iff N[b][k] <= bit_limit_[k]: f(k) clamped to the
  // cap, or the cap itself (any finite counter) with the cutoff disabled.
  std::array<uint8_t, kCsrMaxLevels> bit_limit_{};
  std::vector<uint8_t> counters_;  // levels_ x bins_, level-major
  std::vector<int32_t> owned_;     // sorted offsets into counters_
};

/// Read-only view of one level row of a CsrSwarm host: row[b] is N[b][k]
/// on the byte scale (kCsrInfinity = never heard), whatever the cell width.
class CsrLevelRow {
 public:
  CsrLevelRow(const uint8_t* bytes, int bins, int cell_bits)
      : bytes_(bytes), bins_(bins), cell_bits_(cell_bits) {}

  int size() const { return bins_; }
  uint8_t operator[](int bin) const {
    if (cell_bits_ == 8) return bytes_[bin];
    const uint8_t cell = CsrCells<4>::Get(bytes_, static_cast<size_t>(bin));
    return cell == CsrCells<4>::kInfinity ? kCsrInfinity : cell;
  }

 private:
  const uint8_t* bytes_;
  int bins_;
  int cell_bits_;
};

/// A population of Count-Sketch-Reset hosts sharing one counter arena (see
/// "Layout" and "Cell width" in the file comment).
class CsrSwarm {
 public:
  /// `multiplicities[i]` objects are registered for host i.
  /// `read_counter_max` is the largest raw counter value the caller reads
  /// exactly through counter() / level_row(): 0 when it reads only
  /// estimates and bits. The cell width follows from it and the cutoff.
  CsrSwarm(const std::vector<int64_t>& multiplicities,
           const CsrParams& params, int read_counter_max = kCsrCounterCap);

  /// One gossip iteration: all alive hosts age their counters, then each
  /// initiates one exchange (min-merge; bidirectional under push/pull).
  /// Aging and the exchange walk are timed as two separate apply spans.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Estimated number of registered objects visible to host id.
  double EstimateCount(HostId id) const;
  int size() const { return static_cast<int>(owned_begin_.size()) - 1; }
  const CsrParams& params() const { return params_; }
  /// 4 (nibble cells) or 8 (byte cells).
  int cell_bits() const { return cell_bits_; }
  /// Bytes of one host's counter array in the arena.
  size_t host_bytes() const { return host_bytes_; }

  /// N[bin][level] of host id on the byte scale: exact up to the
  /// constructor's read_counter_max; larger finite values read as some
  /// value above it, and infinity reads kCsrInfinity.
  uint8_t counter(HostId id, int bin, int level) const {
    return level_row(id, level)[bin];
  }
  /// Host id's `bins` counters of one level.
  CsrLevelRow level_row(HostId id, int level) const {
    return CsrLevelRow(cells_.data() + static_cast<size_t>(id) * host_bytes_ +
                           static_cast<size_t>(level) * level_bytes_,
                       params_.bins, cell_bits_);
  }
  /// Derives host id's equivalent bit sketch (diagnostics / tests).
  FmSketch DeriveBits(HostId id) const;
  /// Size in bytes of one serialized counter array (one gossip payload).
  int64_t SerializedBytes() const { return serialized_bytes_; }

  /// Churn-join reset: host `id` restarts from a fresh counter array —
  /// all counters at infinity except its own pinned slots
  /// (CountSketchResetNode::Init semantics). Its previously spread slots
  /// age out of the rest of the network within ~f(k) rounds, exactly the
  /// departure decay of Fig 9; the rebirth re-pins them.
  void OnJoin(HostId id);

  /// Optionally records over-the-air traffic (serialized counter arrays).
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

 private:
  template <int kBits>
  void RunRoundAt(const Environment& env, const Population& pop, Rng& rng);
  // Re-pins host id's owned cells to 0.
  void PinOwned(HostId id);

  std::span<uint8_t> host_cells(HostId id) {
    return {cells_.data() + static_cast<size_t>(id) * host_bytes_,
            host_bytes_};
  }
  std::span<const uint8_t> host_cells(HostId id) const {
    return {cells_.data() + static_cast<size_t>(id) * host_bytes_,
            host_bytes_};
  }
  std::span<const int32_t> owned(HostId id) const {
    return std::span<const int32_t>(owned_).subspan(
        owned_begin_[id], owned_begin_[id + 1] - owned_begin_[id]);
  }

  CsrParams params_;
  int cell_bits_ = 8;
  size_t level_bytes_ = 0;  // one level row, padded to whole bytes
  size_t host_bytes_ = 0;   // levels x level_bytes_
  int64_t serialized_bytes_ = 0;
  // Bit (b, k) is set iff cell (b, k) <= bit_limit_[k], in cell units.
  std::array<uint8_t, kCsrMaxLevels> bit_limit_{};
  std::vector<uint8_t> cells_;        // n x host_bytes_, host-major
  std::vector<size_t> owned_begin_;   // n + 1 offsets into owned_
  std::vector<int32_t> owned_;        // per host: sorted cell indices
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_COUNT_SKETCH_RESET_H_
