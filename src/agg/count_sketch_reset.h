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
// Layout. A node stores its counters level-major: the byte at offset
// k * bins + b is N[b][k], so each level is one contiguous row of `bins`
// counters. Aging and both min-merges are elementwise, so they run as the
// flat kernels below (CsrAge, CsrMergeMin, CsrExchangeMin) over the whole
// array. The wire format stays bin-major (byte b * levels + k is N[b][k]):
// Serialize and MergeSerialized transpose, so payloads are independent of
// the in-memory layout.
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

// Per-step kernels over one contiguous counter array. Every Count-Sketch-
// Reset code path (node, swarm, Invert-Average, the serialized facade)
// runs its per-round work through these; each compiles to vector code at
// -O2 on any target (fixed-width inner blocks over __restrict pointers).

/// Fig 5 step 2: every counter below kCsrCounterCap advances by one (the
/// cap and the infinity sentinel stay), then the `owned` offsets are
/// re-pinned to 0.
void CsrAge(std::span<uint8_t> counters, std::span<const int32_t> owned);

/// Fig 5 step 5: dst[i] = min(dst[i], src[i]). Sizes must match and the
/// spans must not overlap.
void CsrMergeMin(std::span<uint8_t> dst, std::span<const uint8_t> src);

/// Push/pull: a[i] = b[i] = min(a[i], b[i]). Sizes must match and the
/// spans must not overlap.
void CsrExchangeMin(std::span<uint8_t> a, std::span<uint8_t> b);

/// Σ over bins of the run of set bits from level 0, for a level-major
/// (bit_limit.size() x bins) counter array where bit (b, k) is set iff
/// counters[k * bins + b] <= bit_limit[k].
int64_t CsrRunTotal(std::span<const uint8_t> counters, int bins,
                    std::span<const uint8_t> bit_limit);

/// Per-host Count-Sketch-Reset state machine. Self-contained (carries its
/// geometry and cutoff table) so applications can embed it directly.
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
  /// The `bins` counters of one level, contiguous.
  std::span<const uint8_t> level_row(int level) const {
    return std::span<const uint8_t>(counters_).subspan(
        static_cast<size_t>(level) * bins_, bins_);
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
  int64_t SerializedBytes() const;

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

/// A population of Count-Sketch-Reset nodes.
class CsrSwarm {
 public:
  /// `multiplicities[i]` objects are registered for host i.
  CsrSwarm(const std::vector<int64_t>& multiplicities,
           const CsrParams& params);

  /// One gossip iteration: all alive hosts age their counters, then each
  /// initiates one exchange (min-merge; bidirectional under push/pull).
  /// Aging and the exchange walk are timed as two separate apply spans.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Estimated number of registered objects visible to host id.
  double EstimateCount(HostId id) const {
    return nodes_[id].EstimateCount();
  }
  int size() const { return static_cast<int>(nodes_.size()); }
  const CsrParams& params() const { return params_; }
  const CountSketchResetNode& node(HostId id) const { return nodes_[id]; }
  CountSketchResetNode& node(HostId id) { return nodes_[id]; }

  /// Churn-join reset: host `id` restarts from a fresh counter array —
  /// all counters at infinity except its own pinned slots
  /// (CountSketchResetNode::Init semantics). Its previously spread slots
  /// age out of the rest of the network within ~f(k) rounds, exactly the
  /// departure decay of Fig 9; the rebirth re-pins them.
  void OnJoin(HostId id);

  /// Optionally records over-the-air traffic (serialized counter arrays).
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

 private:
  std::vector<CountSketchResetNode> nodes_;
  std::vector<int64_t> multiplicities_;  // backs the churn-join re-Init
  CsrParams params_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_COUNT_SKETCH_RESET_H_
