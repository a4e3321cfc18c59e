// StreamSketchSwarm: gossiped frequency sketches over a keyed stream.
//
// Every host holds one frequency sketch (count-min or count-sketch, see
// freq_sketch.h) plus a push-sum weight and a total-mass scalar, packed
// into one flat per-host stride of doubles:
//
//   [ depth * width sketch counters | weight | mass ]
//
// Each round, the host first absorbs its keyed stream arrivals (the
// deterministic per-(host, round) batch from KeyedStreamGen: +1 into the
// sketch and the mass scalar per key), then gossips by mass splitting:
// every host keeps half its stride and pushes the other half to its
// planned partner — exactly PushSumSwarm's push round, but with the
// sketch counters riding along as extra mass components. Because
// sketches are linear, each host's sketch converges to
// (global stream sketch) * (weight / n), so n * counter / weight
// estimates the *global* frequency of a key from any single host.
//
// The state is stored block-major: each stride is cut into blocks of
// kBlockLanes doubles (the last block may be narrower), and block b of
// every host lives in its own contiguous region of n * width(b) doubles,
// host h at offset h * width(b), so one host's block is one or a few
// whole cache lines. Output column c of a destination depends only on
// column c of its sources, so the round is applied pull-mode one block
// at a time: the round kernel transposes the plan once into
// per-destination source lists, and each block pass writes every
// destination's block as +0.0 + 0.5*src_1 + 0.5*src_2 + ... into a spare
// region of the same width (a host that is not alive has no sources and
// copies its old block), then swaps the spare with the block's region
// (a pointer swap, no copy). There is one pass per full block; the
// partial last block is gathered in the last pass, alongside. The source
// blocks a few destinations ahead are prefetched: a 128 B block is too
// short for the hardware prefetcher to stream, as it did whole 2 KB rows.
// The swarm thus holds its state plus one spare region per block width
// (one full width, plus the partial last block's), not a second copy of
// the state.
//
// Determinism: arrivals are applied in alive order from per-(host, round)
// RNG streams, and the source lists keep the push loop's exact
// per-destination deposit order, so rounds are bit-identical to summing
// pushed halves into a zeroed inbox, at any intra_round_threads count.
// Sums are fixed-order.

#ifndef DYNAGG_STREAM_STREAM_SWARM_H_
#define DYNAGG_STREAM_STREAM_SWARM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"
#include "sim/workload.h"
#include "stream/freq_sketch.h"

namespace dynagg {
namespace stream {

/// Which sketch estimator the swarm's strides hold.
enum class SketchKind { kCountMin, kCountSketch };

struct StreamSwarmParams {
  SketchKind kind = SketchKind::kCountMin;
  int depth = 2;
  int width = 64;  // power of two
  uint64_t hash_seed = 0;
  int batch = 16;           // stream arrivals per host per round
  int arrival_rounds = -1;  // rounds with arrivals; -1 = every round
};

class StreamSketchSwarm {
 public:
  /// Lanes per state block: a compile-time constant, so full blocks run
  /// fixed-trip-count loops that GCC's -O2 cost model vectorizes.
  static constexpr size_t kBlockLanes = 16;

  StreamSketchSwarm(int num_hosts, const StreamSwarmParams& params,
                    const KeyedStreamGen& gen);

  /// Bytes the swarm allocates for `num_hosts` hosts of a depth x width
  /// sketch: every host's stride (cells + weight + mass), one n x
  /// kBlockLanes spare, one n x tail spare and the cache-line padding.
  static uint64_t StateBytes(int num_hosts, int depth, int width);

  // region_ points into arena_: moving keeps the buffer, copying would not.
  StreamSketchSwarm(StreamSketchSwarm&&) = default;
  StreamSketchSwarm& operator=(StreamSketchSwarm&&) = default;
  StreamSketchSwarm(const StreamSketchSwarm&) = delete;
  StreamSketchSwarm& operator=(const StreamSketchSwarm&) = delete;

  /// One gossip round: absorb this round's arrivals, then mass-split the
  /// strides over the planned partners (gathered per destination).
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Host `id`'s estimate of the TOTAL global stream mass (arrivals so
  /// far), via the push-sum mass/weight ratio.
  double Estimate(HostId id) const;

  /// Host `id`'s estimate of key `key`'s global frequency: the sketch
  /// point query rescaled by n / weight.
  double KeyEstimate(HostId id, uint64_t key) const;

  /// Total arrivals generated so far (the truth for Estimate).
  double TruthTotal() const { return truth_total_; }

  /// Exact per-key global counts (only populated while track_truth is on).
  const std::unordered_map<uint64_t, double>& TruthCounts() const {
    return truth_;
  }

  /// Disables the exact per-key truth map (throughput benchmarks).
  void set_track_truth(bool on) { track_truth_ = on; }

  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }
  void set_intra_round_threads(int threads) {
    kernel_.set_intra_round_threads(threads);
  }

  /// Churn-join reset: host `id` restarts with an empty sketch, weight 1
  /// and zero mass (the push-sum init state). The stream truth is global,
  /// so a rebirth does not rewind truth_ — the old incarnation's absorbed
  /// arrivals leave the gossiped mass, which is exactly the mass-loss
  /// churn exposes in mass-conserving gossip.
  void OnJoin(HostId id);

  int size() const { return n_; }
  SketchKind kind() const { return params_.kind; }
  const SketchHash& hash() const { return hash_; }

  /// Copies host `id`'s stride into `out` (stride() doubles): the sketch
  /// counters at out[0, cells), then weight and mass.
  void ReadHost(HostId id, std::span<double> out) const;
  size_t stride() const { return stride_; }

  /// Per-host sketch counter bytes (the accuracy/size frontier axis).
  size_t sketch_bytes() const { return hash_.cells() * sizeof(double); }
  /// Modelled gossip payload: the full stride (counters + weight + mass).
  int64_t message_bytes() const {
    return static_cast<int64_t>(stride_ * sizeof(double));
  }

 private:
  void AbsorbArrivals(const Population& pop);
  /// Width of block b of a `stride`-wide host: kBlockLanes, or less for
  /// the stride's last block.
  static size_t BlockWidth(size_t stride, size_t b) {
    return std::min(kBlockLanes, stride - b * kBlockLanes);
  }
  size_t BlockWidth(size_t b) const { return BlockWidth(stride_, b); }
  /// The arena layout for n hosts of `stride` doubles: the offset of every
  /// block region, then of the full-block spare and the tail spare, each
  /// on a cache line (appended to `offsets` when non-null); returns the
  /// doubles they span.
  static size_t CarveArena(size_t n, size_t stride,
                           std::vector<size_t>* offsets);
  /// Host `id`'s block b (BlockWidth(b) doubles).
  double* HostBlock(HostId id, size_t b) const {
    return region_[b] + static_cast<size_t>(id) * BlockWidth(b);
  }
  /// Host `id`'s stride element `lane`.
  double& Cell(HostId id, size_t lane) {
    return HostBlock(id, lane / kBlockLanes)[lane % kBlockLanes];
  }
  double Cell(HostId id, size_t lane) const {
    return HostBlock(id, lane / kBlockLanes)[lane % kBlockLanes];
  }

  int n_;
  StreamSwarmParams params_;
  KeyedStreamGen gen_;
  SketchHash hash_;
  size_t stride_;  // cells + 2 (weight, mass)
  // Every block region and both spares, 64-byte aligned: block b of host h
  // is region_[b][h * BlockWidth(b) ...]. A round swaps each region with
  // the spare of its width.
  std::vector<double> arena_;
  std::vector<double*> region_;
  double* spare_ = nullptr;       // n * kBlockLanes (full blocks)
  double* tail_spare_ = nullptr;  // n * width of a partial last block
  std::vector<uint64_t> batch_keys_;  // FillBatch scratch
  std::unordered_map<uint64_t, double> truth_;
  double truth_total_ = 0.0;
  bool track_truth_ = true;
  int round_ = 0;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace stream
}  // namespace dynagg

#endif  // DYNAGG_STREAM_STREAM_SWARM_H_
