#include "stream/stream_swarm.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/macros.h"
#include "obs/telemetry.h"

namespace dynagg {
namespace stream {

namespace {

constexpr size_t kBlockLanes = StreamSketchSwarm::kBlockLanes;
constexpr size_t kLineDoubles = 64 / sizeof(double);
using FullBlock = std::integral_constant<size_t, kBlockLanes>;

// out[0, width) = +0.0 + 0.5*src_1 + 0.5*src_2 + ..., where src_i is the
// i-th source's block in `region` (host h at region + h * width). The
// leading +0.0 keeps the result bit-identical to summing the halves into
// a zeroed buffer: it maps a -0.0 half to +0.0 as that sum does. A host
// with no sources is not alive and keeps its block: out = its own block.
template <typename Width>
inline void GatherBlock(double* __restrict out, const double* region,
                        HostId dst, std::span<const HostId> sources,
                        Width width) {
  if (sources.empty()) {
    const double* own = region + static_cast<size_t>(dst) * width;
    std::copy(own, own + width, out);
    return;
  }
  double acc[kBlockLanes];
  const double* __restrict first =
      region + static_cast<size_t>(sources[0]) * width;
  for (size_t j = 0; j < width; ++j) acc[j] = 0.0 + 0.5 * first[j];
  for (size_t i = 1; i < sources.size(); ++i) {
    const double* __restrict src =
        region + static_cast<size_t>(sources[i]) * width;
    for (size_t j = 0; j < width; ++j) acc[j] += 0.5 * src[j];
  }
  for (size_t j = 0; j < width; ++j) out[j] = acc[j];
}

// Source-list entries ahead of the current destination's whose blocks
// GatherPass prefetches (about 16 destinations): a 128 B block is too
// short for the hardware prefetcher to stream, as it did whole 2 KB rows.
constexpr uint32_t kPrefetchAhead = 32;

// The blocks one pass gathers, each from its region into its spare at the
// same offsets: a full block (kBlockLanes wide) and, in a round's last
// pass, the partial tail block. A null region skips that block.
struct PassBlocks {
  const double* full = nullptr;
  double* full_spare = nullptr;
  const double* tail = nullptr;
  double* tail_spare = nullptr;
  size_t tail_width = 0;
};

// One pass over destinations [lo, hi).
void GatherPass(const PassBlocks& pass, HostId lo, HostId hi,
                const RoundKernel::PushSources& lists) {
  const HostId* const sources = lists.sources;
  const uint32_t end = lists.begin[hi];
  for (HostId dst = lo; dst < hi; ++dst) {
    const uint32_t first = lists.begin[dst];
    const uint32_t last = lists.begin[dst + 1];
    for (uint32_t k = first + kPrefetchAhead;
         k < last + kPrefetchAhead && k < end; ++k) {
      const size_t src = static_cast<size_t>(sources[k]);
      if (pass.full != nullptr) {
        const char* block =
            reinterpret_cast<const char*>(pass.full + src * kBlockLanes);
        for (size_t at = 0; at < kBlockLanes * sizeof(double); at += 64) {
          __builtin_prefetch(block + at);
        }
      }
      if (pass.tail != nullptr) {
        const double* block = pass.tail + src * pass.tail_width;
        __builtin_prefetch(block);
        __builtin_prefetch(block + pass.tail_width - 1);
      }
    }
    const std::span<const HostId> list(sources + first, last - first);
    if (pass.full != nullptr) {
      GatherBlock(pass.full_spare + static_cast<size_t>(dst) * kBlockLanes,
                  pass.full, dst, list, FullBlock{});
    }
    if (pass.tail != nullptr) {
      GatherBlock(pass.tail_spare + static_cast<size_t>(dst) * pass.tail_width,
                  pass.tail, dst, list, pass.tail_width);
    }
  }
}

}  // namespace

StreamSketchSwarm::StreamSketchSwarm(int num_hosts,
                                     const StreamSwarmParams& params,
                                     const KeyedStreamGen& gen)
    : n_(num_hosts),
      params_(params),
      gen_(gen),
      hash_(params.depth, params.width, params.hash_seed),
      stride_(hash_.cells() + 2) {
  DYNAGG_CHECK_GE(n_, 1);
  static_assert(kBlockLanes % kLineDoubles == 0);
  const size_t blocks = (stride_ + kBlockLanes - 1) / kBlockLanes;
  std::vector<size_t> offsets;
  const size_t total =
      CarveArena(static_cast<size_t>(n_), stride_, &offsets);
  // Spare doubles to align the base on a cache line.
  arena_.assign(total + kLineDoubles - 1, 0.0);
  const size_t misalign =
      reinterpret_cast<uintptr_t>(arena_.data()) % 64 / sizeof(double);
  double* const base =
      arena_.data() + (misalign == 0 ? 0 : kLineDoubles - misalign);
  for (size_t b = 0; b < blocks; ++b) region_.push_back(base + offsets[b]);
  spare_ = base + offsets[blocks];
  tail_spare_ = base + offsets[blocks + 1];
  // Push-sum init: weight 1, no mass, empty sketch.
  for (int i = 0; i < n_; ++i) Cell(i, hash_.cells()) = 1.0;
}

size_t StreamSketchSwarm::CarveArena(size_t n, size_t stride,
                                     std::vector<size_t>* offsets) {
  size_t total = 0;
  const auto carve = [&](size_t width) {
    if (offsets != nullptr) offsets->push_back(total);
    total += (n * width + kLineDoubles - 1) / kLineDoubles * kLineDoubles;
  };
  const size_t blocks = (stride + kBlockLanes - 1) / kBlockLanes;
  for (size_t b = 0; b < blocks; ++b) carve(BlockWidth(stride, b));
  carve(stride >= kBlockLanes ? kBlockLanes : 0);
  carve(stride % kBlockLanes);
  return total;
}

uint64_t StreamSketchSwarm::StateBytes(int num_hosts, int depth, int width) {
  const size_t stride = static_cast<size_t>(depth) * width + 2;
  return (CarveArena(static_cast<size_t>(num_hosts), stride, nullptr) +
          kLineDoubles - 1) *
         sizeof(double);
}

void StreamSketchSwarm::ReadHost(HostId id, std::span<double> out) const {
  DYNAGG_CHECK_EQ(out.size(), stride_);
  for (size_t b = 0; b < region_.size(); ++b) {
    const double* block = HostBlock(id, b);
    std::copy(block, block + BlockWidth(b), out.begin() + b * kBlockLanes);
  }
}

void StreamSketchSwarm::OnJoin(HostId id) {
  for (size_t b = 0; b < region_.size(); ++b) {
    double* block = HostBlock(id, b);
    std::fill(block, block + BlockWidth(b), 0.0);
  }
  Cell(id, hash_.cells()) = 1.0;  // push-sum weight
}

void StreamSketchSwarm::AbsorbArrivals(const Population& pop) {
  // Local stream intake is protocol work on host state, not gossip: time
  // it under the apply phase, outside the kernel's own spans.
  obs::ScopedPhase span(obs::Phase::kApply);
  const size_t cells = hash_.cells();
  std::vector<double*> host(region_.size());  // the host's blocks
  for (const HostId id : pop.alive_ids()) {
    gen_.FillBatch(id, round_, params_.batch, &batch_keys_);
    for (size_t b = 0; b < host.size(); ++b) host[b] = HostBlock(id, b);
    const auto cell = [&host](size_t lane) -> double& {
      return host[lane / kBlockLanes][lane % kBlockLanes];
    };
    for (const uint64_t key : batch_keys_) {
      if (params_.kind == SketchKind::kCountMin) {
        for (int r = 0; r < hash_.depth(); ++r) cell(hash_.Slot(r, key)) += 1.0;
      } else {
        for (int r = 0; r < hash_.depth(); ++r) {
          cell(hash_.Slot(r, key)) += hash_.Sign(r, key);
        }
      }
      cell(cells + 1) += 1.0;  // mass scalar
      if (track_truth_) truth_[key] += 1.0;
    }
    truth_total_ += static_cast<double>(batch_keys_.size());
  }
}

void StreamSketchSwarm::RunRound(const Environment& env, const Population& pop,
                                 Rng& rng) {
  if (params_.batch > 0 &&
      (params_.arrival_rounds < 0 || round_ < params_.arrival_rounds)) {
    AbsorbArrivals(pop);
  }
  // Mass-splitting push round, pulled per destination one block at a time
  // (see the header): each pass writes every host's block into the spare
  // of its width, which then becomes that block's region.
  const PartnerPlan& plan = kernel_.PlanPushRound(env, pop, rng);
  if (meter_ != nullptr) {
    meter_->RecordMessages(plan.CountMatched(), message_bytes());
  }
  // One pass per full block; a partial last block rides with the last.
  const size_t full_blocks = stride_ / kBlockLanes;
  const int passes = static_cast<int>(std::max<size_t>(full_blocks, 1));
  const auto blocks_of = [&](int b) {
    PassBlocks pass;
    if (static_cast<size_t>(b) < full_blocks) {
      pass.full = region_[b];
      pass.full_spare = spare_;
    }
    if (full_blocks < region_.size() && b + 1 == passes) {
      pass.tail = region_.back();
      pass.tail_spare = tail_spare_;
      pass.tail_width = BlockWidth(full_blocks);
    }
    return pass;
  };
  kernel_.ForEachPushDestination(
      n_, passes,
      [&](int b, HostId lo, HostId hi, const RoundKernel::PushSources& lists) {
        GatherPass(blocks_of(b), lo, hi, lists);
      },
      [&](int b) {
        const PassBlocks pass = blocks_of(b);
        if (pass.full != nullptr) std::swap(region_[b], spare_);
        if (pass.tail != nullptr) std::swap(region_.back(), tail_spare_);
      });
  ++round_;
}

double StreamSketchSwarm::Estimate(HostId id) const {
  const double weight = Cell(id, hash_.cells());
  if (weight <= 0.0) return 0.0;
  return static_cast<double>(n_) * Cell(id, hash_.cells() + 1) / weight;
}

double StreamSketchSwarm::KeyEstimate(HostId id, uint64_t key) const {
  const double weight = Cell(id, hash_.cells());
  if (weight <= 0.0) return 0.0;
  double raw;
  if (params_.kind == SketchKind::kCountMin) {
    raw = Cell(id, hash_.Slot(0, key));
    for (int r = 1; r < hash_.depth(); ++r) {
      raw = std::min(raw, Cell(id, hash_.Slot(r, key)));
    }
  } else {
    double rows[64];
    for (int r = 0; r < hash_.depth(); ++r) {
      rows[r] = hash_.Sign(r, key) * Cell(id, hash_.Slot(r, key));
    }
    raw = MedianOfRows(rows, hash_.depth());
  }
  return static_cast<double>(n_) * raw / weight;
}

}  // namespace stream
}  // namespace dynagg
