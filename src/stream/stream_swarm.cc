#include "stream/stream_swarm.h"

#include <algorithm>
#include <span>
#include <type_traits>

#include "common/macros.h"
#include "obs/telemetry.h"

namespace dynagg {
namespace stream {

namespace {

// Gather block width. Full blocks pass it as a compile-time constant, so
// the inner loops have a fixed trip count that GCC's -O2 cost model
// vectorizes; the one partial block at the end of a stride stays scalar.
constexpr size_t kLanes = 16;
using FullBlock = std::integral_constant<size_t, kLanes>;

// out[0, width) = +0.0 + 0.5*src_1 + 0.5*src_2 + ..., where src_i is the
// i-th source's row in `state` (row stride `stride`). The leading +0.0
// keeps the result bit-identical to summing the halves into a zeroed
// buffer: it maps a -0.0 half to +0.0 as that sum does.
template <typename Width>
inline void GatherBlock(double* __restrict out, const double* state,
                        size_t stride, std::span<const HostId> sources,
                        Width width) {
  double acc[kLanes];
  const double* __restrict first =
      state + static_cast<size_t>(sources[0]) * stride;
  for (size_t j = 0; j < width; ++j) acc[j] = 0.0 + 0.5 * first[j];
  for (size_t i = 1; i < sources.size(); ++i) {
    const double* __restrict src =
        state + static_cast<size_t>(sources[i]) * stride;
    for (size_t j = 0; j < width; ++j) acc[j] += 0.5 * src[j];
  }
  for (size_t j = 0; j < width; ++j) out[j] = acc[j];
}

}  // namespace

StreamSketchSwarm::StreamSketchSwarm(int num_hosts,
                                     const StreamSwarmParams& params,
                                     const KeyedStreamGen& gen)
    : n_(num_hosts),
      params_(params),
      gen_(gen),
      hash_(params.depth, params.width, params.hash_seed),
      stride_(hash_.cells() + 2),
      state_(static_cast<size_t>(num_hosts) * stride_, 0.0),
      next_(static_cast<size_t>(num_hosts) * stride_, 0.0) {
  DYNAGG_CHECK_GE(n_, 1);
  // Push-sum init: weight 1, no mass, empty sketch.
  for (int i = 0; i < n_; ++i) {
    state_[static_cast<size_t>(i) * stride_ + hash_.cells()] = 1.0;
  }
}

void StreamSketchSwarm::OnJoin(HostId id) {
  double* host = &state_[static_cast<size_t>(id) * stride_];
  std::fill(host, host + stride_, 0.0);
  host[hash_.cells()] = 1.0;  // push-sum weight
}

void StreamSketchSwarm::AbsorbArrivals(const Population& pop) {
  // Local stream intake is protocol work on host state, not gossip: time
  // it under the apply phase, outside the kernel's own spans.
  obs::ScopedPhase span(obs::Phase::kApply);
  const size_t cells = hash_.cells();
  for (const HostId id : pop.alive_ids()) {
    gen_.FillBatch(id, round_, params_.batch, &batch_keys_);
    double* host = &state_[static_cast<size_t>(id) * stride_];
    for (const uint64_t key : batch_keys_) {
      if (params_.kind == SketchKind::kCountMin) {
        for (int r = 0; r < hash_.depth(); ++r) host[hash_.Slot(r, key)] += 1.0;
      } else {
        for (int r = 0; r < hash_.depth(); ++r) {
          host[hash_.Slot(r, key)] += hash_.Sign(r, key);
        }
      }
      host[cells + 1] += 1.0;  // mass scalar
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
  // Mass-splitting push round, pulled per destination (see the header):
  // each destination's next stride is written block-major, so every source
  // row is read and the output row written in one pass, whatever the
  // in-degree.
  const PartnerPlan& plan = kernel_.PlanPushRound(env, pop, rng);
  if (meter_ != nullptr) {
    meter_->RecordMessages(plan.CountMatched(), message_bytes());
  }
  kernel_.ForEachPushDestination(
      n_, [this](HostId dst, std::span<const HostId> sources) {
        double* out = &next_[static_cast<size_t>(dst) * stride_];
        size_t c = 0;
        for (; c + kLanes <= stride_; c += kLanes) {
          GatherBlock(out + c, &state_[c], stride_, sources, FullBlock{});
        }
        if (c < stride_) {
          GatherBlock(out + c, &state_[c], stride_, sources, stride_ - c);
        }
      });
  if (pop.version() == 0) {
    // Every host is alive, so every row of next_ was just written.
    state_.swap(next_);
  } else {
    // Dead hosts receive nothing and keep their stride untouched.
    obs::ScopedPhase span(obs::Phase::kApply);
    ForEachAliveId(pop, [this](HostId i) {
      const double* in = &next_[static_cast<size_t>(i) * stride_];
      std::copy(in, in + stride_, &state_[static_cast<size_t>(i) * stride_]);
    });
  }
  ++round_;
}

double StreamSketchSwarm::Estimate(HostId id) const {
  const double* host = host_state(id);
  const double weight = host[hash_.cells()];
  if (weight <= 0.0) return 0.0;
  return static_cast<double>(n_) * host[hash_.cells() + 1] / weight;
}

double StreamSketchSwarm::KeyEstimate(HostId id, uint64_t key) const {
  const double* host = host_state(id);
  const double weight = host[hash_.cells()];
  if (weight <= 0.0) return 0.0;
  double raw;
  if (params_.kind == SketchKind::kCountMin) {
    raw = host[hash_.Slot(0, key)];
    for (int r = 1; r < hash_.depth(); ++r) {
      raw = std::min(raw, host[hash_.Slot(r, key)]);
    }
  } else {
    double rows[64];
    for (int r = 0; r < hash_.depth(); ++r) {
      rows[r] = hash_.Sign(r, key) * host[hash_.Slot(r, key)];
    }
    raw = MedianOfRows(rows, hash_.depth());
  }
  return static_cast<double>(n_) * raw / weight;
}

}  // namespace stream
}  // namespace dynagg
