// Push-Sum-Revert with the Full-Transfer optimization (Section III.A, Fig 4).
//
// A reverting host's estimate carries a hard bias towards its own initial
// value. Full-Transfer removes the self-message entirely: each round the
// host splits its whole (reverted) mass into N parcels sent to N
// independently selected peers, so its next state is built exclusively from
// imported mass. The per-round estimate variance rises, but successive
// estimates decorrelate from the host's own value; averaging the mass
// received over the last T mass-bearing rounds ("iterations during which the
// host received no mass are skipped") yields a more accurate estimate —
// the paper measures sigma = 2.13 at lambda = 0.5 and 0.694 at lambda = 0.1
// with N = 4, T = 3 after a correlated half-failure (Fig 10b).

#ifndef DYNAGG_AGG_FULL_TRANSFER_H_
#define DYNAGG_AGG_FULL_TRANSFER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "agg/aggregate.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {

/// Full-Transfer configuration.
struct FullTransferParams {
  /// Reversion constant lambda in [0, 1].
  double lambda = 0.1;
  /// Number of parcels N the mass is split into each round (Fig 4 step 2).
  int parcels = 4;
  /// Number of most recent mass-bearing rounds T averaged for the estimate.
  int window = 3;
};

// ---------------------------------------------------------------------------
// The Full-Transfer steps over one host's scalars: its mass, its inbox, its
// reversion anchor v0 and its ring of the last T mass-bearing rounds (next
// write slot and fill count). FullTransferNode and FullTransferSwarm both
// call these.

/// One parcel (Fig 4, step 2): 1/N of the reverted outgoing mass. Full
/// transfer keeps nothing back: the N parcels together carry all of it.
inline Mass FtParcel(const Mass& mass, double v0, double lambda, int parcels) {
  return MassScaled(Revert(mass, v0, lambda), 1.0 / parcels);
}

/// End of round: adopt the inbox as the next mass and, iff any mass
/// arrived, push it into the ring. Clears the inbox.
inline void FtEndRound(Mass& mass, Mass& inbox, std::span<Mass> ring,
                       int32_t& next, int32_t& count) {
  mass = inbox;
  if (inbox.weight > 0.0) {
    const int32_t window = static_cast<int32_t>(ring.size());
    ring[next] = inbox;
    next = (next + 1) % window;
    if (count < window) ++count;
  }
  inbox = Mass{};
}

/// Windowed estimate: sum(v) / sum(w) over the `count` filled ring slots;
/// v0 before any mass is received.
inline double FtEstimate(std::span<const Mass> ring, int32_t count,
                         double v0) {
  Mass total;
  for (int32_t i = 0; i < count; ++i) total += ring[i];
  return MassEstimate(total, v0);
}

/// Per-host Full-Transfer state machine: the reference the swarm is tested
/// against.
class FullTransferNode {
 public:
  /// (Re)initializes with local value `v0` and an empty estimate window.
  void Init(double v0, int window);

  void SetLocalValue(double v0) { initial_value_ = v0; }

  /// Emits one parcel (FtParcel) of the round's outgoing mass; call
  /// exactly `parcels` times per round. The first emission of the round
  /// takes the whole mass out of the host.
  Mass EmitParcel(double lambda, int parcels);

  /// Accumulates a received parcel.
  void Deposit(const Mass& m) { inbox_ += m; }

  /// Adopts the inbox as next state (FtEndRound).
  void EndRound() {
    emitting_ = false;
    FtEndRound(mass_, inbox_, history_, history_next_, history_count_);
  }

  /// Windowed estimate (FtEstimate).
  double Estimate() const {
    return FtEstimate(history_, history_count_, initial_value_);
  }

  const Mass& mass() const { return mass_; }
  double initial_value() const { return initial_value_; }

 private:
  Mass mass_;
  Mass inbox_;
  Mass outgoing_;  // the mass taken out by the round's first emission
  bool emitting_ = false;
  double initial_value_ = 0.0;
  // Ring buffer of the last `window` mass-bearing rounds.
  std::vector<Mass> history_;
  int32_t history_next_ = 0;
  int32_t history_count_ = 0;
};

/// A population of Full-Transfer hosts driven one round at a time.
///
/// Structure-of-arrays layout (PushSumSwarm is the template): the swarm
/// stores flat parallel arrays — mass, inbox, and one shared history arena
/// of `n * window` Masses (host i's ring lives at [i * window,
/// (i+1) * window)) — so rounds touch contiguous memory and no per-host
/// heap vectors. Each host's arithmetic is the step functions above, the
/// same calls FullTransferNode makes; tests/sim/round_kernel_test.cc pins
/// the rest against a node vector — plan order, RNG draws and deposit
/// order.
class FullTransferSwarm {
 public:
  FullTransferSwarm(const std::vector<double>& values,
                    const FullTransferParams& params);

  /// Executes one gossip iteration: every alive host sends N parcels to N
  /// independently sampled peers, then all hosts fold their inboxes.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Windowed estimate (FtEstimate).
  double Estimate(HostId id) const {
    return FtEstimate(Ring(id), hist_count_[id], initial_[id]);
  }
  int size() const { return static_cast<int>(mass_.size()); }
  const FullTransferParams& params() const { return params_; }
  const Mass& mass(HostId id) const { return mass_[id]; }
  double initial_value(HostId id) const { return initial_[id]; }

  /// Total live mass (current state only, not the estimate window).
  Mass TotalAliveMass(const Population& pop) const;

  /// Churn-join reset: (re)initializes host `id` to its pristine <1, v0>
  /// mass with an empty estimate window (FullTransferNode::Init
  /// semantics). Touches only `id`'s own slots.
  void OnJoin(HostId id) {
    mass_[id] = Mass{1.0, initial_[id]};
    inbox_[id] = Mass{};
    hist_next_[id] = 0;
    hist_count_[id] = 0;
  }

  /// Optionally records over-the-air traffic.
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

  /// Worker threads for the parcel deposit loop (bit-identical at any
  /// count).
  void set_intra_round_threads(int threads) {
    kernel_.set_intra_round_threads(threads);
  }

 private:
  // Host `id`'s ring in the history arena.
  std::span<Mass> Ring(HostId id) {
    return {&history_[static_cast<size_t>(id) * params_.window],
            static_cast<size_t>(params_.window)};
  }
  std::span<const Mass> Ring(HostId id) const {
    return {&history_[static_cast<size_t>(id) * params_.window],
            static_cast<size_t>(params_.window)};
  }

  std::vector<Mass> mass_;
  std::vector<Mass> inbox_;
  std::vector<double> initial_;
  // One flat arena of per-host rings over the last `window` mass-bearing
  // rounds (stride = params_.window).
  std::vector<Mass> history_;
  std::vector<int32_t> hist_next_;
  std::vector<int32_t> hist_count_;
  FullTransferParams params_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_FULL_TRANSFER_H_
