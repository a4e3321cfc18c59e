// Push-Sum: Kempe et al.'s static distributed averaging protocol (Fig 1).
//
// Every host maintains a mass <weight, value>, initialized to <1, v0>. Each
// round it sends half of its mass to one random peer and half to itself, then
// replaces its mass with the sum of everything received. The estimate
// value/weight converges exponentially to the system-wide average as long as
// mass is conserved. This is the static baseline that Push-Sum-Revert
// (push_sum_revert.h) extends for dynamic networks.

#ifndef DYNAGG_AGG_PUSH_SUM_H_
#define DYNAGG_AGG_PUSH_SUM_H_

#include <vector>

#include "agg/aggregate.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "net/message.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {

/// Payload size of one mass message over the air: two IEEE-754 doubles.
inline constexpr int64_t kMassMessageBytes = 2 * sizeof(double);

/// The mass exchanged by averaging protocols: a weight and a weighted value.
struct Mass {
  double weight = 0.0;
  double value = 0.0;

  Mass& operator+=(const Mass& other) {
    weight += other.weight;
    value += other.value;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// The averaging steps over one host's mass. The node classes, the SoA
// swarms and the NodeAggregator facade all call these, so each step's
// floating-point expression is written once and every caller evaluates it
// identically.

/// The mass scaled by `f`: the pushed half (f = 0.5) or one of N parcels
/// (f = 1/N).
inline Mass MassScaled(const Mass& m, double f) {
  return Mass{m.weight * f, m.value * f};
}

/// Pairwise midpoint: the mass both sides adopt in a push/pull exchange
/// (each transfers half the difference, Section III.A).
inline Mass MassMidpoint(const Mass& a, const Mass& b) {
  return Mass{(a.weight + b.weight) * 0.5, (a.value + b.value) * 0.5};
}

/// The estimate value/weight, or `fallback` while the mass holds no weight
/// (possible transiently in push mode).
inline double MassEstimate(const Mass& m, double fallback) {
  return m.weight > 0.0 ? m.value / m.weight : fallback;
}

/// Per-host Push-Sum state machine: the averaging state inside each
/// EpochPushSumNode, and the reference PushSumSwarm is tested against
/// (tests/sim/round_kernel_test.cc).
class PushSumNode {
 public:
  /// (Re)initializes with local value `v0` and weight 1.
  void Init(double v0) {
    mass_ = Mass{1.0, v0};
    inbox_ = Mass{};
    initial_value_ = v0;
  }

  /// Push-mode round, step 2 (Fig 1): removes the full mass, deposits half
  /// into the host's own inbox, and returns the half destined for the peer.
  Mass EmitPushHalf() {
    const Mass half = MassScaled(mass_, 0.5);
    mass_ = Mass{};
    inbox_ += half;
    return half;
  }

  /// Accumulates a received message into the inbox (steps 3-5 of Fig 1).
  void Deposit(const Mass& m) { inbox_ += m; }

  /// Adopts the summed inbox as the next round's mass.
  void EndRound() {
    mass_ = inbox_;
    inbox_ = Mass{};
  }

  /// Push/pull exchange: equalizes the two hosts' masses (each transfers
  /// half the difference, Section III.A).
  static void Exchange(PushSumNode& a, PushSumNode& b) {
    a.mass_ = b.mass_ = MassMidpoint(a.mass_, b.mass_);
  }

  /// Current estimate of the network-wide average. Falls back to the
  /// initial value while the host holds no weight.
  double Estimate() const { return MassEstimate(mass_, initial_value_); }

  const Mass& mass() const { return mass_; }
  double initial_value() const { return initial_value_; }

 private:
  Mass mass_;
  Mass inbox_;
  double initial_value_ = 0.0;
};

/// A population of Push-Sum states driven one gossip round at a time on the
/// shared plan -> apply round kernel.
///
/// Structure-of-arrays layout (mass / inbox / initial value in separate
/// contiguous arrays): a round's random accesses only touch the 16-byte
/// mass or inbox entry of a host, not a 40-byte node, so at the paper's
/// 100k-host scale the hot array stays cache-resident and the kernel's
/// prefetched deposits hit instead of thrashing. The inbox exists only in
/// push mode; push/pull exchanges equalize masses in place. Each host's
/// arithmetic is the shared step functions above, the same calls
/// PushSumNode makes; the parity tests pin what can still differ from a
/// node vector — plan order, RNG draws and deposit order.
class PushSumSwarm {
 public:
  /// One host per entry of `values`; `mode` selects push or push/pull.
  PushSumSwarm(const std::vector<double>& values, GossipMode mode);

  /// Executes one gossip iteration over the alive hosts.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Current estimate of the network-wide average at `id` (PushSumNode
  /// semantics: initial value while the host holds no weight).
  double Estimate(HostId id) const {
    return MassEstimate(mass_[id], initial_[id]);
  }
  int size() const { return static_cast<int>(mass_.size()); }
  GossipMode mode() const { return mode_; }
  const Mass& mass(HostId id) const { return mass_[id]; }
  double initial_value(HostId id) const { return initial_[id]; }

  /// Total mass over alive hosts (conservation diagnostics and tests).
  Mass TotalAliveMass(const Population& pop) const;

  /// Message-level gossip tick (`driver = async`, push mode only): every
  /// matched host halves its mass in place and plans one message carrying
  /// the other half to its partner; unmatched hosts keep everything. No
  /// state moves between hosts here — delivery happens whenever (and if)
  /// the network model hands each message to Deliver. A half lost in
  /// flight is mass destroyed, which is exactly the loss sensitivity the
  /// loss-rate sweeps measure.
  void PlanAsyncTick(const Environment& env, const Population& pop, Rng& rng,
                     std::vector<net::Message>* out);

  /// Applies one delivered mass message (async driver).
  void Deliver(const net::Message& m) { mass_[m.dst] += Mass{m.a, m.b}; }
  /// Over-the-air bytes of one message planned by PlanAsyncTick.
  static constexpr int64_t kMessageBytes = kMassMessageBytes;

  /// Churn-join reset: (re)initializes host `id` to its pristine
  /// <1, v0> mass — first arrivals and ID-reuse rebirths both start
  /// fresh. Touches only `id`'s own slots (no RNG, no shared state), so
  /// existing hosts and the byte-identity contract are unaffected.
  void OnJoin(HostId id) {
    mass_[id] = Mass{1.0, initial_[id]};
    if (mode_ == GossipMode::kPush) inbox_[id] = Mass{};
  }

  /// Optionally records over-the-air traffic (self-messages excluded).
  /// Pass nullptr to disable. The meter must outlive the swarm.
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

  /// Worker threads for the push-mode deposit loop (bit-identical at any
  /// count; push/pull rounds are inherently sequential and ignore it).
  void set_intra_round_threads(int threads) {
    kernel_.set_intra_round_threads(threads);
  }

 private:
  // SoA per-host state; indexes are host ids.
  std::vector<Mass> mass_;
  std::vector<Mass> inbox_;  // push mode only: push/pull never reads it
  std::vector<double> initial_;
  GossipMode mode_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_PUSH_SUM_H_
