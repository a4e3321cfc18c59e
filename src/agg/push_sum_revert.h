// Push-Sum-Revert: dynamic distributed averaging (Section III, Fig 3).
//
// The paper's first contribution. Push-Sum relies on conservation of mass,
// which silent host departures violate: mass leaves with the host and, when
// departures correlate with values, the estimate diverges permanently.
// Push-Sum-Revert introduces a controlled local error: every round each
// host's mass decays towards its *initial* mass by a reversion constant
// lambda,
//     w <- lambda       + (1 - lambda) * sum(received weights)
//     v <- lambda * v0  + (1 - lambda) * sum(received values)
// The Revert step conserves mass while the node set is stable (Section III's
// telescoping argument) yet continuously re-injects each live host's
// contribution, so after departures the system re-converges to the average
// over the *remaining* hosts. lambda trades reconvergence speed against a
// bias floor (Fig 10a); lambda = 0 degenerates to classic Push-Sum.

#ifndef DYNAGG_AGG_PUSH_SUM_REVERT_H_
#define DYNAGG_AGG_PUSH_SUM_REVERT_H_

#include <cstdint>
#include <vector>

#include "agg/aggregate.h"
#include "agg/push_sum.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {

/// Push-Sum-Revert configuration.
struct PsrParams {
  /// Reversion constant lambda in [0, 1]. 0 = classic Push-Sum.
  double lambda = 0.01;
  GossipMode mode = GossipMode::kPushPull;
  RevertMode revert = RevertMode::kFixed;
};

// ---------------------------------------------------------------------------
// The Push-Sum-Revert steps over one host's scalars: its mass, its inbox,
// its per-round interaction count and its reversion anchor v0. The node
// below, the swarm and the NodeAggregator facade all call these.

/// Fig 3's Revert step at strength `eff`: w <- eff + (1 - eff) * w and
/// v <- eff * v0 + (1 - eff) * v. Full-Transfer reverts with the same step.
inline Mass Revert(const Mass& m, double v0, double eff) {
  return Mass{(1.0 - eff) * m.weight + eff, (1.0 - eff) * m.value + eff * v0};
}

/// Adaptive reversion strength: lambda/2 per interaction, capped at 1.
inline double AdaptiveStrength(double lambda, int32_t interactions) {
  const double eff = 0.5 * lambda * static_cast<double>(interactions);
  return eff > 1.0 ? 1.0 : eff;
}

/// Push-mode payload (Fig 3, step 2): the half of the outgoing mass sent to
/// the peer and, as the self-message, to the host's own inbox. Fixed
/// reversion applies to the outgoing total; adaptive reversion waits for
/// the end of the round, when the indegree is known.
inline Mass PsrPushHalf(const Mass& mass, double v0, double lambda,
                        RevertMode revert) {
  return MassScaled(revert == RevertMode::kFixed ? Revert(mass, v0, lambda)
                                                 : mass,
                    0.5);
}

/// Push-mode end of round: adopt the inbox; under adaptive reversion mix in
/// lambda/2 of the initial mass per message received (`msgs`, self-message
/// included; fixed reversion ignores it). Clears the inbox; the caller
/// clears the count it keeps.
inline void PsrEndRoundPush(Mass& mass, Mass& inbox, int32_t msgs, double v0,
                            double lambda, RevertMode revert) {
  mass = revert == RevertMode::kAdaptive
             ? Revert(inbox, v0, AdaptiveStrength(lambda, msgs))
             : inbox;
  inbox = Mass{};
}

/// Push/pull end of round: revert the mass in place. Under fixed reversion
/// the strength is lambda; under adaptive it is lambda/2 per interaction
/// this round (`msgs`), the self-interaction counting once.
inline void PsrEndRoundPushPull(Mass& mass, int32_t msgs, double v0,
                                double lambda, RevertMode revert) {
  const double eff = revert == RevertMode::kAdaptive
                         ? AdaptiveStrength(lambda, msgs + 1)
                         : lambda;
  mass = Revert(mass, v0, eff);
}

/// Per-host Push-Sum-Revert state machine: the reference the swarm is
/// tested against and the averaging half of the NodeAggregator facade.
class PushSumRevertNode {
 public:
  /// (Re)initializes with local value `v0`; mass <1, v0>.
  void Init(double v0) {
    mass_ = Mass{1.0, v0};
    inbox_ = Mass{};
    initial_value_ = v0;
    messages_received_ = 0;
  }

  /// Updates the value this host reverts toward (and re-anchors future
  /// rounds); used when the application's local reading changes.
  void SetLocalValue(double v0) { initial_value_ = v0; }

  /// Push-mode emission (Fig 3, step 2): removes the mass, deposits the
  /// payload half into the own inbox (the self-message counts towards
  /// adaptive indegree) and returns the peer half.
  Mass EmitPushHalf(double lambda, RevertMode revert) {
    const Mass half = PsrPushHalf(mass_, initial_value_, lambda, revert);
    mass_ = Mass{};
    Deposit(half);
    return half;
  }

  /// Accumulates a received message.
  void Deposit(const Mass& m) {
    inbox_ += m;
    ++messages_received_;
  }

  /// Push-mode end of round (PsrEndRoundPush).
  void EndRoundPush(double lambda, RevertMode revert) {
    PsrEndRoundPush(mass_, inbox_, messages_received_, initial_value_, lambda,
                    revert);
    messages_received_ = 0;
  }

  /// Push/pull exchange: pairwise mass equalization. Counts one interaction
  /// on each side for adaptive reversion.
  static void Exchange(PushSumRevertNode& a, PushSumRevertNode& b) {
    a.mass_ = b.mass_ = MassMidpoint(a.mass_, b.mass_);
    ++a.messages_received_;
    ++b.messages_received_;
  }

  /// Push/pull end of round (PsrEndRoundPushPull).
  void EndRoundPushPull(double lambda, RevertMode revert) {
    PsrEndRoundPushPull(mass_, messages_received_, initial_value_, lambda,
                        revert);
    messages_received_ = 0;
  }

  double Estimate() const { return MassEstimate(mass_, initial_value_); }

  const Mass& mass() const { return mass_; }
  /// Directly overwrites the mass: the adoption step of the serialized
  /// request/reply exchange used by the NodeAggregator facade.
  void SetMass(const Mass& m) { mass_ = m; }
  double initial_value() const { return initial_value_; }

 private:
  Mass mass_;
  Mass inbox_;
  double initial_value_ = 0.0;
  int32_t messages_received_ = 0;
};

/// A population of Push-Sum-Revert hosts driven one round at a time.
///
/// Structure-of-arrays layout (PushSumSwarm is the template): the swarm
/// stores its hosts as flat parallel arrays so the plan→apply inner loops
/// walk contiguous memory with no per-host object padding. Every mode keeps
/// the mass and the reversion anchor; the inbox exists only in push mode
/// and the per-round interaction count only under adaptive reversion, the
/// one step that reads it, so a fixed-reversion push/pull round touches
/// nothing but the mass and the anchor. Each host's arithmetic is the step
/// functions above, called on that host's array slots exactly as
/// PushSumRevertNode calls them on its members;
/// tests/sim/round_kernel_test.cc pins the rest against a node vector —
/// plan order, RNG draws and deposit order.
class PushSumRevertSwarm {
 public:
  PushSumRevertSwarm(const std::vector<double>& values,
                     const PsrParams& params);

  /// Executes one gossip iteration over the alive hosts.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  double Estimate(HostId id) const {
    return MassEstimate(mass_[id], initial_[id]);
  }
  int size() const { return static_cast<int>(mass_.size()); }
  const PsrParams& params() const { return params_; }

  /// Updates the value host `id` reverts toward (PushSumRevertNode::
  /// SetLocalValue); used when the application's local reading changes.
  void SetLocalValue(HostId id, double v0) { initial_[id] = v0; }
  double initial_value(HostId id) const { return initial_[id]; }
  const Mass& mass(HostId id) const { return mass_[id]; }

  /// Total mass over alive hosts (conservation diagnostics and tests).
  Mass TotalAliveMass(const Population& pop) const;

  /// Churn-join reset: (re)initializes host `id` to its pristine <1, v0>
  /// mass anchored at its original reversion value (PushSumRevertNode::
  /// Init semantics). Touches only `id`'s own slots, in the arrays its
  /// mode keeps.
  void OnJoin(HostId id) {
    mass_[id] = Mass{1.0, initial_[id]};
    if (params_.mode == GossipMode::kPush) inbox_[id] = Mass{};
    if (params_.revert == RevertMode::kAdaptive) msgs_[id] = 0;
  }

  /// Optionally records over-the-air traffic (self-messages excluded).
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

  /// Worker threads for the push-mode deposit loop (bit-identical at any
  /// count; push/pull rounds are inherently sequential and ignore it).
  void set_intra_round_threads(int threads) {
    kernel_.set_intra_round_threads(threads);
  }

 private:
  /// The push/pull apply: the round's exchanges, then the fold. Only the
  /// adaptive instance counts interactions.
  template <bool kAdaptive>
  void ApplyExchangeRound(const Population& pop);

  std::vector<Mass> mass_;
  std::vector<Mass> inbox_;      // push mode only
  std::vector<double> initial_;  // reversion anchors (the v0 values)
  std::vector<int32_t> msgs_;    // per-round interactions; adaptive only
  PsrParams params_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_PUSH_SUM_REVERT_H_
