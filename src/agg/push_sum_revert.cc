#include "agg/push_sum_revert.h"

#include <utility>

namespace dynagg {

PushSumRevertSwarm::PushSumRevertSwarm(const std::vector<double>& values,
                                       const PsrParams& params)
    : mass_(values.size()),
      inbox_(params.mode == GossipMode::kPush ? values.size() : 0),
      initial_(values),
      msgs_(params.revert == RevertMode::kAdaptive ? values.size() : 0, 0),
      params_(params) {
  DYNAGG_CHECK_GE(params_.lambda, 0.0);
  DYNAGG_CHECK_LE(params_.lambda, 1.0);
  for (size_t i = 0; i < values.size(); ++i) mass_[i] = Mass{1.0, values[i]};
}

void PushSumRevertSwarm::RunRound(const Environment& env,
                                  const Population& pop, Rng& rng) {
  const bool adaptive = params_.revert == RevertMode::kAdaptive;
  if (params_.mode == GossipMode::kPush) {
    const PartnerPlan& plan = kernel_.PlanPushRound(env, pop, rng);
    if (meter_ != nullptr) {
      meter_->RecordMessages(plan.CountMatched(), kMassMessageBytes);
    }
    // EmitPushHalf: the kernel deposits the half at the sender's own
    // inbox, then at the partner's. The half is read from the pre-round
    // mass, which the end-of-round fold overwrites for every alive
    // initiator, so it is not taken in place.
    kernel_.ForEachPushDeposit(
        size(), /*self_echo=*/true,
        [this](HostId src) {
          return PsrPushHalf(mass_[src], initial_[src], params_.lambda,
                             params_.revert);
        },
        [this, adaptive](HostId dst, const Mass& m) {
          inbox_[dst] += m;
          if (adaptive) ++msgs_[dst];
        },
        [this](HostId dst) { __builtin_prefetch(&inbox_[dst], 1); });
    // The end-of-round fold is apply work in its own span (the kernel's
    // deposit span has closed).
    obs::ScopedPhase span(obs::Phase::kApply);
    ForEachAliveId(pop, [this, adaptive](HostId i) {
      PsrEndRoundPush(mass_[i], inbox_[i],
                      adaptive ? std::exchange(msgs_[i], 0) : 0, initial_[i],
                      params_.lambda, params_.revert);
    });
    return;
  }
  kernel_.PlanExchangeRound(env, pop, rng);
  if (adaptive) {
    ApplyExchangeRound<true>(pop);
  } else {
    ApplyExchangeRound<false>(pop);
  }
}

template <bool kAdaptive>
void PushSumRevertSwarm::ApplyExchangeRound(const Population& pop) {
  kernel_.ForEachExchangePrefetched(
      [this](HostId i, HostId peer) {
        mass_[i] = mass_[peer] = MassMidpoint(mass_[i], mass_[peer]);
        if constexpr (kAdaptive) {
          ++msgs_[i];
          ++msgs_[peer];
        }
        if (meter_ != nullptr) {
          meter_->RecordMessage(kMassMessageBytes);
          meter_->RecordMessage(kMassMessageBytes);
        }
      },
      [this](HostId id) { __builtin_prefetch(&mass_[id], 1); });
  obs::ScopedPhase span(obs::Phase::kApply);  // the fold, as in push mode
  // A local: the fold's Mass stores could otherwise alias the member.
  const double lambda = params_.lambda;
  ForEachAliveId(pop, [this, lambda](HostId i) {
    if constexpr (kAdaptive) {
      PsrEndRoundPushPull(mass_[i], std::exchange(msgs_[i], 0), initial_[i],
                          lambda, RevertMode::kAdaptive);
    } else {
      mass_[i] = Revert(mass_[i], initial_[i], lambda);
    }
  });
}

Mass PushSumRevertSwarm::TotalAliveMass(const Population& pop) const {
  Mass total;
  ForEachAliveId(pop, [&](HostId id) { total += mass_[id]; });
  return total;
}

}  // namespace dynagg
