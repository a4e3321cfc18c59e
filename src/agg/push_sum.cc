#include "agg/push_sum.h"

#include <algorithm>

namespace dynagg {

PushSumSwarm::PushSumSwarm(const std::vector<double>& values, GossipMode mode)
    : mass_(values.size()),
      inbox_(mode == GossipMode::kPush ? values.size() : 0),
      initial_(values),
      mode_(mode) {
  for (size_t i = 0; i < values.size(); ++i) mass_[i] = Mass{1.0, values[i]};
}

void PushSumSwarm::RunRound(const Environment& env, const Population& pop,
                            Rng& rng) {
  if (mode_ == GossipMode::kPush) {
    // All emissions are simultaneous: plan the partners, then deposit
    // every host's half twice (self inbox + partner inbox, or both to the
    // sender when it has no reachable peer), then every host adopts its
    // inbox. The half is read from the pre-round mass, which the adoption
    // overwrites for every alive initiator, so nothing is taken in place.
    const PartnerPlan& plan = kernel_.PlanPushRound(env, pop, rng);
    if (meter_ != nullptr) {
      meter_->RecordMessages(plan.CountMatched(), kMassMessageBytes);
    }
    kernel_.ForEachPushDeposit(
        size(), /*self_echo=*/true,
        [this](HostId src) { return MassScaled(mass_[src], 0.5); },
        [this](HostId dst, const Mass& m) { inbox_[dst] += m; },
        [this](HostId dst) { __builtin_prefetch(&inbox_[dst], 1); });
    // PushSumNode::EndRound: adopt the summed inbox. On a never-mutated
    // population every host is alive, so the adoption collapses to an
    // array swap plus a clear — no copy pass at all.
    obs::ScopedPhase span(obs::Phase::kApply);
    if (pop.version() == 0) {
      mass_.swap(inbox_);
      std::fill(inbox_.begin(), inbox_.end(), Mass{});
    } else {
      ForEachAliveId(pop, [this](HostId i) {
        mass_[i] = inbox_[i];
        inbox_[i] = Mass{};
      });
    }
    return;
  }
  // Push/pull: pairwise equalization, applied sequentially in a shuffled
  // order within the round, with both exchange sides prefetched from the
  // plan.
  kernel_.PlanExchangeRound(env, pop, rng);
  kernel_.ForEachExchangePrefetched(
      [this](HostId i, HostId peer) {
        mass_[i] = mass_[peer] = MassMidpoint(mass_[i], mass_[peer]);
        if (meter_ != nullptr) {
          // Request plus response, one mass payload each.
          meter_->RecordMessage(kMassMessageBytes);
          meter_->RecordMessage(kMassMessageBytes);
        }
      },
      [this](HostId id) { __builtin_prefetch(&mass_[id], 1); });
}

void PushSumSwarm::PlanAsyncTick(const Environment& env, const Population& pop,
                                 Rng& rng, std::vector<net::Message>* out) {
  kernel_.PlanPushRound(env, pop, rng);
  kernel_.ForEachSlot([this, out](HostId src, HostId partner) {
    if (partner == kInvalidHost) return;  // no reachable peer: keep all mass
    const Mass half = MassScaled(mass_[src], 0.5);
    mass_[src] = half;
    out->push_back(net::Message{src, partner, half.weight, half.value, 0});
  });
}

Mass PushSumSwarm::TotalAliveMass(const Population& pop) const {
  Mass total;
  ForEachAliveId(pop, [&](HostId id) { total += mass_[id]; });
  return total;
}

}  // namespace dynagg
