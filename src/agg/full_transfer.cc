#include "agg/full_transfer.h"

namespace dynagg {

FullTransferSwarm::FullTransferSwarm(const std::vector<double>& values,
                                     const FullTransferParams& params)
    : mass_(values.size()),
      inbox_(values.size()),
      initial_(values),
      history_(values.size() * static_cast<size_t>(params.window)),
      hist_next_(values.size(), 0),
      hist_count_(values.size(), 0),
      params_(params) {
  DYNAGG_CHECK_GE(params_.lambda, 0.0);
  DYNAGG_CHECK_LE(params_.lambda, 1.0);
  DYNAGG_CHECK_GT(params_.parcels, 0);
  DYNAGG_CHECK_GT(params_.window, 0);
  for (size_t i = 0; i < values.size(); ++i) mass_[i] = Mass{1.0, values[i]};
}

void FullTransferSwarm::RunRound(const Environment& env,
                                 const Population& pop, Rng& rng) {
  // Plan `parcels` independent partner draws per alive host (consecutive
  // slots, the legacy per-parcel draw order), then deposit every parcel.
  // With no reachable peer a parcel returns to the sender rather than
  // leaving the system (PartnerPlan::EffectivePartner).
  const PartnerPlan& plan =
      kernel_.PlanPushRound(env, pop, rng, params_.parcels);
  if (meter_ != nullptr) {
    meter_->RecordMessages(plan.CountMatched(), kMassMessageBytes);
  }
  kernel_.ForEachPushDeposit(
      size(), /*self_echo=*/false,
      [this](HostId src) {
        // Read from the pre-round mass, which the end-of-round fold
        // overwrites for every alive sender, so it is not zeroed here.
        return FtParcel(mass_[src], initial_[src], params_.lambda,
                        params_.parcels);
      },
      [this](HostId dst, const Mass& m) { inbox_[dst] += m; },
      [this](HostId dst) { __builtin_prefetch(&inbox_[dst], 1); });
  // The end-of-round fold is apply work in its own span (the kernel's
  // deposit span has closed).
  obs::ScopedPhase span(obs::Phase::kApply);
  ForEachAliveId(pop, [this](HostId i) {
    FtEndRound(mass_[i], inbox_[i], Ring(i), hist_next_[i], hist_count_[i]);
  });
}

Mass FullTransferSwarm::TotalAliveMass(const Population& pop) const {
  Mass total;
  ForEachAliveId(pop, [&](HostId id) { total += mass_[id]; });
  return total;
}

}  // namespace dynagg
