#include "agg/full_transfer.h"

namespace dynagg {

void FullTransferNode::Init(double v0, int window) {
  DYNAGG_CHECK_GT(window, 0);
  mass_ = Mass{1.0, v0};
  inbox_ = Mass{};
  reverted_ = Mass{};
  emitting_ = false;
  initial_value_ = v0;
  history_.assign(window, Mass{});
  history_next_ = 0;
  history_count_ = 0;
}

Mass FullTransferNode::EmitParcel(double lambda, int parcels) {
  DYNAGG_CHECK_GT(parcels, 0);
  if (!emitting_) {
    // First parcel of the round: apply the reversion to the outgoing total
    // and zero the local mass (full transfer keeps nothing back).
    reverted_.weight = (1.0 - lambda) * mass_.weight + lambda;
    reverted_.value =
        (1.0 - lambda) * mass_.value + lambda * initial_value_;
    mass_ = Mass{};
    emitting_ = true;
  }
  const double inv = 1.0 / parcels;
  return Mass{reverted_.weight * inv, reverted_.value * inv};
}

void FullTransferNode::EndRound() {
  emitting_ = false;
  mass_ = inbox_;
  if (inbox_.weight > 0.0) {
    history_[history_next_] = inbox_;
    history_next_ = (history_next_ + 1) % static_cast<int>(history_.size());
    if (history_count_ < static_cast<int>(history_.size())) ++history_count_;
  }
  inbox_ = Mass{};
}

double FullTransferNode::Estimate() const {
  Mass total;
  for (int i = 0; i < history_count_; ++i) total += history_[i];
  if (total.weight <= 0.0) return initial_value_;
  return total.value / total.weight;
}

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
      [this](HostId src) { return ParcelAt(src); },
      [this](HostId dst, const Mass& m) { inbox_[dst] += m; },
      [this](HostId dst) { __builtin_prefetch(&inbox_[dst], 1); });
  // On a never-mutated population alive_ids is every host: fold over the
  // index range directly (no id indirection in the hot loop).
  if (pop.version() == 0) {
    const int n = size();
    for (HostId i = 0; i < n; ++i) EndRoundAt(i);
  } else {
    for (const HostId i : pop.alive_ids()) EndRoundAt(i);
  }
}

Mass FullTransferSwarm::TotalAliveMass(const Population& pop) const {
  Mass total;
  for (const HostId id : pop.alive_ids()) total += mass_[id];
  return total;
}

}  // namespace dynagg
