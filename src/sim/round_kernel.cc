#include "sim/round_kernel.h"

#include <algorithm>

namespace dynagg {

void ShuffleHostIds(std::span<HostId> ids, Rng& rng) {
  HostId* const a = ids.data();
  size_t targets[kShuffleBlock] = {};
  for (size_t i = ids.size(); i > 1;) {
    const size_t block = std::min(kShuffleBlock, i - 1);
    for (size_t b = 0; b < block; ++b) {
      targets[b] = rng.UniformInt(i - b);
      __builtin_prefetch(&a[targets[b]], 1);
    }
    for (size_t b = 0; b < block; ++b, --i) {
      std::swap(a[i - 1], a[targets[b]]);
    }
  }
}

void ShuffledAliveOrder(const Population& pop, Rng& rng,
                        std::vector<HostId>* out) {
  const auto& alive = pop.alive_ids();
  out->assign(alive.begin(), alive.end());
  ShuffleHostIds(*out, rng);
}

const PartnerPlan& RoundKernel::PlanPushRound(const Environment& env,
                                              const Population& pop, Rng& rng,
                                              int slots_per_initiator) {
  obs::ScopedPhase span(obs::Phase::kPlan);
  DYNAGG_CHECK_GE(slots_per_initiator, 1);
  plan_.Reset(pop.alive_ids(), slots_per_initiator);
  // A never-mutated population's alive_ids is the identity permutation
  // (Population constructor order), so with one slot per host the
  // initiator of slot k is k itself — apply loops skip the array reads.
  plan_.set_identity_initiators(pop.version() == 0 &&
                                slots_per_initiator == 1);
  env.BuildPlan(pop, rng, &plan_);
  // Planned partner slots, not matched ones: counting matches would cost
  // an O(n) scan per round; the plan size is free and deterministic.
  obs::Count(obs::Counter::kGossipExchanges,
             static_cast<int64_t>(plan_.size()));
  return plan_;
}

const PartnerPlan& RoundKernel::PlanExchangeRound(const Environment& env,
                                                  const Population& pop,
                                                  Rng& rng) {
  obs::ScopedPhase span(obs::Phase::kPlan);
  plan_.Reset(pop.alive_ids(), /*slots_per_initiator=*/1);
  ShuffleHostIds(*plan_.mutable_initiators(), rng);
  env.BuildPlan(pop, rng, &plan_);
  obs::Count(obs::Counter::kGossipExchanges,
             static_cast<int64_t>(plan_.size()));
  return plan_;
}

void RoundKernel::TransposePushPlan(int num_hosts) {
  const std::vector<HostId>& initiators = plan_.initiators();
  const size_t slots = initiators.size();
  DYNAGG_CHECK_LE(2 * slots, size_t{UINT32_MAX});
  // Count into source_begin_[d + 2] so that, after the prefix sum,
  // source_begin_[d + 1] is d's first position; the fill pass then bumps
  // it to d's end, which is where d + 1 starts. No shift pass needed.
  source_begin_.assign(static_cast<size_t>(num_hosts) + 2, 0);
  for (size_t k = 0; k < slots; ++k) {
    ++source_begin_[initiators[k] + 2];
    ++source_begin_[plan_.EffectivePartner(k) + 2];
  }
  for (size_t d = 1; d < source_begin_.size(); ++d) {
    source_begin_[d] += source_begin_[d - 1];
  }
  sources_.resize(2 * slots);
  for (size_t k = 0; k < slots; ++k) {
    const HostId init = initiators[k];
    sources_[source_begin_[init + 1]++] = init;  // self echo first
    sources_[source_begin_[plan_.EffectivePartner(k) + 1]++] = init;
  }
}

}  // namespace dynagg
