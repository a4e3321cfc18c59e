#include "agg/extremes.h"

namespace dynagg {

DynamicExtremeSwarm::DynamicExtremeSwarm(const std::vector<double>& values,
                                         const std::vector<uint64_t>& keys,
                                         const ExtremeParams& params)
    : nodes_(values.size()), params_(params) {
  DYNAGG_CHECK_EQ(values.size(), keys.size());
  DYNAGG_CHECK_GE(params_.cutoff, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    nodes_[i].Init(values[i], keys[i]);
  }
}

void DynamicExtremeSwarm::RunRound(const Environment& env,
                                   const Population& pop, Rng& rng) {
  ForEachAliveId(pop, [this](HostId i) { nodes_[i].BeginRound(params_); });
  kernel_.PlanExchangeRound(env, pop, rng);
  kernel_.ForEachExchange([this](HostId i, HostId peer) {
    if (params_.mode == GossipMode::kPushPull) {
      DynamicExtremeNode::Exchange(nodes_[i], nodes_[peer], params_);
    } else {
      nodes_[peer].Offer(nodes_[i].best(), params_);
    }
  });
}

}  // namespace dynagg
