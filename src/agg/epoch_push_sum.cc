#include "agg/epoch_push_sum.h"

#include "common/macros.h"

namespace dynagg {

EpochPushSumSwarm::EpochPushSumSwarm(const std::vector<double>& values,
                                     const EpochParams& params,
                                     const std::vector<int>& phases)
    : nodes_(values.size()), params_(params) {
  DYNAGG_CHECK_GT(params_.epoch_length, 0);
  DYNAGG_CHECK(phases.empty() || phases.size() == values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const int phase = phases.empty() ? 0 : phases[i] % params_.epoch_length;
    nodes_[i].Init(values[i], phase);
  }
}

void EpochPushSumSwarm::RunRound(const Environment& env,
                                 const Population& pop, Rng& rng) {
  kernel_.PlanExchangeRound(env, pop, rng);
  kernel_.ForEachExchange([this](HostId i, HostId peer) {
    EpochPushSumNode& a = nodes_[i];
    EpochPushSumNode& b = nodes_[peer];
    if (a.epoch() == b.epoch()) {
      PushSumNode::Exchange(a.state(), b.state());
    } else if (a.epoch() < b.epoch()) {
      // The laggard loses its in-progress mass and joins the newer epoch;
      // no aggregation value is exchanged this round.
      a.AdvanceToEpoch(b.epoch());
    } else {
      b.AdvanceToEpoch(a.epoch());
    }
  });
  ForEachAliveId(pop,
                 [this](HostId i) { nodes_[i].Tick(params_.epoch_length); });
}

}  // namespace dynagg
