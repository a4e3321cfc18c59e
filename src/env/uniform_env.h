// Uniform gossip environment: full connectivity, uniform peer selection.
//
// This is the idealized model used for the 100,000-host experiments
// (Figs 6, 8, 9, 10): any alive host can exchange with any other alive host
// with equal probability.

#ifndef DYNAGG_ENV_UNIFORM_ENV_H_
#define DYNAGG_ENV_UNIFORM_ENV_H_

#include <cstddef>
#include <vector>

#include "env/environment.h"

namespace dynagg {

/// Slots UniformEnvironment::BuildPlan draws ahead of their gathers on a
/// changed population.
inline constexpr size_t kUniformPlanBlock = 256;

class UniformEnvironment : public Environment {
 public:
  explicit UniformEnvironment(int num_hosts) : num_hosts_(num_hosts) {}

  int num_hosts() const override { return num_hosts_; }

  HostId SamplePeer(HostId i, const Population& pop,
                    Rng& rng) const override {
    return pop.SampleAliveExcept(i, rng);
  }

  /// Batched selection: the per-slot loop of SampleAliveExcept with the
  /// degenerate-population checks hoisted out of the hot loop, and on a
  /// changed population the draws made kUniformPlanBlock slots ahead of
  /// the alive-table loads. Rng draws and partners are bit-identical to the
  /// per-call path (same rejection sequence).
  void BuildPlan(const Population& pop, Rng& rng,
                 PartnerPlan* plan) const override;

  void AppendNeighbors(HostId i, const Population& pop,
                       std::vector<HostId>* out) const override {
    for (const HostId id : pop.alive_ids()) {
      if (id != i) out->push_back(id);
    }
  }

 private:
  int num_hosts_;
};

}  // namespace dynagg

#endif  // DYNAGG_ENV_UNIFORM_ENV_H_
