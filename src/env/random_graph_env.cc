#include "env/random_graph_env.h"

#include <algorithm>

#include "common/macros.h"
#include "env/alive_neighbors.h"
#include "obs/telemetry.h"

namespace dynagg {

RandomGraphEnvironment::RandomGraphEnvironment(int num_hosts, int degree,
                                               uint64_t seed)
    : row_begin_(static_cast<size_t>(num_hosts) + 1, 0) {
  DYNAGG_CHECK_GE(num_hosts, 1);
  DYNAGG_CHECK_GE(degree, 1);
  DYNAGG_CHECK_LT(degree, num_hosts);
  const size_t stride = static_cast<size_t>(degree);
  DYNAGG_CHECK_LE(num_hosts * stride, size_t{UINT32_MAX});
  Rng rng(seed);
  // Configuration model: a shuffled multiset of `degree` stubs per vertex,
  // paired off; self-loops and duplicate edges are dropped (leaving some
  // vertices slightly below the target degree, which is fine for gossip).
  std::vector<HostId> stubs;
  stubs.reserve(num_hosts * stride);
  for (HostId v = 0; v < num_hosts; ++v) {
    for (int s = 0; s < degree; ++s) stubs.push_back(v);
  }
  for (size_t i = stubs.size(); i > 1; --i) {
    std::swap(stubs[i - 1], stubs[rng.UniformInt(i)]);
  }
  // Every kept edge uses one stub at each end, so no row outgrows `degree`:
  // rows fill at that stride, then pack left into CSR order.
  neighbor_ids_.resize(num_hosts * stride);
  std::vector<uint32_t> filled(num_hosts, 0);
  for (size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const HostId a = stubs[i];
    const HostId b = stubs[i + 1];
    if (a == b) continue;
    const HostId* const row = &neighbor_ids_[a * stride];
    if (std::find(row, row + filled[a], b) != row + filled[a]) continue;
    neighbor_ids_[a * stride + filled[a]++] = b;
    neighbor_ids_[b * stride + filled[b]++] = a;
    ++num_edges_;
  }
  for (HostId v = 0; v < num_hosts; ++v) {
    const uint32_t begin = row_begin_[v];
    std::copy_n(neighbor_ids_.begin() + v * stride, filled[v],
                neighbor_ids_.begin() + begin);
    row_begin_[v + 1] = begin + filled[v];
  }
  neighbor_ids_.resize(row_begin_[num_hosts]);
  neighbor_ids_.shrink_to_fit();
}

HostId RandomGraphEnvironment::SamplePeer(HostId i, const Population& pop,
                                          Rng& rng) const {
  const std::span<const HostId> nbrs = Neighbors(i);
  std::vector<HostId> scratch;
  return SampleAliveNeighbor(nbrs, pop, rng,
                             [&]() -> const std::vector<HostId>& {
                               FilterAliveNeighbors(nbrs, pop, &scratch);
                               return scratch;
                             });
}

void RandomGraphEnvironment::BuildPlan(const Population& pop, Rng& rng,
                                       PartnerPlan* plan) const {
  if (row_stamps_.empty()) {
    alive_rows_.resize(num_hosts());
    row_stamps_.assign(num_hosts(), 0);
  }
  const uint64_t fingerprint = pop.fingerprint();
  const std::vector<HostId>& initiators = plan->initiators();
  std::vector<HostId>& partners = *plan->mutable_partners();
  for (size_t k = 0; k < initiators.size(); ++k) {
    const HostId i = initiators[k];
    const std::span<const HostId> nbrs = Neighbors(i);
    // Same draw sequence as SamplePeer; the fallback row comes from the
    // stamped cache instead of a fresh allocation.
    partners[k] = SampleAliveNeighbor(
        nbrs, pop, rng, [&]() -> const std::vector<HostId>& {
          std::vector<HostId>& alive = alive_rows_[i];
          if (row_stamps_[i] != fingerprint) {
            obs::Count(obs::Counter::kPlanCacheRebuilds);
            FilterAliveNeighbors(nbrs, pop, &alive);
            row_stamps_[i] = fingerprint;
          } else {
            obs::Count(obs::Counter::kPlanCacheHits);
          }
          return alive;
        });
  }
}

void RandomGraphEnvironment::AppendNeighbors(HostId i, const Population& pop,
                                             std::vector<HostId>* out) const {
  for (const HostId id : Neighbors(i)) {
    if (pop.IsAlive(id)) out->push_back(id);
  }
}

}  // namespace dynagg
