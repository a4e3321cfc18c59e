// Shared alive-neighbor sampling for list-adjacency environments
// (random-graph overlays, trace playback). Each takes one host's neighbor
// row as a span, whatever the environment stores it in.
//
// The draw sequence — up to 4 rejection attempts over the full neighbor
// list, then one uniform draw over its alive subset — is part of the
// bit-reproducibility contract: SamplePeer and the batched BuildPlan of
// both environments must consume the Rng identically, so the sequence is
// defined exactly once here. Callers differ only in how the alive subset
// is obtained: SamplePeer filters into a scratch row on demand, BuildPlan
// serves it from a stamped per-host cache.

#ifndef DYNAGG_ENV_ALIVE_NEIGHBORS_H_
#define DYNAGG_ENV_ALIVE_NEIGHBORS_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/population.h"

namespace dynagg {

/// Samples a uniform alive member of `nbrs`: rejection over the full list
/// (cheap, alive-dominated populations almost always hit it), then an
/// exact draw over the alive subset. `ensure_alive_row()` is invoked only
/// on the fallback and must return the alive members of `nbrs` in list
/// order (so cached and freshly-filtered rows draw identically). Returns
/// kInvalidHost when `nbrs` has no alive member.
template <typename EnsureAliveRowFn>
HostId SampleAliveNeighbor(std::span<const HostId> nbrs,
                           const Population& pop, Rng& rng,
                           EnsureAliveRowFn&& ensure_alive_row) {
  if (nbrs.empty()) return kInvalidHost;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const HostId pick = nbrs[rng.UniformInt(nbrs.size())];
    if (pop.IsAlive(pick)) return pick;
  }
  const std::vector<HostId>& alive = ensure_alive_row();
  if (alive.empty()) return kInvalidHost;
  return alive[rng.UniformInt(alive.size())];
}

/// The fallback filter: the alive members of `nbrs`, in list order.
inline void FilterAliveNeighbors(std::span<const HostId> nbrs,
                                 const Population& pop,
                                 std::vector<HostId>* out) {
  out->clear();
  for (const HostId id : nbrs) {
    if (pop.IsAlive(id)) out->push_back(id);
  }
}

}  // namespace dynagg

#endif  // DYNAGG_ENV_ALIVE_NEIGHBORS_H_
