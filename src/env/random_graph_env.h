// Random-graph gossip environment: a fixed sparse overlay.
//
// Between the idealized uniform environment and the spatial grid sits the
// sparse-but-unstructured case: each host can reach a small random set of
// peers (e.g. whoever its radio discovered at deployment). This environment
// builds an approximately k-regular undirected graph via the configuration
// model (with rejection of self-loops and duplicates) and selects gossip
// partners uniformly among a host's alive neighbors. Low-connectivity
// behaviour — slower convergence, larger reversion error (Section V.A's
// "low connectivity situations") — can be studied by shrinking k.

#ifndef DYNAGG_ENV_RANDOM_GRAPH_ENV_H_
#define DYNAGG_ENV_RANDOM_GRAPH_ENV_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "env/environment.h"

namespace dynagg {

class RandomGraphEnvironment : public Environment {
 public:
  /// Builds an approximately `degree`-regular graph on `num_hosts` vertices
  /// from `seed`. degree >= 1; the realized degree of a host may be smaller
  /// when duplicate/self edges are rejected.
  RandomGraphEnvironment(int num_hosts, int degree, uint64_t seed);

  int num_hosts() const override {
    return static_cast<int>(row_begin_.size()) - 1;
  }

  HostId SamplePeer(HostId i, const Population& pop,
                    Rng& rng) const override;

  /// Batched selection with the per-call SamplePeer dispatch hoisted and
  /// the rare exact-fallback path (all of the first 4 picks dead) served
  /// from lazily built, population-version-stamped alive-neighbor rows
  /// instead of a fresh allocation per call. Rng draws are bit-identical.
  void BuildPlan(const Population& pop, Rng& rng,
                 PartnerPlan* plan) const override;

  void AppendNeighbors(HostId i, const Population& pop,
                       std::vector<HostId>* out) const override;

  /// Realized degree of host i (alive or not).
  int Degree(HostId i) const {
    return static_cast<int>(row_begin_[i + 1] - row_begin_[i]);
  }
  int64_t num_edges() const { return num_edges_; }

 private:
  /// Host i's neighbors (alive or not), in edge-insertion order.
  std::span<const HostId> Neighbors(HostId i) const {
    return {neighbor_ids_.data() + row_begin_[i],
            row_begin_[i + 1] - row_begin_[i]};
  }

  // The adjacency in CSR form: host i's neighbors are
  // neighbor_ids_[row_begin_[i], row_begin_[i + 1]), so a partner draw
  // costs one offset load and one row load.
  std::vector<uint32_t> row_begin_;
  std::vector<HostId> neighbor_ids_;
  int64_t num_edges_ = 0;

  // Lazy per-host alive-neighbor rows for BuildPlan's fallback, stamped
  // with the globally unique membership fingerprint they were filtered
  // against (0 = never built; fingerprints start at 1, and are unique
  // across Population instances and mutations, so reuse of this
  // environment across populations stays sound). Mutable per the
  // BuildPlan single-threaded-planning contract.
  mutable std::vector<std::vector<HostId>> alive_rows_;
  mutable std::vector<uint64_t> row_stamps_;
};

}  // namespace dynagg

#endif  // DYNAGG_ENV_RANDOM_GRAPH_ENV_H_
