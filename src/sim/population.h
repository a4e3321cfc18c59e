// Population: the alive/dead status of every host with O(1) kill/revive and
// O(1) uniform sampling over alive hosts.
//
// Silent failures in the paper are modelled by flipping hosts to dead: they
// stop initiating gossip, stop being selected as peers, and any mass or
// sketch state they hold simply leaves the computation — exactly the failure
// mode Sections III-IV address.

#ifndef DYNAGG_SIM_POPULATION_H_
#define DYNAGG_SIM_POPULATION_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/types.h"

namespace dynagg {

class Population {
 public:
  /// Creates `n` hosts, all alive.
  explicit Population(int n);

  /// Creates a universe of `n` hosts with only the first `initial_alive`
  /// of them alive; ids [initial_alive, n) start dead ("unborn") and can
  /// be activated later via Revive (churn plans use this for staged
  /// arrivals). When initial_alive < n the version stamp starts at 1 so
  /// callers that treat version() == 0 as "all hosts alive" (identity
  /// partner plans, array-swap fast paths) stay correct.
  Population(int n, int initial_alive);

  /// Total universe size (alive + dead).
  int size() const { return static_cast<int>(position_.size()); }
  int num_alive() const { return static_cast<int>(alive_ids_.size()); }
  bool IsAlive(HostId id) const {
    DYNAGG_DCHECK(id >= 0 && id < size());
    return position_[id] >= 0;
  }

  /// Marks `id` dead. No-op if already dead.
  void Kill(HostId id);
  /// Marks `id` alive. No-op if already alive.
  void Revive(HostId id);

  /// Uniform random alive host; kInvalidHost if none.
  HostId SampleAlive(Rng& rng) const;
  /// Uniform random alive host different from `exclude`; kInvalidHost if no
  /// such host exists.
  HostId SampleAliveExcept(HostId exclude, Rng& rng) const;

  /// The alive hosts, in unspecified order. Stable between mutations.
  /// Plans draw over this order; order-independent passes use
  /// ForEachAliveId instead.
  const std::vector<HostId>& alive_ids() const { return alive_ids_; }

  /// Monotonic membership version of THIS object: 0 = never mutated;
  /// bumped by every *effective* Kill or Revive (no-ops leave it
  /// unchanged, so e.g. re-pinning an already-alive leader every round
  /// does not churn it).
  uint64_t version() const { return version_; }

  /// Globally unique membership-state fingerprint: drawn from a
  /// process-wide counter at construction and again on every effective
  /// mutation, so no two distinct alive-sets ever share a fingerprint —
  /// not even across different Population instances that happen to reuse
  /// the same address (a copy keeps the fingerprint, correctly: its state
  /// is identical until either side mutates). Environments key their
  /// per-round alive-neighbor caches on this (see Environment::BuildPlan).
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  static uint64_t NextFingerprint();

  // position_[id] = index of id within alive_ids_, or -1 if dead.
  std::vector<int32_t> position_;
  std::vector<HostId> alive_ids_;
  uint64_t version_ = 0;
  uint64_t fingerprint_ = NextFingerprint();
};

/// Calls fn(id) for every alive host of `pop`, in ascending id order: the
/// visit for per-host passes whose result does not depend on visit order
/// (end-of-round folds, truths, metric sums). Churn scrambles alive_ids()
/// by swap-with-last removal, so walking it is a random gather; the id
/// scan reads host state sequentially and skips the dead. On a
/// never-mutated population every host is alive, so the pass is a plain
/// index loop. Plans keep alive_ids() order: it is part of the seeded RNG
/// semantics. Declared inline so the scan inlines into its caller, which
/// keeps the caller's accumulators in registers.
template <typename Fn>
inline void ForEachAliveId(const Population& pop, Fn&& fn) {
  const HostId n = pop.size();
  if (pop.version() == 0) {
    for (HostId id = 0; id < n; ++id) fn(id);
  } else {
    for (HostId id = 0; id < n; ++id) {
      if (pop.IsAlive(id)) fn(id);
    }
  }
}

}  // namespace dynagg

#endif  // DYNAGG_SIM_POPULATION_H_
