// Churn plans: two-sided membership dynamics — deaths, rebirths with ID
// reuse, and first-time arrivals — applied between gossip rounds.
//
// FailurePlan (sim/failure.h) models the paper's one-sided failure
// experiments: hosts leave and may silently return with their state intact.
// ChurnPlan extends that to the join side studied by the dynamic-graph
// aggregation literature: the universe is fixed at `n` hosts but only
// `initial` of them are alive at round 0; the rest are "unborn" and arrive
// over time, and dead hosts can be reborn reusing their old ID with RESET
// protocol state (the driver fires the swarm's on_join hook for every
// arrival and rebirth). The whole schedule is precomputed from a dedicated
// RNG stream so a plan replays identically and no existing seed stream is
// perturbed.
//
// Cost: per churning round, one draw per alive born host plus one per dead
// born host below the cap, and no scan of the whole universe. The build
// keeps the born-but-dead ids in one ascending list: the death pass walks
// the gaps between them, the rebirth pass walks only the list.

#ifndef DYNAGG_SIM_CHURN_H_
#define DYNAGG_SIM_CHURN_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/population.h"

namespace dynagg {

/// Parameters of a churn schedule over a universe of `n` hosts.
struct ChurnParams {
  int n = 0;                 // universe size (== spec.hosts)
  int initial = 0;           // hosts alive at round 0; ids [initial, n) unborn
  double arrival_rate = 0;   // expected first-time arrivals per round
  double death_prob = 0;     // per-round death probability per alive host
  double rebirth_prob = 0;   // per-round rebirth probability per dead host
  int start_round = 0;       // first round churn applies to
  int end_round = 0;         // one past the last churning round
  int max_alive = 0;         // growth cap on the alive count (<= n)
};

class ChurnPlan {
 public:
  ChurnPlan() = default;

  /// What Apply did for one round (feeds the churn telemetry counters).
  struct RoundDelta {
    int kills = 0;
    int joins = 0;     // first-time arrivals
    int rebirths = 0;  // dead-but-born hosts returning with ID reuse
  };

  /// Precomputes the full schedule. Each churning round, in order: every
  /// alive born host dies with `death_prob`, in ID order; every dead born
  /// host, including one killed this round, is reborn with `rebirth_prob`
  /// in ID order, with the cap checked before each draw (no draw while at
  /// `max_alive`); then a Poisson(`arrival_rate`) number of unborn hosts
  /// join in ID order (clamped by `max_alive` and the universe). All draws
  /// come from `rng`.
  static ChurnPlan Build(const ChurnParams& params, Rng& rng);

  /// Applies the events scheduled for `round` to `pop`: kills first, then
  /// joins and rebirths (each revived via `pop` and handed to `on_join`,
  /// which may be null for protocols without per-host reset state).
  RoundDelta Apply(int round, Population* pop,
                   const std::function<void(HostId)>& on_join) const;

  /// True if no events are scheduled.
  bool empty() const { return ids_.empty(); }

  /// Total events across all rounds (plan-construction sanity checks).
  RoundDelta Totals() const;

 private:
  // Every event in one flat array, round after round, each round as
  // kills | rebirths | joins (each run ascending by id). Round
  // `first_round_ + r` has its kills in ids_[bounds_[3r], bounds_[3r+1]),
  // rebirths up to bounds_[3r+2] and joins up to bounds_[3r+3].
  std::vector<HostId> ids_;
  std::vector<size_t> bounds_;
  int first_round_ = 0;
};

}  // namespace dynagg

#endif  // DYNAGG_SIM_CHURN_H_
