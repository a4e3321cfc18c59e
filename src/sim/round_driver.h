// Round driver: the paper's "simulation in rounds" harness.
//
// At every iteration each alive host performs its protocol's exchange with
// peers selected by the environment (Section V). A Swarm is any type
// exposing
//     void RunRound(const Environment&, const Population&, Rng&);
// and, since Environment API v2, internally structures that round on the
// shared plan -> apply kernel (sim/round_kernel.h, which also owns the
// shared ShuffledAliveOrder helper). The driver applies failure-plan events
// before each round and invokes an observer afterwards so experiments can
// record metrics.

#ifndef DYNAGG_SIM_ROUND_DRIVER_H_
#define DYNAGG_SIM_ROUND_DRIVER_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "obs/telemetry.h"
#include "sim/failure.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {

/// Runs up to `max_rounds` rounds of `swarm` under `env`/`pop`, applying
/// `failures` before each round and calling `on_round_end(round)` after each
/// round (round numbering starts at 0). Stops early when `on_round_end`
/// returns false — convergence-style experiments use this to avoid paying
/// for rounds that cannot change their result. Returns the number of rounds
/// executed.
template <typename Swarm>
int RunRoundsUntil(Swarm& swarm, const Environment& env, Population& pop,
                   const FailurePlan& failures, int max_rounds, Rng& rng,
                   const std::function<bool(int)>& on_round_end) {
  for (int round = 0; round < max_rounds; ++round) {
    // Telemetry: the round span covers failure application, the swarm's
    // plan/apply phases and the observer's metric evaluation.
    obs::ScopedRound span(round);
    failures.Apply(round, &pop);
    swarm.RunRound(env, pop, rng);
    if (on_round_end && !on_round_end(round)) return round + 1;
  }
  return max_rounds;
}

/// Runs `num_rounds` rounds of `swarm` under `env`/`pop`, applying `failures`
/// before each round and calling `on_round_end(round)` after each round
/// (round numbering starts at 0). `on_round_end` may be null.
template <typename Swarm>
void RunRounds(Swarm& swarm, const Environment& env, Population& pop,
               const FailurePlan& failures, int num_rounds, Rng& rng,
               const std::function<void(int)>& on_round_end = nullptr) {
  RunRoundsUntil(swarm, env, pop, failures, num_rounds, rng,
                 [&on_round_end](int round) {
                   if (on_round_end) on_round_end(round);
                   return true;
                 });
}

}  // namespace dynagg

#endif  // DYNAGG_SIM_ROUND_DRIVER_H_
