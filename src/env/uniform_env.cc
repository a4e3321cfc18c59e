#include "env/uniform_env.h"

#include <algorithm>

namespace dynagg {

void UniformEnvironment::BuildPlan(const Population& pop, Rng& rng,
                                   PartnerPlan* plan) const {
  const std::vector<HostId>& alive = pop.alive_ids();
  const std::vector<HostId>& initiators = plan->initiators();
  std::vector<HostId>& partners = *plan->mutable_partners();
  const size_t n = alive.size();
  if (n == 0) {
    partners.assign(initiators.size(), kInvalidHost);
    return;
  }
  if (n == 1) {
    // SampleAliveExcept's no-draw degenerate case, hoisted.
    for (size_t k = 0; k < initiators.size(); ++k) {
      partners[k] = alive[0] == initiators[k] ? kInvalidHost : alive[0];
    }
    return;
  }
  if (pop.version() == 0) {
    // Never-mutated population: alive_ids is the identity permutation
    // (Population's constructor order), so alive_ids[draw] == draw and the
    // table lookup can be skipped — same draws, same partners, no memory
    // traffic in the selection loop. This covers every failure-free
    // experiment.
    if (plan->identity_initiators()) {
      // Initiator of slot k is k: the draw loop touches no input array at
      // all, only the Rng and the partner store.
      for (size_t k = 0; k < initiators.size(); ++k) {
        const HostId exclude = static_cast<HostId>(k);
        HostId pick;
        do {
          pick = static_cast<HostId>(rng.UniformInt(n));
        } while (pick == exclude);
        partners[k] = pick;
      }
      return;
    }
    for (size_t k = 0; k < initiators.size(); ++k) {
      const HostId exclude = initiators[k];
      HostId pick;
      do {
        pick = static_cast<HostId>(rng.UniformInt(n));
      } while (pick == exclude);
      partners[k] = pick;
    }
    return;
  }
  // Changed population: alive_ids is a scrambled table, so every pick is a
  // random load. Each block of slots first draws its indices (Rng only),
  // prefetching each, then gathers the picks, so the loads overlap instead
  // of waiting one behind each draw. A pick equal to its initiator would
  // have been rejected and redrawn, shifting every later draw, so a block
  // holding one is redone with the sequential rejection loop from the Rng
  // state saved at its start: the draw sequence is SampleAliveExcept's.
  const HostId* alive_data = alive.data();
  const size_t slots = initiators.size();
  uint64_t draws[kUniformPlanBlock] = {};
  for (size_t begin = 0; begin < slots; begin += kUniformPlanBlock) {
    const size_t end = std::min(slots, begin + kUniformPlanBlock);
    const Rng block_start = rng;
    for (size_t k = begin; k < end; ++k) {
      draws[k - begin] = rng.UniformInt(n);
      __builtin_prefetch(&alive_data[draws[k - begin]]);
    }
    bool rejected = false;
    for (size_t k = begin; k < end; ++k) {
      partners[k] = alive_data[draws[k - begin]];
      rejected |= partners[k] == initiators[k];
    }
    if (!rejected) continue;
    rng = block_start;
    for (size_t k = begin; k < end; ++k) {
      const HostId exclude = initiators[k];
      // At most one of n >= 2 candidates is excluded, so this terminates
      // quickly.
      HostId pick;
      do {
        pick = alive_data[rng.UniformInt(n)];
      } while (pick == exclude);
      partners[k] = pick;
    }
  }
}

}  // namespace dynagg
