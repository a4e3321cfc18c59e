// PartnerPlan: one gossip round's partner selections as a flat SoA batch.
//
// Environment API v2 splits a round into plan-then-apply: instead of one
// virtual SamplePeer call per alive host, the round kernel (sim/round_kernel.h)
// fills a PartnerPlan once per round via Environment::BuildPlan and then
// applies the protocol's exchanges over the flat arrays. Environments can
// batch the whole selection pass — hoisting per-call dispatch, reusing
// alive-neighbor caches, keeping the hot loop over two contiguous arrays —
// as long as they consume the Rng exactly as the equivalent sequence of
// SamplePeer calls would (the bit-reproducibility contract every parity
// test pins).

#ifndef DYNAGG_ENV_PARTNER_PLAN_H_
#define DYNAGG_ENV_PARTNER_PLAN_H_

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace dynagg {

/// A round's planned exchanges, structure-of-arrays: slot `k` means
/// initiator `initiators()[k]` gossips with `partners()[k]`. A host may own
/// several consecutive slots (full-transfer parcels). `kInvalidHost` in
/// `partners()` marks a slot whose initiator found no reachable alive peer.
class PartnerPlan {
 public:
  /// Resets to `initiators`, sizing (but not filling) the partner array:
  /// Environment::BuildPlan must write every slot. The caller (round
  /// kernel) decides the initiator order — alive order for simultaneous
  /// push rounds, a shuffled order for sequential pairwise exchanges — and
  /// BuildPlan fills `partners` slot by slot in exactly that order.
  void Reset(const std::vector<HostId>& initiators, int slots_per_initiator);

  size_t size() const { return initiators_.size(); }
  bool empty() const { return initiators_.empty(); }

  const std::vector<HostId>& initiators() const { return initiators_; }
  const std::vector<HostId>& partners() const { return partners_; }
  /// Mutable partner array for Environment::BuildPlan implementations.
  std::vector<HostId>* mutable_partners() { return &partners_; }
  /// Mutable initiator array, for the round kernel to reorder in place
  /// before BuildPlan (the shuffled exchange order). Its size is the
  /// plan's: reorder, never resize.
  std::vector<HostId>* mutable_initiators() { return &initiators_; }

  HostId initiator(size_t k) const { return initiators_[k]; }
  HostId partner(size_t k) const { return partners_[k]; }

  /// True when initiators()[k] == k for every slot (a full, never-mutated
  /// population planned in alive order with one slot per host). Apply
  /// loops specialize on this: the initiator array does not need to be
  /// read at all. Set by the round kernel at plan time.
  bool identity_initiators() const { return identity_initiators_; }
  void set_identity_initiators(bool identity) {
    identity_initiators_ = identity;
  }

  /// The slot's deposit destination: the partner, or the initiator itself
  /// when no peer was reachable (push-style protocols return the payload to
  /// the sender rather than losing it over the air).
  HostId EffectivePartner(size_t k) const {
    return partners_[k] == kInvalidHost ? initiators_[k] : partners_[k];
  }

  /// Number of slots with a reachable partner (= over-the-air messages of a
  /// one-payload-per-slot push round; metering batches on this).
  int64_t CountMatched() const;

 private:
  std::vector<HostId> initiators_;
  std::vector<HostId> partners_;
  bool identity_initiators_ = false;
};

}  // namespace dynagg

#endif  // DYNAGG_ENV_PARTNER_PLAN_H_
