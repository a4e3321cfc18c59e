// Push-Flow: loss-tolerant distributed averaging via conserved edge flows.
//
// Push-sum conserves MASS: every message carries mass out of the sender,
// so a lost message destroys mass and the network converges to the wrong
// average (Jesus et al.'s survey names this the canonical failure of
// mass-conserving gossip). Push-flow (after the Skywing PushFlowProcessor)
// instead conserves FLOW: host i keeps, per neighbor j, the cumulative
// flow o_ij = <num, denom> of everything it has ever pushed toward j, and
// separately its view r_ij of what j has pushed toward it. Its effective
// state is its initial value minus the outflow plus the seen inflow:
//
//   m_i = v_i - sum_j o_ij.num + sum_j r_ij.num
//   w_i = 1   - sum_j o_ij.denom + sum_j r_ij.denom
//   estimate_i = m_i / w_i
//
// A push toward j adds half the effective state to o_ij and sends the
// CUMULATIVE o_ij (not a delta); the receiver overwrites its r view with
// it. The two directions of an edge are owned by different hosts and
// never write each other's variables, so concurrent opposite pushes on
// one edge compose cleanly (a single shared antisymmetric edge variable,
// as in the original processor, loses its owner's concurrent push every
// time an adoption overwrites it — under random gossip pairing that
// injects an error of half the effective mass about once per tick and
// puts a floor under convergence). Because every message restates the
// whole cumulative flow, a lost message costs nothing durable — the next
// push on the same edge self-heals the receiver's view — and the
// per-direction sequence number makes reordered deliveries harmless
// (stale cumulative flows are dropped). Whenever every r matches its o,
// sum_i m_i = sum_i v_i exactly. This is the control protocol of the
// async driver's loss-rate sweeps, with push-sum as the victim.

#ifndef DYNAGG_AGG_PUSH_FLOW_H_
#define DYNAGG_AGG_PUSH_FLOW_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "net/message.h"
#include "sim/bandwidth.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {

/// Payload of one flow message over the air: the cumulative <num, denom>
/// outgoing flow plus its per-direction sequence number.
inline constexpr int64_t kFlowMessageBytes = 2 * sizeof(double) +
                                             sizeof(uint64_t);

/// A population of push-flow states driven on the shared plan -> apply
/// round kernel (synchronous rounds) or message-by-message through the
/// async driver.
class PushFlowSwarm {
 public:
  /// One host per entry of `values`, each starting with weight 1.
  explicit PushFlowSwarm(const std::vector<double>& values);

  /// Synchronous round (`driver = rounds` / `trace`): plans push partners
  /// and delivers every flow message instantly.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Message-level gossip tick (`driver = async`): records each matched
  /// initiator's push in its own outgoing edge flow and plans the
  /// message, without delivering anything. Delivery (possibly late,
  /// reordered, or never) goes through Deliver.
  void PlanAsyncTick(const Environment& env, const Population& pop, Rng& rng,
                     std::vector<net::Message>* out);

  /// Applies one delivered flow message to the receiver: overwrites its
  /// view of the sender's cumulative outgoing flow, ignoring stale
  /// sequence numbers from reordered deliveries.
  void Deliver(const net::Message& m);
  /// Over-the-air bytes of one message planned by PlanAsyncTick.
  static constexpr int64_t kMessageBytes = kFlowMessageBytes;

  /// Current estimate of the network-wide average at `id`. Falls back to
  /// the initial value should the effective weight ever be non-positive
  /// (cannot happen through protocol operation, but keeps the estimate
  /// total like push-sum's).
  double Estimate(HostId id) const {
    const double w = effective_weight(id);
    return w > 0.0 ? effective_mass(id) / w : values_[id];
  }

  int size() const { return static_cast<int>(values_.size()); }
  double initial_value(HostId id) const { return values_[id]; }

  /// Effective <mass, weight> at `id` (diagnostics and conservation
  /// tests): the initial state minus the outflow plus the seen inflow.
  double effective_mass(HostId id) const {
    return values_[id] - sent_num_[id] + recv_num_[id];
  }
  double effective_weight(HostId id) const {
    return 1.0 - sent_denom_[id] + recv_denom_[id];
  }

  /// Whether `self` tracks an edge toward `peer`, and how many edges it
  /// tracks (diagnostics and churn tests).
  bool tracks_edge(HostId self, HostId peer) const {
    const std::vector<HostId>& peers = edges_[self].peers;
    return std::find(peers.begin(), peers.end(), peer) != peers.end();
  }
  int num_edges(HostId id) const {
    return static_cast<int>(edges_[id].peers.size());
  }

  /// Optionally records over-the-air traffic under the synchronous
  /// drivers (the async driver meters at send time itself). Pass nullptr
  /// to disable. The meter must outlive the swarm.
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

  /// Churn-join reset: tears down every edge incident to `id` on BOTH
  /// endpoints. A self-only reset would deadlock the reborn host's
  /// outbound direction: its sent_seq restarts at 0 while each neighbor's
  /// seen_seq stays high, so the neighbor would drop every future push as
  /// stale. Dropping the neighbor's half instead returns the flow it had
  /// pushed toward `id` (and forgets the inflow it had adopted from the
  /// old incarnation), restoring conservation over the live hosts.
  void OnJoin(HostId id);

 private:
  /// One gossiped edge as its owner sees it: the cumulative flow pushed
  /// toward the neighbor (out_*, only this host writes it, sent_seq
  /// counts the pushes) and the adopted view of the neighbor's cumulative
  /// flow back (in_*, only Deliver writes it, seen_seq guards against
  /// reordering). Both accumulations are monotone.
  struct EdgeFlow {
    double out_num = 0.0;
    double out_denom = 0.0;
    double in_num = 0.0;
    double in_denom = 0.0;
    uint64_t sent_seq = 0;
    uint64_t seen_seq = 0;
  };

  /// The edges one host has actually exchanged over, stored contiguously:
  /// flows[k] is the edge toward peers[k]. Lookup is a linear scan of the
  /// packed peer ids — a handful under a bounded-degree graph, a few
  /// hundred under uniform pairing — which beats a per-host hash map's
  /// node chasing at both ends. Order is insertion order, except that
  /// OnJoin fills a removed edge's slot with the last one.
  struct HostEdges {
    std::vector<HostId> peers;
    std::vector<EdgeFlow> flows;
  };

  /// Host `self`'s state for edge self<->peer, created zeroed on first use.
  EdgeFlow& EdgeTo(HostId self, HostId peer);

  /// Moves half of `src`'s effective state into its outgoing flow toward
  /// `dst` and returns the message restating that cumulative flow.
  net::Message PlanPush(HostId src, HostId dst);

  std::vector<double> values_;  // immutable initial values
  /// edges_[i]: host i's edges. Sparse: a host only ever tracks neighbors
  /// it has actually exchanged with.
  std::vector<HostEdges> edges_;
  // Running sums of edges_[i]'s out_* resp. in_* so Estimate() is O(1).
  std::vector<double> sent_num_;
  std::vector<double> sent_denom_;
  std::vector<double> recv_num_;
  std::vector<double> recv_denom_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_PUSH_FLOW_H_
