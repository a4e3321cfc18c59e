#include "agg/push_flow.h"

#include <algorithm>
#include <cstddef>

namespace dynagg {

PushFlowSwarm::PushFlowSwarm(const std::vector<double>& values)
    : values_(values),
      edges_(values.size()),
      sent_num_(values.size(), 0.0),
      sent_denom_(values.size(), 0.0),
      recv_num_(values.size(), 0.0),
      recv_denom_(values.size(), 0.0) {}

PushFlowSwarm::EdgeFlow& PushFlowSwarm::EdgeTo(HostId self, HostId peer) {
  HostEdges& h = edges_[self];
  const auto it = std::find(h.peers.begin(), h.peers.end(), peer);
  if (it != h.peers.end()) return h.flows[it - h.peers.begin()];
  h.peers.push_back(peer);
  return h.flows.emplace_back();
}

net::Message PushFlowSwarm::PlanPush(HostId src, HostId dst) {
  EdgeFlow& f = EdgeTo(src, dst);
  const double half_m = effective_mass(src) * 0.5;
  const double half_w = effective_weight(src) * 0.5;
  f.out_num += half_m;
  f.out_denom += half_w;
  sent_num_[src] += half_m;
  sent_denom_[src] += half_w;
  return net::Message{src, dst, f.out_num, f.out_denom, ++f.sent_seq};
}

void PushFlowSwarm::Deliver(const net::Message& m) {
  EdgeFlow& g = EdgeTo(m.dst, m.src);
  // A stale cumulative flow (overtaken in flight) carries strictly less
  // information than what this host already adopted: drop it.
  if (m.tag <= g.seen_seq) return;
  recv_num_[m.dst] += m.a - g.in_num;
  recv_denom_[m.dst] += m.b - g.in_denom;
  g.in_num = m.a;
  g.in_denom = m.b;
  g.seen_seq = m.tag;
}

void PushFlowSwarm::OnJoin(HostId id) {
  // Bilateral edge teardown: each neighbor forgets the edge toward the old
  // incarnation of `id`, reclaiming its own outgoing flow and dropping the
  // adopted inflow. Only then is `id`'s side cleared, so conservation over
  // live hosts holds before and after.
  HostEdges& mine = edges_[id];
  for (const HostId peer : mine.peers) {
    HostEdges& theirs = edges_[peer];
    const auto it = std::find(theirs.peers.begin(), theirs.peers.end(), id);
    if (it == theirs.peers.end()) continue;
    const size_t k = static_cast<size_t>(it - theirs.peers.begin());
    const EdgeFlow& back = theirs.flows[k];
    sent_num_[peer] -= back.out_num;
    sent_denom_[peer] -= back.out_denom;
    recv_num_[peer] -= back.in_num;
    recv_denom_[peer] -= back.in_denom;
    theirs.peers[k] = theirs.peers.back();
    theirs.peers.pop_back();
    theirs.flows[k] = theirs.flows.back();
    theirs.flows.pop_back();
  }
  mine.peers.clear();
  mine.flows.clear();
  sent_num_[id] = 0.0;
  sent_denom_[id] = 0.0;
  recv_num_[id] = 0.0;
  recv_denom_[id] = 0.0;
}

void PushFlowSwarm::RunRound(const Environment& env, const Population& pop,
                             Rng& rng) {
  // Synchronous rounds are the async protocol on a perfect network: plan
  // the partners, then deliver every flow message instantly. In-round
  // sequencing follows plan order, the same sequential semantics the other
  // exchange protocols use.
  kernel_.PlanPushRound(env, pop, rng);
  kernel_.ForEachSlot([this](HostId src, HostId partner) {
    if (partner == kInvalidHost) return;  // no reachable peer this round
    const net::Message msg = PlanPush(src, partner);
    if (meter_ != nullptr) meter_->RecordMessage(kFlowMessageBytes);
    Deliver(msg);
  });
}

void PushFlowSwarm::PlanAsyncTick(const Environment& env,
                                  const Population& pop, Rng& rng,
                                  std::vector<net::Message>* out) {
  kernel_.PlanPushRound(env, pop, rng);
  kernel_.ForEachSlot([this, out](HostId src, HostId partner) {
    if (partner == kInvalidHost) return;
    out->push_back(PlanPush(src, partner));
  });
}

}  // namespace dynagg
