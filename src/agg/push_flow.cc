#include "agg/push_flow.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/macros.h"

namespace dynagg {

PushFlowSwarm::PushFlowSwarm(const std::vector<double>& values)
    : values_(values),
      rows_(values.size()),
      peer_chunks_(1),
      flow_chunks_(1),
      sent_num_(values.size(), 0.0),
      sent_denom_(values.size(), 0.0),
      recv_num_(values.size(), 0.0),
      recv_denom_(values.size(), 0.0) {}

PushFlowSwarm::EdgeFlow& PushFlowSwarm::EdgeTo(HostId self, HostId peer) {
  Row& r = rows_[self];
  const HostId* peers = PeersOf(r);
  const HostId* it = std::find(peers, peers + r.len, peer);
  if (it != peers + r.len) return FlowsOf(r)[it - peers];
  if (r.len == r.cap) Grow(r);
  const uint32_t k = r.len++;
  PeersOf(r)[k] = peer;
  EdgeFlow& f = FlowsOf(r)[k];
  f = EdgeFlow{};
  return f;
}

void PushFlowSwarm::Grow(Row& r) {
  const size_t cap = r.cap == 0 ? 4 : 2 * size_t{r.cap};
  if (flow_chunks_.back().size() + cap > flow_chunks_.back().capacity()) {
    // The first chunk holds every host's first row; each later one at
    // least everything reserved so far, so there are O(log) chunks.
    const size_t slots = std::max({cap, 4 * rows_.size(), reserved_});
    DYNAGG_CHECK(slots <= std::numeric_limits<uint32_t>::max());
    peer_chunks_.emplace_back().reserve(slots);
    flow_chunks_.emplace_back().reserve(slots);
    reserved_ += slots;
  }
  std::vector<HostId>& peers = peer_chunks_.back();
  std::vector<EdgeFlow>& flows = flow_chunks_.back();
  const size_t begin = flows.size();
  peers.resize(begin + cap);  // within capacity: no row moves
  flows.resize(begin + cap);
  std::copy_n(PeersOf(r), r.len, peers.data() + begin);
  std::copy_n(FlowsOf(r), r.len, flows.data() + begin);
  r.chunk = static_cast<uint32_t>(flow_chunks_.size() - 1);
  r.begin = static_cast<uint32_t>(begin);
  r.cap = static_cast<uint32_t>(cap);
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
  Row& mine = rows_[id];
  for (uint32_t j = 0; j < mine.len; ++j) {
    const HostId peer = PeersOf(mine)[j];
    Row& theirs = rows_[peer];
    HostId* peers = PeersOf(theirs);
    HostId* it = std::find(peers, peers + theirs.len, id);
    if (it == peers + theirs.len) continue;
    const auto k = static_cast<size_t>(it - peers);
    const uint32_t last = --theirs.len;
    EdgeFlow* flows = FlowsOf(theirs);
    sent_num_[peer] -= flows[k].out_num;
    sent_denom_[peer] -= flows[k].out_denom;
    recv_num_[peer] -= flows[k].in_num;
    recv_denom_[peer] -= flows[k].in_denom;
    peers[k] = peers[last];
    flows[k] = flows[last];
  }
  mine.len = 0;
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
