#include "env/trace_env.h"

#include <algorithm>
#include <span>

#include "common/macros.h"
#include "env/alive_neighbors.h"
#include "env/connectivity.h"
#include "obs/telemetry.h"

namespace dynagg {

TraceEnvironment::TraceEnvironment(const ContactTrace& trace,
                                   SimTime group_window)
    : trace_(&trace),
      group_window_(group_window),
      neighbors_(trace.num_devices()) {
  DYNAGG_CHECK(trace.finalized());
  DYNAGG_CHECK_GE(group_window, 0);
}

void TraceEnvironment::AdvanceTo(SimTime t) {
  DYNAGG_CHECK_GE(t, now_);
  const auto& events = trace_->Events();
  // The trace driver advances once per gossip tick and again for a
  // sample that shares the instant; when the clock is already at
  // `t` and no trace event is pending there is nothing to apply and the
  // recent-down prune below is idempotent, so skip the whole walk.
  if (t == now_ &&
      (next_event_ >= events.size() || events[next_event_].time > t)) {
    return;
  }
  while (next_event_ < events.size() && events[next_event_].time <= t) {
    const ContactEvent& ev = events[next_event_++];
    // The clock must track the event being applied so that LinkDown records
    // the correct drop time for the group window.
    now_ = ev.time;
    if (ev.up) {
      LinkUp(ev.a, ev.b);
    } else {
      LinkDown(ev.a, ev.b);
    }
  }
  now_ = t;
  // Prune expired entries from the recent-down map.
  const SimTime horizon = now_ - group_window_;
  for (auto it = recent_down_.begin(); it != recent_down_.end();) {
    if (it->second < horizon) {
      it = recent_down_.erase(it);
    } else {
      ++it;
    }
  }
}

void TraceEnvironment::LinkUp(HostId a, HostId b) {
  const Edge e = MakeEdge(a, b);
  if (++edges_[e] == 1) {
    neighbors_[a].push_back(b);
    neighbors_[b].push_back(a);
    recent_down_.erase(e);
    ++topology_epoch_;
  }
}

void TraceEnvironment::LinkDown(HostId a, HostId b) {
  const Edge e = MakeEdge(a, b);
  const auto it = edges_.find(e);
  DYNAGG_CHECK(it != edges_.end());
  if (--it->second == 0) {
    edges_.erase(it);
    auto drop = [](std::vector<HostId>& vec, HostId id) {
      const auto pos = std::find(vec.begin(), vec.end(), id);
      DYNAGG_CHECK(pos != vec.end());
      *pos = vec.back();
      vec.pop_back();
    };
    drop(neighbors_[a], b);
    drop(neighbors_[b], a);
    recent_down_[e] = now_;
    ++topology_epoch_;
  }
}

HostId TraceEnvironment::SamplePeer(HostId i, const Population& pop,
                                    Rng& rng) const {
  // Rejection-sample over alive in-range neighbors, with the shared exact
  // fallback (rare: trace devices are normally all alive).
  const std::span<const HostId> nbrs = neighbors_[i];
  std::vector<HostId> scratch;
  return SampleAliveNeighbor(nbrs, pop, rng,
                             [&]() -> const std::vector<HostId>& {
                               FilterAliveNeighbors(nbrs, pop, &scratch);
                               return scratch;
                             });
}

void TraceEnvironment::BuildPlan(const Population& pop, Rng& rng,
                                 PartnerPlan* plan) const {
  if (row_stamps_.empty()) {
    alive_rows_.resize(neighbors_.size());
    row_stamps_.assign(neighbors_.size(), RowStamp{});
  }
  const uint64_t pop_fingerprint = pop.fingerprint();
  const std::vector<HostId>& initiators = plan->initiators();
  std::vector<HostId>& partners = *plan->mutable_partners();
  for (size_t k = 0; k < initiators.size(); ++k) {
    const HostId i = initiators[k];
    const std::span<const HostId> nbrs = neighbors_[i];
    // Same draw sequence as SamplePeer; the fallback row comes from the
    // (topology epoch, population fingerprint)-stamped cache.
    partners[k] = SampleAliveNeighbor(
        nbrs, pop, rng, [&]() -> const std::vector<HostId>& {
          std::vector<HostId>& alive = alive_rows_[i];
          RowStamp& stamp = row_stamps_[i];
          if (stamp.topology != topology_epoch_ ||
              stamp.population != pop_fingerprint) {
            obs::Count(obs::Counter::kPlanCacheRebuilds);
            FilterAliveNeighbors(nbrs, pop, &alive);
            stamp = RowStamp{topology_epoch_, pop_fingerprint};
          } else {
            obs::Count(obs::Counter::kPlanCacheHits);
          }
          return alive;
        });
  }
}

void TraceEnvironment::AppendNeighbors(HostId i, const Population& pop,
                                       std::vector<HostId>* out) const {
  for (const HostId id : neighbors_[i]) {
    if (pop.IsAlive(id)) out->push_back(id);
  }
}

std::vector<int> TraceEnvironment::CurrentGroups() const {
  std::vector<Edge> edge_list;
  edge_list.reserve(edges_.size() + recent_down_.size());
  for (const auto& [edge, count] : edges_) edge_list.push_back(edge);
  const SimTime horizon = now_ - group_window_;
  for (const auto& [edge, down_time] : recent_down_) {
    if (down_time >= horizon) edge_list.push_back(edge);
  }
  return ConnectedComponents(trace_->num_devices(), edge_list);
}

double TraceEnvironment::AverageGroupSize() const {
  const std::vector<int> labels = CurrentGroups();
  if (labels.empty()) return 0.0;
  const std::vector<int> sizes = ComponentSizes(labels);
  double total = 0.0;
  for (const int label : labels) total += sizes[label];
  return total / static_cast<double>(labels.size());
}

}  // namespace dynagg
