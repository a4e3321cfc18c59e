// SwarmHandles and protocol capabilities derived from the swarm type.
//
// A swarm protocol's factory builds one *box* per trial: the swarm (member
// `swarm`) plus whatever the protocol measures it against. MakeSwarmHandle
// turns the box into a type-erased SwarmHandle and sets each optional hook
// exactly when the box or swarm type has the matching member (C++20
// requires-expressions). SwarmProtocol registers the factory with the
// Capabilities computed from the same concepts. A protocol declares a
// capability once, by having the member, so `--dry-run` (which reads
// ProtocolDef::capabilities) cannot disagree with execution (which reads
// the hooks).
//
// The box supplies the measure:
//   double Estimate(HostId) const            -> estimate, rms_deviation
//                                               (required)
//   double Truth(const Population&) const    -> truth (required)
//   double state_bytes                       -> state_bytes (required)
//   GroupTruths(labels, sizes) const         -> group_truths     kTrace
//   double GroupEstimate(HostId) const       -> group_estimate
//   std::vector<double> values               -> failure_values   kValueBacked
//   double GossipBytes() const               -> gossip_bytes     kGossipBytes
//   Status Finish(const TrialContext&, Recorder&) const -> finish
// and the swarm its protocol steps:
//   RunRound(env, pop, rng)                  -> run_round (required)
//   set_traffic_meter(TrafficMeter*)         -> set_meter        kMetered
//   set_intra_round_threads(int)             -> set_threads      kThreads
//   OnJoin(HostId)                           -> on_join          kJoin
//   PlanAsyncTick(env, pop, rng, out), Deliver(msg), kMessageBytes
//                                            -> async_tick, async_deliver,
//                                               message_bytes    kAsync
// Deliver(msg) must read and write only host msg.dst's state: the async
// driver delivers each drain host-major, in (dst, due, send order), which
// is exact only because deliveries to different hosts commute (the
// async_deliver contract in scenario/trial.h).
//
// Each hook is one lambda over a raw pointer into the box, so a driver's
// per-host `estimate` call stays a single std::function call, and
// `rms_deviation` scans every alive host with Estimate inlined.

#ifndef DYNAGG_SCENARIO_SWARM_HANDLE_H_
#define DYNAGG_SCENARIO_SWARM_HANDLE_H_

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "env/connectivity.h"
#include "env/environment.h"
#include "net/message.h"
#include "scenario/spec.h"
#include "scenario/trial.h"
#include "sim/metrics.h"
#include "sim/population.h"

namespace dynagg {
namespace scenario {

template <typename Box>
using SwarmOf = decltype(Box::swarm);

/// What a swarm protocol's factory returns: one trial's box.
template <typename Box>
using BoxResult = Result<std::shared_ptr<Box>>;

// ------------------------------------------------------- measure traits ---

template <typename Box>
concept GroupMeasured = requires(const Box& b, const std::vector<int>& v) {
  { b.GroupTruths(v, v) } -> std::same_as<std::vector<double>>;
};

template <typename Box>
concept GroupEstimated = requires(const Box& b, HostId id) {
  { b.GroupEstimate(id) } -> std::same_as<double>;
};

template <typename Box>
concept ValueBacked = requires(const Box& b) {
  { b.values } -> std::same_as<const std::vector<double>&>;
};

template <typename Box>
concept GossipModelled = requires(const Box& b) {
  { b.GossipBytes() } -> std::same_as<double>;
};

template <typename Box>
concept Finishing = requires(const Box& b, const TrialContext& ctx,
                             Recorder& rec) {
  { b.Finish(ctx, rec) } -> std::same_as<Status>;
};

// --------------------------------------------------------- swarm traits ---

template <typename Swarm>
concept Metered = requires(Swarm& s, TrafficMeter* m) {
  s.set_traffic_meter(m);
};

template <typename Swarm>
concept Threaded = requires(Swarm& s, int t) {
  s.set_intra_round_threads(t);
};

template <typename Swarm>
concept Joinable = requires(Swarm& s, HostId id) { s.OnJoin(id); };

template <typename Swarm>
concept MessageLevel =
    requires(Swarm& s, const Environment& e, const Population& p, Rng& r,
             std::vector<net::Message>* out, const net::Message& m) {
      s.PlanAsyncTick(e, p, r, out);
      s.Deliver(m);
      { Swarm::kMessageBytes } -> std::convertible_to<int64_t>;
    };

// -------------------------------------------------------------- adapter ---

/// The capability set of protocols whose factory builds a `Box`.
template <typename Box>
constexpr Capabilities SwarmCapabilities() {
  using Swarm = SwarmOf<Box>;
  Capabilities caps;
  if (GroupMeasured<Box>) caps.Add(Capability::kTrace);
  if (Threaded<Swarm>) caps.Add(Capability::kThreads);
  if (MessageLevel<Swarm>) caps.Add(Capability::kAsync);
  if (Joinable<Swarm>) caps.Add(Capability::kJoin);
  if (GossipModelled<Box>) caps.Add(Capability::kGossipBytes);
  if (Metered<Swarm>) caps.Add(Capability::kMetered);
  if (ValueBacked<Box>) caps.Add(Capability::kValueBacked);
  return caps;
}

/// Type-erases one trial's box; the handle's keepalive owns it.
template <typename Box>
SwarmHandle MakeSwarmHandle(std::shared_ptr<Box> box) {
  using Swarm = SwarmOf<Box>;
  const Box* b = box.get();
  Swarm* s = &box->swarm;
  SwarmHandle h;
  h.run_round = [s](const Environment& e, const Population& p, Rng& r) {
    s->RunRound(e, p, r);
  };
  h.estimate = [b](HostId id) { return b->Estimate(id); };
  h.truth = [b](const Population& pop) { return b->Truth(pop); };
  h.rms_deviation = [b](const Population& pop, double truth) {
    return RmsDeviationOverAlive(pop, truth,
                                 [b](HostId id) { return b->Estimate(id); });
  };
  h.state_bytes = b->state_bytes;
  if constexpr (GroupMeasured<Box>) {
    h.group_truths = [b](const std::vector<int>& labels,
                         const std::vector<int>& sizes) {
      return b->GroupTruths(labels, sizes);
    };
  }
  if constexpr (GroupEstimated<Box>) {
    h.group_estimate = [b](HostId id) { return b->GroupEstimate(id); };
  }
  if constexpr (ValueBacked<Box>) h.failure_values = &b->values;
  if constexpr (GossipModelled<Box>) h.gossip_bytes = b->GossipBytes();
  if constexpr (Metered<Swarm>) {
    h.set_meter = [s](TrafficMeter* m) { s->set_traffic_meter(m); };
  }
  if constexpr (Threaded<Swarm>) {
    h.set_threads = [s](int t) { s->set_intra_round_threads(t); };
  }
  if constexpr (Joinable<Swarm>) {
    h.on_join = [s](HostId id) { s->OnJoin(id); };
  }
  if constexpr (MessageLevel<Swarm>) {
    static_assert(Swarm::kMessageBytes > 0,
                  "an async swarm's kMessageBytes is its per-message "
                  "payload size and must be positive");
    h.async_tick = [s](const Environment& e, const Population& p, Rng& r,
                       std::vector<net::Message>* out) {
      s->PlanAsyncTick(e, p, r, out);
    };
    h.async_deliver = [s](const net::Message& m) { s->Deliver(m); };
    h.message_bytes = static_cast<double>(Swarm::kMessageBytes);
  }
  if constexpr (Finishing<Box>) {
    h.finish = [b](const TrialContext& ctx, Recorder& rec) {
      return b->Finish(ctx, rec);
    };
  }
  h.keepalive = std::move(box);
  return h;
}

/// A ProtocolDef for a swarm protocol: `build` makes one trial's box, and
/// the capabilities come from the box type through the concepts
/// MakeSwarmHandle reads.
template <typename Box>
ProtocolDef SwarmProtocol(
    BoxResult<Box> (*build)(const TrialContext&, EnvHandle&),
    decltype(ProtocolDef::validate) validate) {
  ProtocolDef def;
  def.make_swarm = [build](const TrialContext& ctx,
                           EnvHandle& env) -> Result<SwarmHandle> {
    DYNAGG_ASSIGN_OR_RETURN(std::shared_ptr<Box> box, build(ctx, env));
    return MakeSwarmHandle(std::move(box));
  };
  def.capabilities = SwarmCapabilities<Box>();
  def.validate = std::move(validate);
  return def;
}

// ------------------------------------------------------- stock measures ---
//
// Swarm constructors take the workload by reference, so it is declared
// before the swarm.

/// The averaging measure over a per-host value workload: the live average
/// is the truth, a trace group's truth is its members' mean, and the
/// values back kill_top_fraction.
template <typename Swarm>
struct AverageBox {
  std::vector<double> values;
  Swarm swarm;
  double state_bytes = 0.0;

  template <typename... Args>
  explicit AverageBox(std::vector<double> v, Args&&... args)
      : values(std::move(v)), swarm(values, std::forward<Args>(args)...) {}

  double Estimate(HostId id) const { return swarm.Estimate(id); }
  double Truth(const Population& pop) const {
    return TrueAverage(values, pop);
  }
  std::vector<double> GroupTruths(const std::vector<int>& labels,
                                  const std::vector<int>& sizes) const {
    return GroupMeans(labels, sizes, values);
  }
};

/// The counting measure over per-host identifier multiplicities: the live
/// total count is the truth; trace playback compares the per-identifier
/// estimate scaled back to devices against the group size (Fig 11's
/// dynamic size).
template <typename Swarm>
struct CountBox {
  std::vector<int64_t> mult;
  Swarm swarm;
  double state_bytes = 0.0;

  template <typename... Args>
  explicit CountBox(std::vector<int64_t> m, Args&&... args)
      : mult(std::move(m)), swarm(mult, std::forward<Args>(args)...) {}

  double Estimate(HostId id) const { return swarm.EstimateCount(id); }
  double Truth(const Population& pop) const {
    int64_t total = 0;
    ForEachAliveId(pop, [&](HostId id) { total += mult[id]; });
    return static_cast<double>(total);
  }
  double GroupEstimate(HostId id) const {
    return swarm.EstimateCount(id) / static_cast<double>(mult[id]);
  }
  std::vector<double> GroupTruths(const std::vector<int>&,
                                  const std::vector<int>& sizes) const {
    return std::vector<double>(sizes.begin(), sizes.end());
  }
};

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_SWARM_HANDLE_H_
