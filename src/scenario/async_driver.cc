#include "scenario/async_driver.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/inflight_queue.h"
#include "net/message.h"
#include "obs/telemetry.h"
#include "scenario/config.h"
#include "sim/metrics.h"
#include "sim/population.h"

namespace dynagg {
namespace scenario {
namespace {

/// The async driver's record parse. The per-tick samples (the rms series
/// and the rms_tail_mean window, thinned by record.from / record.every)
/// follow the rounds driver's RoundIsRead rule; the rest is measured once
/// the network has settled.
struct AsyncRecord {
  MetricFlags sampled;  // rms, tail_mean
  RecordConfig window;  // from, every
  bool final_rms = false;
  bool bandwidth = false;
  bool gossip_bytes = false;
  bool delivery_rate = false;
};

Result<AsyncRecord> ParseAsyncRecord(const ScenarioSpec& spec,
                                     RecordReader& r) {
  AsyncRecord out;
  out.sampled.rms = r.Want("rms");
  out.sampled.tail_mean = r.Want("rms_tail_mean");
  out.final_rms = r.Want("final_rms");
  out.bandwidth = r.Want("bandwidth");
  out.gossip_bytes = r.Want("gossip_bytes");
  out.delivery_rate = r.Want("delivery_rate");
  DYNAGG_ASSIGN_OR_RETURN(out.window.from,
                          r.Int<int>("record.from", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(out.window.every,
                          r.Int<int>("record.every", 1, 1, kIntMax));
  if (out.sampled.tail_mean && out.window.from >= spec.rounds) {
    return Status::InvalidArgument(
        "driver = async: record.from = " + std::to_string(out.window.from) +
        " leaves no ticks to average (rounds = " +
        std::to_string(spec.rounds) + ")");
  }
  return out;
}

Status RunAsyncDriver(const TrialContext& ctx, const ProtocolDef& def,
                      Recorder& rec) {
  // Setup phase: config parsing, environment/swarm construction. The
  // spec-only checks (ValidateAsyncDriver) ran in ValidateExperiment on
  // this exact spec.
  std::optional<obs::ScopedPhase> setup_span(std::in_place,
                                             obs::Phase::kSetup);
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(const net::NetworkParams net_params,
                          ParseNetworkParams(spec));
  RecordReader records(spec);
  DYNAGG_ASSIGN_OR_RETURN(const AsyncRecord want,
                          ParseAsyncRecord(spec, records));
  const int from = want.window.from;
  const int every = want.window.every;

  DYNAGG_ASSIGN_OR_RETURN(EnvHandle env, MakeEnvironment(ctx));
  // The async capability is derived from the hooks MakeSwarmHandle sets,
  // and it asserts a positive payload size.
  DYNAGG_ASSIGN_OR_RETURN(SwarmHandle swarm, def.make_swarm(ctx, env));
  const int n = env.env->num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          RoundStream(spec, ctx, n));
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t message_stream,
                          MessageStream(spec, ctx, n));

  const SimTime gossip_period = GossipPeriod(spec);
  const int ticks = spec.rounds;

  Population pop(n);
  Rng rng(DeriveSeed(ctx.trial_seed, round_stream));
  net::NetworkModel model(net_params,
                          DeriveSeed(ctx.trial_seed, message_stream));
  Environment* raw_env = env.env.get();
  const SimTime advance_period = env.advance_period;

  int64_t sent = 0;
  int64_t delivered = 0;
  uint64_t message_index = 0;
  std::vector<net::Message> wave;  // scratch: one tick's planned sends
  net::InFlightQueue inflight;     // undropped messages awaiting delivery
  inflight.Reserve(static_cast<size_t>(n));
  const auto drain_due = [&](SimTime t) {
    while (inflight.HasDueBy(t)) {
      swarm.async_deliver(inflight.Top());
      ++delivered;
      inflight.Pop();
    }
  };

  // Declare the series up front so batches stay structurally identical
  // even when the recording window is empty.
  if (want.sampled.rms) rec.MutableSeries("round", "rms");
  RunningStat tail;

  const auto rms_now = [&]() {
    return swarm.rms_deviation(pop, swarm.truth(pop));
  };

  setup_span.reset();
  // Tick k fires at t = (k+1) * gossip_period. At each tick instant the
  // messages due by t land first, then the tick plans its send wave and
  // runs every message through the network model (dropped messages count
  // as sent: they consumed real bandwidth), then the messages the wave
  // made due by t land too, and only then does the metric sample observe
  // the state.
  for (int k = 0; k < ticks; ++k) {
    const SimTime t = static_cast<SimTime>(k + 1) * gossip_period;
    drain_due(t);
    if (advance_period > 0) {
      raw_env->AdvanceTo(static_cast<SimTime>(k + 1) * advance_period);
    }
    wave.clear();
    swarm.async_tick(*raw_env, pop, rng, &wave);
    sent += static_cast<int64_t>(wave.size());
    for (const net::Message& m : wave) {
      const net::NetworkModel::Delivery d = model.Decide(message_index++);
      if (d.dropped) continue;
      inflight.Push(t + d.delay, m);
    }
    drain_due(t);
    // Only the samples a series point or the tail reads are evaluated.
    if (RoundIsRead(want.sampled, want.window, ticks, k)) {
      obs::ScopedPhase record_span(obs::Phase::kRecord);
      const double rms = rms_now();
      if (want.sampled.rms && k >= from && (k - from) % every == 0) {
        rec.AddSeriesPoint("round", "rms", static_cast<double>(k + 1), rms);
      }
      if (want.sampled.tail_mean && k >= from) tail.Add(rms);
    }
  }
  // Drain the messages still in flight after the last tick in (due, send)
  // order — final_rms is a settled-network measurement.
  while (!inflight.empty()) {
    swarm.async_deliver(inflight.Top());
    ++delivered;
    inflight.Pop();
  }
  obs::Count(obs::Counter::kRngDraws,
             static_cast<int64_t>(rng.draw_count()) + model.rng_draws());
  obs::ScopedPhase record_span(obs::Phase::kRecord);

  if (want.sampled.tail_mean) rec.AddScalar("rms_tail_mean", tail.mean());
  if (want.final_rms) rec.AddScalar("final_rms", rms_now());
  if (want.delivery_rate) {
    rec.AddScalar("delivery_rate",
                  sent > 0 ? static_cast<double>(delivered) /
                                 static_cast<double>(sent)
                           : 1.0);
  }
  const double denom = static_cast<double>(n) * ticks;
  if (want.gossip_bytes) {
    rec.AddScalar("gossip_bytes",
                  static_cast<double>(sent) * swarm.message_bytes / denom);
  }
  if (want.bandwidth) {
    rec.SetBandwidth(static_cast<double>(sent) / denom,
                     static_cast<double>(sent) * swarm.message_bytes / denom,
                     swarm.state_bytes);
  }
  return Status::OK();
}

/// The async driver's validate: RunAsyncDriver's parses (record, network
/// model, round and message streams) and checks, then the protocol's parse
/// (whose record reads do not count: the driver runs no finish hook). It
/// reads no failure.* or churn.* key: a departure or arrival under
/// message-level time would be an event in the in-flight timeline, which
/// is not implemented yet.
Status ValidateAsyncDriver(const TrialContext& ctx,
                           const ProtocolDef& protocol, const EnvironmentDef&,
                           int env_hosts, RecordReader& records) {
  const ScenarioSpec& spec = *ctx.spec;
  const auto invalid = [&](const std::string& what) {
    return Status::InvalidArgument("driver = async: " + what);
  };
  // A custom runner owns its whole trial loop and has no capabilities.
  if (!protocol.capabilities.Has(Capability::kAsync)) {
    return invalid("protocol '" + spec.protocol +
                   "' does not support message-level gossip (async-capable "
                   "protocols declare send/deliver hooks — see `dynagg_run "
                   "--list`)");
  }
  if (spec.intra_round_threads > 1) {
    return invalid(
        "message-level delivery is inherently sequential; "
        "intra_round_threads does not apply");
  }
  if (spec.sample_period > 0) {
    return invalid(
        "sample_period does not apply (metrics are sampled once per gossip "
        "tick; thin the series with record.from / record.every)");
  }
  // Tick k fires at (k + 1) * gossip_period: the last one must fit too.
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("gossip_period", spec.gossip_period));
  const SimTime period = GossipPeriod(spec);
  if (spec.rounds > kSimTimeMax / period) {
    return invalid("rounds = " + std::to_string(spec.rounds) +
                   " ticks of gossip_period overflow simulated time "
                   "(64-bit microseconds)");
  }
  DYNAGG_RETURN_IF_ERROR(ParseAsyncRecord(spec, records).status());
  DYNAGG_RETURN_IF_ERROR(ParseNetworkParams(spec).status());
  DYNAGG_RETURN_IF_ERROR(RoundStream(spec, ctx, env_hosts).status());
  DYNAGG_RETURN_IF_ERROR(MessageStream(spec, ctx, env_hosts).status());
  RecordReader unused(spec);
  return protocol.validate(ctx, unused);
}

}  // namespace

Result<net::NetworkParams> ParseNetworkParams(const ScenarioSpec& spec) {
  ParamReader r(spec, "net.");
  net::NetworkParams p;
  DYNAGG_ASSIGN_OR_RETURN(const std::string kind,
                          r.String("net.latency", "fixed"));
  if (kind == "fixed") {
    p.latency = net::LatencyKind::kFixed;
  } else if (kind == "uniform") {
    p.latency = net::LatencyKind::kUniform;
  } else if (kind == "exponential") {
    p.latency = net::LatencyKind::kExponential;
  } else {
    return Status::InvalidArgument(
        "net.latency must be fixed, uniform or exponential, got '" + kind +
        "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(p.latency_s,
                          r.Double("net.latency_s", 0.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      p.latency_hi_s, r.Double("net.latency_hi_s", 0.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(p.loss, r.Double("net.loss", 0.0, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(p.jitter_s,
                          r.Double("net.jitter", 0.0, 0.0, kFiniteMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (p.latency == net::LatencyKind::kUniform) {
    if (!spec.HasParam("net.latency_hi_s")) {
      return Status::InvalidArgument(
          "net.latency = uniform needs net.latency_hi_s (the high edge of "
          "the latency range)");
    }
    if (p.latency_hi_s < p.latency_s) {
      return Status::InvalidArgument(
          "net.latency_hi_s must be >= net.latency_s");
    }
  } else if (spec.HasParam("net.latency_hi_s")) {
    return Status::InvalidArgument(
        "net.latency_hi_s only applies to net.latency = uniform");
  }
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("net.latency_s", p.latency_s));
  DYNAGG_RETURN_IF_ERROR(
      CheckTickSeconds("net.latency_hi_s", p.latency_hi_s));
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("net.jitter", p.jitter_s));
  return p;
}

namespace internal {

void RegisterAsyncDriver(Registry<DriverDef>& registry) {
  DYNAGG_CHECK(
      registry.Register("async", {RunAsyncDriver, ValidateAsyncDriver})
          .ok());
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
