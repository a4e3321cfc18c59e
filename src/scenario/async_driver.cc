#include "scenario/async_driver.h"

#include <algorithm>
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

Status RunAsyncDriver(const TrialContext& ctx, const ProtocolDef& def,
                      Recorder& rec) {
  // Setup phase: config parsing, environment/swarm construction. The
  // spec-only checks (ValidateAsyncSpec) ran in ValidateExperiment on this
  // exact spec.
  std::optional<obs::ScopedPhase> setup_span(std::in_place,
                                             obs::Phase::kSetup);
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(const net::NetworkParams net_params,
                          ParseNetworkParams(spec));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t record_from,
                          spec.ParamInt("record.from", 0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t record_every,
                          spec.ParamInt("record.every", 1));

  const bool want_rms = MetricRequested(spec, "rms");
  const bool want_tail = MetricRequested(spec, "rms_tail_mean");
  const bool want_final = MetricRequested(spec, "final_rms");
  const bool want_bandwidth = MetricRequested(spec, "bandwidth");
  const bool want_gossip_bytes = MetricRequested(spec, "gossip_bytes");
  const bool want_delivery = MetricRequested(spec, "delivery_rate");

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
  if (want_rms) rec.MutableSeries("round", "rms");
  RunningStat tail;
  // The sampler evaluates only the samples a series point or the tail
  // reads, by the rounds driver's rule. Clamping the window to the tick
  // count leaves it unchanged (no sample reaches it) and fits an int.
  MetricFlags sampled;
  sampled.rms = want_rms;
  sampled.tail_mean = want_tail;
  RecordConfig window;
  window.from = static_cast<int>(std::min<int64_t>(record_from, ticks));
  window.every = static_cast<int>(std::min<int64_t>(record_every, ticks));

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
    if (RoundIsRead(sampled, window, ticks, k)) {
      obs::ScopedPhase record_span(obs::Phase::kRecord);
      const double rms = rms_now();
      if (want_rms && k >= record_from &&
          (k - record_from) % record_every == 0) {
        rec.AddSeriesPoint("round", "rms", static_cast<double>(k + 1), rms);
      }
      if (want_tail && k >= record_from) tail.Add(rms);
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

  if (want_tail) rec.AddScalar("rms_tail_mean", tail.mean());
  if (want_final) rec.AddScalar("final_rms", rms_now());
  if (want_delivery) {
    rec.AddScalar("delivery_rate",
                  sent > 0 ? static_cast<double>(delivered) /
                                 static_cast<double>(sent)
                           : 1.0);
  }
  const double denom = static_cast<double>(n) * ticks;
  if (want_gossip_bytes) {
    rec.AddScalar("gossip_bytes",
                  static_cast<double>(sent) * swarm.message_bytes / denom);
  }
  if (want_bandwidth) {
    rec.SetBandwidth(static_cast<double>(sent) / denom,
                     static_cast<double>(sent) * swarm.message_bytes / denom,
                     swarm.state_bytes);
  }
  return Status::OK();
}

}  // namespace

Result<net::NetworkParams> ParseNetworkParams(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "net.", {"latency", "latency_s", "latency_hi_s", "loss", "jitter"}));
  net::NetworkParams p;
  DYNAGG_ASSIGN_OR_RETURN(const std::string kind,
                          spec.ParamString("net.latency", "fixed"));
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
                          spec.ParamDouble("net.latency_s", 0.0));
  DYNAGG_ASSIGN_OR_RETURN(p.latency_hi_s,
                          spec.ParamDouble("net.latency_hi_s", 0.0));
  DYNAGG_ASSIGN_OR_RETURN(p.loss, spec.ParamDouble("net.loss", 0.0));
  DYNAGG_ASSIGN_OR_RETURN(p.jitter_s, spec.ParamDouble("net.jitter", 0.0));
  // Negated comparisons so NaN (which strtod accepts) fails the checks.
  if (!(p.latency_s >= 0.0)) {
    return Status::InvalidArgument("net.latency_s must be >= 0");
  }
  if (p.latency == net::LatencyKind::kUniform) {
    if (!spec.HasParam("net.latency_hi_s")) {
      return Status::InvalidArgument(
          "net.latency = uniform needs net.latency_hi_s (the high edge of "
          "the latency range)");
    }
    if (!(p.latency_hi_s >= p.latency_s)) {
      return Status::InvalidArgument(
          "net.latency_hi_s must be >= net.latency_s");
    }
  } else if (spec.HasParam("net.latency_hi_s")) {
    return Status::InvalidArgument(
        "net.latency_hi_s only applies to net.latency = uniform");
  }
  if (!(p.loss >= 0.0 && p.loss <= 1.0)) {
    return Status::InvalidArgument("net.loss must be in [0, 1]");
  }
  if (!(p.jitter_s >= 0.0)) {
    return Status::InvalidArgument("net.jitter must be >= 0");
  }
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("net.latency_s", p.latency_s));
  DYNAGG_RETURN_IF_ERROR(
      CheckTickSeconds("net.latency_hi_s", p.latency_hi_s));
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("net.jitter", p.jitter_s));
  return p;
}

Status ValidateAsyncSpec(const ScenarioSpec& spec, const ProtocolDef& def) {
  const auto invalid = [&](const std::string& what) {
    return Status::InvalidArgument("driver = async: " + what);
  };
  if (!def.make_swarm) {
    return invalid("protocol '" + spec.protocol +
                   "' owns its whole trial loop and cannot run "
                   "message-level");
  }
  if (!def.capabilities.Has(Capability::kAsync)) {
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
  // Failure and churn plans are round-indexed membership scripts built
  // for the synchronous drivers. Under message-level time there is no
  // round boundary to apply them at: a host's departure/arrival would
  // have to be an event indexed into the in-flight delivery timeline
  // (invalidating queued messages to and from it), which is not
  // implemented yet. Point at the limitation rather than a bare reject
  // so the fix is actionable from the error alone.
  for (const auto& [key, value] : spec.params) {
    if (key.rfind("failure.", 0) == 0 || key.rfind("churn.", 0) == 0) {
      return invalid(
          "'" + key +
          "' does not apply: failure/churn plans are round-indexed and "
          "the async driver has no rounds — membership dynamics under "
          "message-level time need event-indexed plans, which are not "
          "implemented yet (run the plan under driver = rounds, or see "
          "docs/spec_reference.md \"Driver compatibility\")");
    }
  }
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("seeds.", {"round_stream", "message_stream"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", {"from", "every"}));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t from, spec.ParamInt("record.from", 0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t every,
                          spec.ParamInt("record.every", 1));
  if (from < 0 || every < 1) {
    return invalid("record.from must be >= 0 and record.every >= 1");
  }
  if (MetricRequested(spec, "rms_tail_mean") && from >= spec.rounds) {
    return invalid("record.from = " + std::to_string(from) +
                   " leaves no ticks to average (rounds = " +
                   std::to_string(spec.rounds) + ")");
  }
  DYNAGG_RETURN_IF_ERROR(ParseNetworkParams(spec).status());
  return CheckMetricsSupported(
      spec, {"rms", "rms_tail_mean", "final_rms", "bandwidth", "gossip_bytes",
             "delivery_rate"});
}

namespace internal {

void RegisterAsyncDriver(Registry<DriverDef>& registry) {
  DYNAGG_CHECK(
      registry.Register("async", {RunAsyncDriver, DriverKind::kMessages})
          .ok());
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
