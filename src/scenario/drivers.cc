// Builtin trial drivers: how simulated time advances within one trial.
//
//   rounds  The paper's synchronous round loop (sim/round_driver.h) with
//           the spec-declared failure plan, multi-metric recording and
//           early convergence stop. All requested metrics are recorded in
//           ONE pass over the rounds, evaluating only the rounds some
//           metric reads (RoundIsRead in scenario/config.h):
//             - rms                 per-round RMS-deviation series
//                                   (record.from/every)
//             - rms_tail_mean       scalar mean RMS over rounds >= from
//             - rounds_to_converge  first round with RMS < record.threshold
//             - bandwidth           measured traffic via TrafficMeter
//             - cdf(final_error)    per-host |estimate - truth| CDF
//           plus any extra selectors the swarm's finish hook handles.
//   trace   Contact-trace playback: one time loop over the environment's
//           ContactTrace that merges a gossip tick every gossip_period
//           seconds with a metric sample every sample_period seconds (the
//           tick first on a tie). Errors are measured against each host's
//           current *group* aggregate (connected component over
//           recently-seen edges, Section V):
//             - rms                 per-sample series of the group-relative
//                                   RMS deviation (x axis: hour)
//             - avg_group_size      per-sample series of the mean group
//                                   size (Fig 11's right-hand axis)
//
// Both drivers derive every RNG stream from ctx.trial_seed via the
// conventions in scenario/config.h, reproducing the legacy bench binaries
// bit-identically.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "obs/telemetry.h"
#include "common/stats.h"
#include "env/connectivity.h"
#include "env/trace_env.h"
#include "scenario/async_driver.h"
#include "scenario/config.h"
#include "scenario/trial.h"
#include "sim/bandwidth.h"
#include "sim/churn.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/round_driver.h"

namespace dynagg {
namespace scenario {
namespace {

/// Wires the top-level intra_round_threads knob into the swarm's round
/// kernel. The push apply is bit-identical at any thread count, so this only
/// changes wall-clock; protocols without a data-parallel apply phase reject
/// values > 1 rather than silently ignoring the key.
Status ApplyIntraRoundThreads(const ScenarioSpec& spec,
                              const SwarmHandle& swarm) {
  if (spec.intra_round_threads <= 1) return Status::OK();
  if (!swarm.set_threads) {
    return Status::InvalidArgument(
        "protocol '" + spec.protocol +
        "' does not support intra_round_threads");
  }
  swarm.set_threads(spec.intra_round_threads);
  return Status::OK();
}

// ----------------------------------------------------------- rounds ---

/// Swarm adapter slotted into RunRounds: advances trace-backed
/// environments, applies the churn plan's membership events (kills, joins,
/// rebirths — each admitted host reset through the swarm's on_join hook),
/// re-pins a host alive (between the failure application and the gossip
/// exchange, exactly where the legacy benches revive their leader), then
/// delegates to the swarm handle.
struct RoundHooks {
  const SwarmHandle& swarm;
  Environment* env;
  SimTime advance_period;
  HostId pin_alive;
  const ChurnPlan* churn = nullptr;
  int round = 0;

  void RunRound(const Environment& e, Population& pop, Rng& rng) {
    if (advance_period > 0) {
      env->AdvanceTo(static_cast<SimTime>(round + 1) * advance_period);
    }
    if (churn != nullptr && !churn->empty()) {
      const ChurnPlan::RoundDelta delta =
          churn->Apply(round, &pop, swarm.on_join);
      if (delta.joins > 0) obs::Count(obs::Counter::kChurnJoins, delta.joins);
      if (delta.rebirths > 0) {
        obs::Count(obs::Counter::kChurnRebirths, delta.rebirths);
      }
    }
    if (pin_alive != kInvalidHost) pop.Revive(pin_alive);
    swarm.run_round(e, pop, rng);
    ++round;
  }
};

/// Formats a parametrized scalar-record column name: "<base>_<%g of v>"
/// (rms_at_25, rounds_below_1.5).
std::string SuffixedScalarName(const char* base, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return std::string(base) + "_" + buf;
}

/// Drives the swarm for spec.rounds rounds under the spec's environment,
/// failure plan and requested metrics, recording everything in one pass.
/// `def` carries the protocol's statically declared extra selectors (the
/// built swarm's finish hook interprets them).
Status DriveRounds(const TrialContext& ctx, const ProtocolDef& def,
                   EnvHandle& env, const SwarmHandle& swarm, Recorder& rec) {
  // Everything up to the round loop — config parsing, the failure plan,
  // the population — is trial setup (the caller's env/swarm construction
  // accumulated into the same phase already).
  std::optional<obs::ScopedPhase> setup_span(std::in_place,
                                             obs::Phase::kSetup);
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "seeds.",
      {"round_stream", "failure_stream", "workload_stream", "churn_stream"}));
  DYNAGG_ASSIGN_OR_RETURN(
      const MetricFlags metrics,
      ClassifyDriverMetrics(spec, def.extra_metrics));
  DYNAGG_ASSIGN_OR_RETURN(const RecordConfig cfg,
                          ParseRecordConfig(spec, def.extra_record_keys));
  DYNAGG_ASSIGN_OR_RETURN(const FailureConfig fail, ParseFailureConfig(spec));
  const int n = env.env->num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          RoundStream(spec, ctx, n));
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t fail_stream,
                          FailureStream(spec, fail));

  DYNAGG_RETURN_IF_ERROR(CheckRecordWindows(spec, metrics, cfg));

  DYNAGG_RETURN_IF_ERROR(ApplyIntraRoundThreads(spec, swarm));
  DYNAGG_RETURN_IF_ERROR(CheckMetered(spec, swarm.set_meter != nullptr));
  TrafficMeter meter;
  if (metrics.bandwidth) swarm.set_meter(&meter);

  Rng fail_rng(DeriveSeed(ctx.trial_seed, fail_stream));
  DYNAGG_ASSIGN_OR_RETURN(
      const FailurePlan plan,
      BuildFailurePlan(fail, n, spec.rounds, swarm.failure_values, fail_rng));
  if (fail.pin_alive != kInvalidHost &&
      (fail.pin_alive < 0 || fail.pin_alive >= n)) {
    return Status::InvalidArgument("failure.pin_alive out of range");
  }

  DYNAGG_ASSIGN_OR_RETURN(const ChurnConfig churn, ParseChurnConfig(spec));
  if (churn.enabled) {
    if (fail.kind != FailureConfig::Kind::kNone) {
      return Status::InvalidArgument(
          "churn.* and failure.kind cannot be combined: churn plans cover "
          "deaths via churn.death_prob (and their rebirths RESET host "
          "state, unlike failure churn's silent revives)");
    }
    if (!swarm.on_join) {
      return Status::InvalidArgument(
          "protocol '" + spec.protocol +
          "' cannot admit hosts (no on_join hook); churn.* keys require a "
          "join-capable protocol");
    }
  }
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t churn_stream,
                          ChurnStream(spec, ctx, n));
  Rng churn_rng(DeriveSeed(ctx.trial_seed, churn_stream));
  DYNAGG_ASSIGN_OR_RETURN(const ChurnPlan churn_plan,
                          BuildChurnPlan(churn, n, spec.rounds, churn_rng));

  const int initial_alive =
      churn.enabled && churn.initial >= 0 ? churn.initial : n;
  Population pop =
      initial_alive < n ? Population(n, initial_alive) : Population(n);
  Rng rng(DeriveSeed(ctx.trial_seed, round_stream));

  RunningStat tail;
  int converged_round = -1;
  double last_rms = 0.0;
  std::vector<double> rms_at_values(metrics.rms_at.size(), 0.0);
  std::vector<double> full_series;      // backs rounds_below
  std::vector<double> recovery_window;  // backs recovery_rounds
  Status round_error = Status::OK();    // raised inside the round callback
  const bool early_stop = metrics.OnlyConvergence();
  // Declare the series up front: a unit whose recording window is empty
  // (record.from >= its rounds under a rounds sweep) must still carry the
  // series so batches stay structurally identical across units.
  if (metrics.rms) rec.MutableSeries("round", "rms");
  const auto on_round_end = [&](int round) {
    // Rounds no requested metric reads cost neither truth nor estimate.
    if (!RoundIsRead(metrics, cfg, spec.rounds, round)) return true;
    // Telemetry: per-round metric evaluation is the record phase.
    obs::ScopedPhase record_span(obs::Phase::kRecord);
    const double tr = swarm.truth(pop);
    double rms = swarm.rms_deviation(pop, tr);
    // record.relative: the series (and everything derived from it) is
    // measured relative to the current truth, the cutoff ablation's
    // rms/truth convention. A zero truth would silently record inf/nan.
    if (cfg.relative) {
      if (tr == 0.0) {
        round_error = Status::InvalidArgument(
            "record.relative: the truth is 0 after round " +
            std::to_string(round) + ", the relative error is undefined");
        return false;
      }
      rms /= tr;
    }
    if (metrics.rms && round >= cfg.from &&
        (round - cfg.from) % cfg.every == 0) {
      rec.AddSeriesPoint("round", "rms", static_cast<double>(round + 1),
                         rms);
    }
    if (metrics.tail_mean && round >= cfg.from) tail.Add(rms);
    last_rms = rms;
    for (size_t i = 0; i < metrics.rms_at.size(); ++i) {
      if (metrics.rms_at[i] == round + 1) rms_at_values[i] = rms;
    }
    if (!metrics.rounds_below.empty()) full_series.push_back(rms);
    if (metrics.recovery && round >= cfg.recovery_from) {
      recovery_window.push_back(rms);
    }
    if (metrics.convergence && converged_round < 0) {
      const double limit =
          cfg.threshold_relative ? cfg.threshold * tr : cfg.threshold;
      if (rms < limit) {
        converged_round = round + 1;
        // Later rounds cannot change the result; stop paying for them
        // unless another metric still needs them.
        if (early_stop) return false;
      }
    }
    return true;
  };

  RoundHooks hooks{swarm, env.env.get(), env.advance_period, fail.pin_alive,
                   &churn_plan};
  setup_span.reset();
  const int executed = RunRoundsUntil(hooks, *env.env, pop, plan,
                                      spec.rounds, rng, on_round_end);
  DYNAGG_RETURN_IF_ERROR(round_error);
  // All trial streams are fully drawn by now (the failure and churn plans
  // are prebuilt; rounds draw only from rng).
  obs::Count(obs::Counter::kRngDraws,
             static_cast<int64_t>(rng.draw_count() + fail_rng.draw_count() +
                                  churn_rng.draw_count()));
  obs::Count(obs::Counter::kEarlyStopRounds, spec.rounds - executed);
  // Everything after the loop is metric finalization: record phase.
  obs::ScopedPhase record_span(obs::Phase::kRecord);

  if (metrics.tail_mean) rec.AddScalar("rms_tail_mean", tail.mean());
  if (metrics.convergence) {
    if (converged_round < 0 && !spec.aggregates.empty()) {
      // Averaging the -1 "never converged" sentinel into mean/stddev would
      // produce a plausible-looking but meaningless statistic.
      return Status::InvalidArgument(
          "trial " + std::to_string(ctx.trial) +
          " did not converge within " + std::to_string(spec.rounds) +
          " rounds; rounds_to_converge = -1 cannot be aggregated (raise "
          "rounds or drop aggregate)");
    }
    rec.AddScalar("rounds_to_converge",
                  static_cast<double>(converged_round));
  }
  if (metrics.final_rms) rec.AddScalar("final_rms", last_rms);
  for (size_t i = 0; i < metrics.rms_at.size(); ++i) {
    rec.AddScalar(SuffixedScalarName("rms_at", metrics.rms_at[i]),
                  rms_at_values[i]);
  }
  // The derived convergence records: FirstSustainedBelow over the
  // per-round series — the last crossing below the threshold that is never
  // crossed back, -1 = never. rounds_below watches an absolute threshold
  // over the whole run; recovery_rounds watches the post-failure window
  // (rounds >= record.recovery_from) against a threshold derived from the
  // window's own converged floor.
  for (const double threshold : metrics.rounds_below) {
    const int at = FirstSustainedBelow(full_series, threshold);
    if (at < 0 && !spec.aggregates.empty()) {
      return Status::InvalidArgument(
          "trial " + std::to_string(ctx.trial) +
          " never stayed below " + std::to_string(threshold) +
          "; rounds_below = -1 cannot be aggregated (raise rounds or drop "
          "aggregate)");
    }
    rec.AddScalar(SuffixedScalarName("rounds_below", threshold),
                  static_cast<double>(at));
  }
  if (metrics.recovery) {
    const double floor = recovery_window.back();
    const double threshold =
        std::max(cfg.recovery_min,
                 cfg.recovery_mult * floor + cfg.recovery_add);
    const int at = FirstSustainedBelow(recovery_window, threshold);
    if (at < 0 && !spec.aggregates.empty()) {
      return Status::InvalidArgument(
          "trial " + std::to_string(ctx.trial) +
          " never recovered; recovery_rounds = -1 cannot be aggregated "
          "(raise rounds or drop aggregate)");
    }
    rec.AddScalar("recovery_rounds", static_cast<double>(at));
  }
  for (const int host : metrics.rel_error_hosts) {
    if (host >= n) {
      return Status::InvalidArgument(
          "final_rel_error(" + std::to_string(host) +
          "): host out of range (hosts = " + std::to_string(n) + ")");
    }
    const double tr = swarm.truth(pop);
    if (tr == 0.0) {
      return Status::InvalidArgument(
          "final_rel_error(" + std::to_string(host) +
          "): the truth is 0, the relative error is undefined");
    }
    rec.AddScalar(SuffixedScalarName("final_rel_error",
                                     static_cast<double>(host)),
                  std::abs(swarm.estimate(host) - tr) / tr);
  }
  if (metrics.gossip_bytes) {
    if (swarm.gossip_bytes < 0) {
      return Status::InvalidArgument(
          "protocol '" + spec.protocol +
          "' does not model the gossip_bytes metric");
    }
    rec.AddScalar("gossip_bytes", swarm.gossip_bytes);
  }
  if (metrics.bandwidth) {
    const double denom = static_cast<double>(n) * executed;
    rec.SetBandwidth(meter.total().messages / denom,
                     meter.total().bytes / denom, swarm.state_bytes);
  }
  // The final-error sample — per-host |estimate - truth| after the last
  // round — feeds both the bucketed CDF and the exact quantile records;
  // compute it once when either is requested.
  std::vector<double> final_errors;
  if (metrics.final_error_cdf || !metrics.final_error_quantiles.empty()) {
    const double tr = swarm.truth(pop);
    final_errors.reserve(pop.num_alive());
    ForEachAliveId(pop, [&](HostId id) {
      final_errors.push_back(std::abs(swarm.estimate(id) - tr));
    });
  }
  if (!metrics.final_error_quantiles.empty()) {
    // quantile(final_error, q): exact (sorted sample, linear
    // interpolation) rather than bucketed.
    std::vector<double> sorted = final_errors;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : metrics.final_error_quantiles) {
      rec.AddQuantile("final_error", q, QuantileFromSorted(sorted, q));
    }
  }
  if (metrics.final_error_cdf) {
    Histogram hist(cfg.cdf_lo, cfg.cdf_hi, cfg.cdf_buckets);
    for (const double err : final_errors) hist.Add(err);
    HistogramRecord* record = rec.MutableHistogram(
        "final_error_cdf", /*key_name=*/"", "final_error", "cdf",
        /*cumulative=*/true);
    for (int b = 0; b < hist.num_buckets(); ++b) {
      // Fold the out-of-range tails into the edge buckets so the CDF
      // reaches 1 over the declared range.
      int64_t count = hist.bucket_count(b);
      if (b == 0) count += hist.underflow();
      if (b == hist.num_buckets() - 1) count += hist.overflow();
      record->buckets.push_back({0.0, hist.bucket_upper(b), count});
    }
  }
  if (swarm.finish) return swarm.finish(ctx, rec);
  return Status::OK();
}

Status RunRoundsDriver(const TrialContext& ctx, const ProtocolDef& def,
                       Recorder& rec) {
  // Whole-trial protocols own their loop; the rounds driver is their host.
  if (def.run_custom) {
    if (ctx.spec->intra_round_threads > 1) {
      return Status::InvalidArgument(
          "protocol '" + ctx.spec->protocol +
          "' owns its whole trial loop and does not support "
          "intra_round_threads");
    }
    return def.run_custom(ctx, rec);
  }
  std::optional<obs::ScopedPhase> setup_span(std::in_place,
                                             obs::Phase::kSetup);
  DYNAGG_ASSIGN_OR_RETURN(EnvHandle env, MakeEnvironment(ctx));
  DYNAGG_ASSIGN_OR_RETURN(SwarmHandle swarm, def.make_swarm(ctx, env));
  setup_span.reset();
  return DriveRounds(ctx, def, env, swarm, rec);
}

// ------------------------------------------------------------ trace ---

Status RunTraceDriver(const TrialContext& ctx, const ProtocolDef& def,
                      Recorder& rec) {
  // Setup phase: trace/environment/swarm construction.
  std::optional<obs::ScopedPhase> setup_span(std::in_place,
                                             obs::Phase::kSetup);
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_RETURN_IF_ERROR(ValidateTraceSpec(spec, def));
  const bool want_rms = MetricRequested(spec, "rms");
  const bool want_group_size = MetricRequested(spec, "avg_group_size");

  DYNAGG_ASSIGN_OR_RETURN(EnvHandle env, MakeEnvironment(ctx));
  // The trace environments build a TraceEnvironment over env.trace; the
  // driver plays that one.
  auto* trace_env = dynamic_cast<TraceEnvironment*>(env.env.get());
  if (env.trace == nullptr || trace_env == nullptr) {
    return Status::InvalidArgument(
        "environment '" + spec.environment +
        "' does not provide a contact trace (driver = trace replays one; "
        "use haggle or another trace environment)");
  }
  // ValidateTraceSpec admitted a trace-capable protocol, so the swarm has
  // the group_truths hook (the capability is derived from it).
  DYNAGG_ASSIGN_OR_RETURN(SwarmHandle swarm, def.make_swarm(ctx, env));
  DYNAGG_RETURN_IF_ERROR(ApplyIntraRoundThreads(spec, swarm));
  const std::function<double(HostId)>& estimate =
      swarm.group_estimate ? swarm.group_estimate : swarm.estimate;

  // The paper's cadence: a gossip tick every 30 seconds, hourly samples.
  const SimTime gossip_period = GossipPeriod(spec);
  const SimTime sample_period =
      FromSeconds(spec.sample_period > 0 ? spec.sample_period : 3600.0);
  const int n = trace_env->num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          RoundStream(spec, ctx, n));

  Population pop(n);
  Rng rng(DeriveSeed(ctx.trial_seed, round_stream));
  // Declare both series before the run: a trace shorter than one sample
  // period must still emit the (empty) series for structural consistency.
  if (want_rms) rec.MutableSeries("hour", "rms");
  if (want_group_size) rec.MutableSeries("hour", "avg_group_size");
  std::vector<int> labels;
  const auto sample = [&](SimTime t) {
    const double hour = ToHours(t);
    if (want_rms) {
      labels = trace_env->CurrentGroups();
      const std::vector<int> sizes = ComponentSizes(labels);
      const std::vector<double> truths = swarm.group_truths(labels, sizes);
      rec.AddSeriesPoint(
          "hour", "rms", hour,
          RmsDeviationPerHost(
              pop, [&](HostId id) { return truths[labels[id]]; },
              estimate));
    }
    if (want_group_size) {
      rec.AddSeriesPoint("hour", "avg_group_size", hour,
                         trace_env->AverageGroupSize());
    }
  };
  setup_span.reset();

  // Gossip ticks fire at k * gossip_period and samples at j *
  // sample_period (k, j >= 1) up to the end of the trace, inclusive. The
  // environment is advanced to each instant before its callback runs. On
  // a tie the tick runs first, so a sample observes the post-tick state.
  const SimTime end = env.trace->end_time();
  int round = 0;
  for (SimTime tick = gossip_period, at = sample_period;
       std::min(tick, at) <= end;) {
    if (tick <= at) {
      trace_env->AdvanceTo(tick);
      obs::ScopedRound span(round++);
      swarm.run_round(*trace_env, pop, rng);
      tick += gossip_period;
    } else {
      trace_env->AdvanceTo(at);
      obs::ScopedPhase span(obs::Phase::kRecord);
      sample(at);
      at += sample_period;
    }
  }
  obs::Count(obs::Counter::kRngDraws,
             static_cast<int64_t>(rng.draw_count()));
  return Status::OK();
}

}  // namespace

Status ValidateTraceSpec(const ScenarioSpec& spec, const ProtocolDef& def) {
  const auto invalid = [&](const std::string& what) {
    return Status::InvalidArgument("driver = trace: " + what);
  };
  if (!def.make_swarm) {
    return invalid("protocol '" + spec.protocol +
                   "' owns its whole trial loop and cannot replay a trace");
  }
  if (!def.capabilities.Has(Capability::kTrace)) {
    return invalid("protocol '" + spec.protocol +
                   "' does not support the trace driver (no group-truth "
                   "hooks)");
  }
  if (spec.rounds_set || spec.sweep_key == "rounds" ||
      spec.sweep2_key == "rounds") {
    return invalid(
        "rounds does not apply (the trace horizon and gossip_period govern "
        "the run length)");
  }
  // Failure and churn plans are round-indexed and record.* knobs select
  // rounds; the trace timeline has no rounds.
  for (const auto& [key, value] : spec.params) {
    if (key.rfind("failure.", 0) == 0 || key.rfind("churn.", 0) == 0 ||
        key.rfind("record.", 0) == 0) {
      return invalid("'" + key +
                     "' does not apply (it is round-indexed; the trace "
                     "timeline has no rounds)");
    }
  }
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("seeds.", {"round_stream"}));
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("gossip_period", spec.gossip_period));
  DYNAGG_RETURN_IF_ERROR(CheckTickSeconds("sample_period", spec.sample_period));
  return CheckMetricsSupported(spec, {"rms", "avg_group_size"});
}

namespace internal {

void RegisterBuiltinDrivers(Registry<DriverDef>& registry) {
  DYNAGG_CHECK(
      registry.Register("rounds", {RunRoundsDriver, DriverKind::kRounds})
          .ok());
  DYNAGG_CHECK(
      registry.Register("trace", {RunTraceDriver, DriverKind::kTrace})
          .ok());
  RegisterAsyncDriver(registry);
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
