#include "scenario/config.h"

#include <cmath>
#include <cstdint>

namespace dynagg {
namespace scenario {

namespace {

/// Parses the argument of a `quantile(metric, q)` selector against the
/// rounds driver's per-host sample catalog (currently: final_error).
Result<double> ParseFinalErrorQuantileArg(const MetricSpec& m) {
  const std::string bad =
      "metric '" + m.ToString() +
      "': the rounds driver supports quantile(final_error, q) with q in "
      "[0, 1]";
  const size_t comma = m.arg.find(',');
  if (comma == std::string::npos) return Status::InvalidArgument(bad);
  if (m.arg.substr(0, comma) != "final_error" ||
      m.arg.find(',', comma + 1) != std::string::npos) {
    return Status::InvalidArgument(bad);
  }
  const Result<double> q = ParseDouble(m.arg.substr(comma + 1));
  // Negated form so NaN (which strtod accepts) fails the range check too.
  if (!q.ok() || !(*q >= 0.0 && *q <= 1.0)) {
    return Status::InvalidArgument(bad);
  }
  return *q;
}

/// Parses the argument of an `rms_at(R)` selector: the series-x round
/// number (round index + 1, matching the rms series' x column), a positive
/// integer.
Result<double> ParseRmsAtArg(const MetricSpec& m) {
  const Result<double> r = ParseDouble(m.arg);
  if (!r.ok() || !(*r >= 1.0) || *r != std::floor(*r)) {
    return Status::InvalidArgument(
        "metric '" + m.ToString() +
        "': rms_at(R) takes the 1-based round number R of the rms series "
        "(a positive integer)");
  }
  return *r;
}

/// Parses the argument of a `rounds_below(rms, T)` selector: the watched
/// series (only `rms`) and a finite absolute threshold.
Result<double> ParseRoundsBelowArg(const MetricSpec& m) {
  const std::string bad =
      "metric '" + m.ToString() +
      "': the rounds driver supports rounds_below(rms, T) with a finite "
      "threshold T (the first round from which the rms series stays below "
      "T; -1 = never)";
  const size_t comma = m.arg.find(',');
  if (comma == std::string::npos) return Status::InvalidArgument(bad);
  if (m.arg.substr(0, comma) != "rms" ||
      m.arg.find(',', comma + 1) != std::string::npos) {
    return Status::InvalidArgument(bad);
  }
  const Result<double> t = ParseDouble(m.arg.substr(comma + 1));
  if (!t.ok() || !std::isfinite(*t)) return Status::InvalidArgument(bad);
  return *t;
}

/// Parses the argument of a `final_rel_error(H)` selector: a host id
/// (range-checked against the population at execution time).
Result<int> ParseRelErrorArg(const MetricSpec& m) {
  const Result<int64_t> h = ParseInt64(m.arg);
  if (!h.ok() || *h < 0) {
    return Status::InvalidArgument(
        "metric '" + m.ToString() +
        "': final_rel_error(H) takes a host id H >= 0");
  }
  return static_cast<int>(*h);
}

}  // namespace

Result<MetricFlags> ClassifyDriverMetrics(
    const ScenarioSpec& spec, const std::vector<std::string>& extra) {
  std::vector<std::string> supported = {
      "rms",       "rms_tail_mean", "rounds_to_converge",
      "bandwidth", "cdf(final_error)", "final_rms",
      "gossip_bytes", "recovery_rounds(rms)"};
  supported.insert(supported.end(), extra.begin(), extra.end());
  // Consume the parametrized selectors first, then validate the rest
  // against the fixed catalog. The "name(arg-shape)" entries pushed below
  // only document the families in the diagnostic — real selectors carry
  // numbers and never match them literally.
  MetricFlags flags;
  std::vector<MetricSpec> rest;
  for (const MetricSpec& m : spec.metrics) {
    if (m.name == "quantile") {
      DYNAGG_ASSIGN_OR_RETURN(const double q, ParseFinalErrorQuantileArg(m));
      // ValidateMetricList only dedups selector spellings; "0.5" and
      // "0.50" parse to the same quantile and must fail here, not abort
      // in the Recorder.
      for (const double seen : flags.final_error_quantiles) {
        if (seen == q) {
          return Status::InvalidArgument(
              "metric '" + m.ToString() + "' requests a duplicate quantile");
        }
      }
      flags.final_error_quantiles.push_back(q);
    } else if (m.name == "rms_at") {
      DYNAGG_ASSIGN_OR_RETURN(const double r, ParseRmsAtArg(m));
      for (const double seen : flags.rms_at) {
        if (seen == r) {
          return Status::InvalidArgument(
              "metric '" + m.ToString() + "' requests a duplicate round");
        }
      }
      flags.rms_at.push_back(r);
    } else if (m.name == "rounds_below") {
      DYNAGG_ASSIGN_OR_RETURN(const double t, ParseRoundsBelowArg(m));
      for (const double seen : flags.rounds_below) {
        if (seen == t) {
          return Status::InvalidArgument(
              "metric '" + m.ToString() +
              "' requests a duplicate threshold");
        }
      }
      flags.rounds_below.push_back(t);
    } else if (m.name == "final_rel_error") {
      DYNAGG_ASSIGN_OR_RETURN(const int h, ParseRelErrorArg(m));
      for (const int seen : flags.rel_error_hosts) {
        if (seen == h) {
          return Status::InvalidArgument(
              "metric '" + m.ToString() + "' requests a duplicate host");
        }
      }
      flags.rel_error_hosts.push_back(h);
    } else {
      rest.push_back(m);
    }
  }
  supported.push_back("quantile(final_error,q)");
  supported.push_back("rms_at(R)");
  supported.push_back("rounds_below(rms,T)");
  supported.push_back("final_rel_error(H)");
  DYNAGG_RETURN_IF_ERROR(
      CheckMetricsSupported(spec.protocol, rest, supported));
  flags.rms = MetricRequested(spec, "rms");
  flags.tail_mean = MetricRequested(spec, "rms_tail_mean");
  flags.convergence = MetricRequested(spec, "rounds_to_converge");
  flags.bandwidth = MetricRequested(spec, "bandwidth");
  flags.final_error_cdf = MetricRequested(spec, "cdf(final_error)");
  flags.final_rms = MetricRequested(spec, "final_rms");
  flags.gossip_bytes = MetricRequested(spec, "gossip_bytes");
  flags.recovery = MetricRequested(spec, "recovery_rounds(rms)");
  for (const std::string& selector : extra) {
    for (const MetricSpec& m : spec.metrics) {
      flags.extra = flags.extra || SelectorMatches(selector, m);
    }
  }
  return flags;
}

Result<RecordConfig> ParseRecordConfig(
    const ScenarioSpec& spec, const std::vector<std::string>& extra_keys) {
  if (spec.HasParam("record.kind")) {
    return Status::InvalidArgument(
        "record.kind was replaced by the top-level metric list: use "
        "'record = rms' (per_round), 'record = rms_tail_mean' (tail_mean) "
        "or 'record = rounds_to_converge' (convergence)");
  }
  std::vector<std::string> allowed = {
      "from",          "every",         "threshold",
      "threshold_relative", "cdf_lo",   "cdf_hi",
      "cdf_buckets",   "relative",      "recovery_from",
      "recovery_mult", "recovery_add",  "recovery_min"};
  allowed.insert(allowed.end(), extra_keys.begin(), extra_keys.end());
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", allowed));
  RecordConfig cfg;
  DYNAGG_ASSIGN_OR_RETURN(cfg.from,
                          spec.ParamInt<int>("record.from", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.every,
                          spec.ParamInt<int>("record.every", 1, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.threshold,
      spec.ParamDouble("record.threshold", 1.0, -kFiniteMax, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.threshold_relative,
      spec.ParamBool("record.threshold_relative", false));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.cdf_lo,
      spec.ParamDouble("record.cdf_lo", 0.0, -kFiniteMax, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.cdf_hi,
      spec.ParamDouble("record.cdf_hi", 0.0, -kFiniteMax, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.cdf_buckets,
      spec.ParamInt<int>("record.cdf_buckets", 20, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.relative,
                          spec.ParamBool("record.relative", false));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_from,
      spec.ParamInt<int>("record.recovery_from", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_mult,
      spec.ParamDouble("record.recovery_mult", 2.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_add,
      spec.ParamDouble("record.recovery_add", 0.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_min,
      spec.ParamDouble("record.recovery_min", 0.0, 0.0, kFiniteMax));
  return cfg;
}

Status CheckRecordWindows(const ScenarioSpec& spec, const MetricFlags& metrics,
                          const RecordConfig& cfg) {
  if (metrics.tail_mean && cfg.from >= spec.rounds) {
    // An empty averaging window would fabricate a perfect score of 0.
    return Status::InvalidArgument(
        "record.from = " + std::to_string(cfg.from) +
        " leaves no rounds to average (rounds = " +
        std::to_string(spec.rounds) + ")");
  }
  if (metrics.recovery && cfg.recovery_from >= spec.rounds) {
    // An empty window has no floor to derive the threshold from.
    return Status::InvalidArgument(
        "record.recovery_from = " + std::to_string(cfg.recovery_from) +
        " leaves no rounds to watch for recovery (rounds = " +
        std::to_string(spec.rounds) + ")");
  }
  for (const double r : metrics.rms_at) {
    if (r > spec.rounds) {
      return Status::InvalidArgument(
          "rms_at(" + std::to_string(static_cast<int>(r)) +
          ") is past the last round (rounds = " +
          std::to_string(spec.rounds) + ")");
    }
  }
  if (metrics.final_error_cdf && cfg.cdf_hi <= cfg.cdf_lo) {
    return Status::InvalidArgument(
        "cdf(final_error) needs record.cdf_hi > record.cdf_lo");
  }
  return Status::OK();
}

bool RoundIsRead(const MetricFlags& metrics, const RecordConfig& cfg,
                 int rounds, int round) {
  if (!metrics.NeedsRoundEvaluation()) return false;
  if (cfg.relative || metrics.convergence || !metrics.rounds_below.empty()) {
    return true;
  }
  if (metrics.rms && round >= cfg.from &&
      (round - cfg.from) % cfg.every == 0) {
    return true;
  }
  if (metrics.tail_mean && round >= cfg.from) return true;
  // Early stop only happens under OnlyConvergence(), so with final_rms the
  // last executed round is always rounds - 1.
  if (metrics.final_rms && round == rounds - 1) return true;
  for (const double r : metrics.rms_at) {
    if (r == round + 1) return true;
  }
  return metrics.recovery && round >= cfg.recovery_from;
}

Result<FailureConfig> ParseFailureConfig(const ScenarioSpec& spec) {
  ParamReader r(spec, "failure.");
  FailureConfig cfg;
  DYNAGG_ASSIGN_OR_RETURN(const std::string kind,
                          r.String("failure.kind", "none"));
  if (kind == "none") {
    cfg.kind = FailureConfig::Kind::kNone;
  } else if (kind == "kill_random_fraction") {
    cfg.kind = FailureConfig::Kind::kKillRandomFraction;
  } else if (kind == "kill_top_fraction") {
    cfg.kind = FailureConfig::Kind::kKillTopFraction;
  } else if (kind == "churn") {
    cfg.kind = FailureConfig::Kind::kChurn;
  } else {
    return Status::InvalidArgument(
        "failure.kind must be none, kill_random_fraction, "
        "kill_top_fraction or churn, got '" +
        kind + "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(cfg.round,
                          r.Int<int>("failure.round", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.fraction,
                          r.Double("failure.fraction", 0.5, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(cfg.start,
                          r.Int<int>("failure.start", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.end, r.Int<int>("failure.end", -1, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.death_prob,
                          r.Double("failure.death_prob", 0.0, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.return_factor,
      r.Double("failure.return_factor", 4.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.return_prob,
                          r.Double("failure.return_prob", -1.0, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.pin_alive,
      r.Int<HostId>("failure.pin_alive", kInvalidHost, 0, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  return cfg;
}

double ChurnReturnProb(const FailureConfig& cfg) {
  return cfg.return_prob >= 0.0 ? cfg.return_prob
                                : cfg.death_prob * cfg.return_factor;
}

Result<uint64_t> FailureStream(const ScenarioSpec& spec,
                               const FailureConfig& cfg) {
  const int64_t fallback = cfg.kind == FailureConfig::Kind::kChurn
                               ? static_cast<int64_t>(cfg.death_prob * 1e5)
                               : 2;
  DYNAGG_ASSIGN_OR_RETURN(
      const int64_t stream,
      spec.ParamInt("seeds.failure_stream", fallback, 0, kInt64Max));
  return static_cast<uint64_t>(stream);
}

namespace {

/// One term of a seeds.* stream sum. Truncation of `sweepval*M` is
/// deliberately per-term (static_cast<uint64_t>(value * M)), matching the
/// legacy benches' DeriveSeed(seed, static_cast<uint64_t>(lambda * 1e4) +
/// offset) conventions exactly.
Result<uint64_t> StreamExprTerm(const std::string& key,
                                const std::string& text,
                                const std::string& term,
                                const TrialContext& ctx, int n) {
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument(
        key + " = " + text + ": " + why +
        " (terms: an integer, hosts, sweep, sweep2, sweepval*M, "
        "sweep2val*M)");
  };
  if (term == "hosts") return static_cast<uint64_t>(n);
  if (term == "sweep" || term == "sweep2") {
    const int index = term == "sweep" ? ctx.sweep_index : ctx.sweep2_index;
    if (index < 0) {
      return bad("'" + term + "' requires a " + term +
                 " axis (the term is the sweep index)");
    }
    return static_cast<uint64_t>(index);
  }
  const bool is_sweep2 = term.rfind("sweep2val", 0) == 0;
  if (is_sweep2 || term.rfind("sweepval", 0) == 0) {
    const int index = is_sweep2 ? ctx.sweep2_index : ctx.sweep_index;
    const double value = is_sweep2 ? ctx.sweep2_value : ctx.sweep_value;
    const std::string name = is_sweep2 ? "sweep2val" : "sweepval";
    if (index < 0) {
      return bad("'" + name + "' requires a " +
                 (is_sweep2 ? std::string("sweep2") : std::string("sweep")) +
                 " axis (the term is the truncated sweep value)");
    }
    const std::string rest = term.substr(name.size());
    int64_t scale = 1;
    if (!rest.empty()) {
      if (rest[0] != '*') return bad("expected '" + name + "*M'");
      const Result<int64_t> m = ParseInt64(rest.substr(1));
      if (!m.ok() || *m < 1) {
        return bad("'" + name + "*M' needs a positive integer scale");
      }
      scale = *m;
    }
    const double scaled = value * static_cast<double>(scale);
    if (!(scaled >= 0)) {
      return bad("'" + name + "' term is negative for sweep value " +
                 std::to_string(value));
    }
    return static_cast<uint64_t>(scaled);
  }
  const Result<int64_t> v = ParseInt64(term);
  if (!v.ok() || *v < 0) return bad("'" + term + "' is not a valid term");
  return static_cast<uint64_t>(*v);
}

/// Evaluates the '+'-separated term-sum stream grammar for one seeds.* key.
Result<uint64_t> EvalStreamExpr(const ScenarioSpec& spec,
                                const std::string& key,
                                const std::string& default_expr,
                                const TrialContext& ctx, int n) {
  DYNAGG_ASSIGN_OR_RETURN(const std::string text,
                          spec.ParamString(key, default_expr));
  uint64_t total = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t plus = text.find('+', start);
    if (plus == std::string::npos) plus = text.size();
    std::string term = text.substr(start, plus - start);
    // Trim (list items may be written spaced: "sweepval*10 + 1").
    while (!term.empty() && (term.front() == ' ' || term.front() == '\t')) {
      term.erase(term.begin());
    }
    while (!term.empty() && (term.back() == ' ' || term.back() == '\t')) {
      term.pop_back();
    }
    if (term.empty()) {
      return Status::InvalidArgument(key + " = " + text + ": empty term");
    }
    DYNAGG_ASSIGN_OR_RETURN(const uint64_t value,
                            StreamExprTerm(key, text, term, ctx, n));
    total += value;
    start = plus + 1;
  }
  return total;
}

}  // namespace

Result<uint64_t> RoundStream(const ScenarioSpec& spec,
                             const TrialContext& ctx, int n) {
  return EvalStreamExpr(spec, "seeds.round_stream", "1", ctx, n);
}

Result<uint64_t> WorkloadStream(const ScenarioSpec& spec,
                                const TrialContext& ctx, int n) {
  return EvalStreamExpr(spec, "seeds.workload_stream", "3", ctx, n);
}

Result<uint64_t> MessageStream(const ScenarioSpec& spec,
                               const TrialContext& ctx, int n) {
  return EvalStreamExpr(spec, "seeds.message_stream", "5", ctx, n);
}

Result<ChurnConfig> ParseChurnConfig(const ScenarioSpec& spec) {
  ParamReader r(spec, "churn.");
  ChurnConfig cfg;
  for (const auto& [key, value] : spec.params) {
    cfg.enabled = cfg.enabled || key.rfind("churn.", 0) == 0;
  }
  DYNAGG_ASSIGN_OR_RETURN(cfg.initial,
                          r.Int<int>("churn.initial", -1, 1, kIntMax));
  // The per-round Poisson draw takes O(rate) uniforms, so the rate must
  // be finite; the bound by hosts needs the cell's real size, so
  // ValidateChurnSpec checks it.
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.arrival_rate,
      r.Double("churn.arrival_rate", 0.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.death_prob,
                          r.Double("churn.death_prob", 0.0, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(cfg.rebirth_prob,
                          r.Double("churn.rebirth_prob", 0.0, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(cfg.start, r.Int<int>("churn.start", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.end, r.Int<int>("churn.end", -1, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.max_alive,
                          r.Int<int>("churn.max_alive", -1, 1, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (cfg.end != -1 && cfg.end < cfg.start) {
    return Status::InvalidArgument(
        "churn.end must be >= churn.start (or -1 for the full run)");
  }
  return cfg;
}

Result<uint64_t> ChurnStream(const ScenarioSpec& spec, const TrialContext& ctx,
                             int n) {
  return EvalStreamExpr(spec, "seeds.churn_stream", "6", ctx, n);
}

Result<ChurnPlan> BuildChurnPlan(const ChurnConfig& cfg, int n, int rounds,
                                 Rng& churn_rng) {
  if (!cfg.enabled) return ChurnPlan();
  ChurnParams params;
  params.n = n;
  params.initial = cfg.initial >= 0 ? cfg.initial : n;
  params.max_alive = cfg.max_alive >= 0 ? cfg.max_alive : n;
  if (params.initial > n) {
    return Status::InvalidArgument(
        "churn.initial = " + std::to_string(params.initial) +
        " exceeds hosts = " + std::to_string(n));
  }
  if (params.max_alive > n) {
    return Status::InvalidArgument(
        "churn.max_alive = " + std::to_string(params.max_alive) +
        " exceeds hosts = " + std::to_string(n) +
        " (the universe is fixed; raise hosts to leave room for growth)");
  }
  params.arrival_rate = cfg.arrival_rate;
  params.death_prob = cfg.death_prob;
  params.rebirth_prob = cfg.rebirth_prob;
  params.start_round = cfg.start;
  params.end_round = cfg.end >= 0 ? cfg.end : rounds;
  return ChurnPlan::Build(params, churn_rng);
}

Status CheckValueBacked(const FailureConfig& cfg, bool value_backed) {
  if (cfg.kind != FailureConfig::Kind::kKillTopFraction || value_backed) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "failure.kind = kill_top_fraction requires a value-based protocol");
}

Status CheckMetered(const ScenarioSpec& spec, bool metered) {
  if (metered || !MetricRequested(spec, "bandwidth")) return Status::OK();
  return Status::InvalidArgument("protocol '" + spec.protocol +
                                 "' does not support the bandwidth metric");
}

Result<FailurePlan> BuildFailurePlan(const FailureConfig& cfg, int n,
                                     int rounds,
                                     const std::vector<double>* values,
                                     Rng& fail_rng) {
  DYNAGG_RETURN_IF_ERROR(CheckValueBacked(cfg, values != nullptr));
  switch (cfg.kind) {
    case FailureConfig::Kind::kNone:
      return FailurePlan();
    case FailureConfig::Kind::kKillRandomFraction:
      return FailurePlan::KillRandomFraction(n, cfg.round, cfg.fraction,
                                             fail_rng);
    case FailureConfig::Kind::kKillTopFraction:
      return FailurePlan::KillTopFraction(*values, cfg.round, cfg.fraction);
    case FailureConfig::Kind::kChurn: {
      const int end = cfg.end >= 0 ? cfg.end : rounds;
      return FailurePlan::Churn(n, cfg.start, end, cfg.death_prob,
                                ChurnReturnProb(cfg), fail_rng);
    }
  }
  return Status::InvalidArgument("unreachable failure kind");
}

}  // namespace scenario
}  // namespace dynagg
