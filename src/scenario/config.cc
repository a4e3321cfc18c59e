#include "scenario/config.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace dynagg {
namespace scenario {

namespace {

/// The number in the "<series>, <number>" argument of `m`
/// (quantile(final_error, q), rounds_below(rms, T)); NaN when the argument
/// has another shape or names another series.
double SeriesArg(const MetricSpec& m, const char* series) {
  const size_t comma = m.arg.find(',');
  if (comma == std::string::npos || m.arg.compare(0, comma, series) != 0 ||
      m.arg.find(',', comma + 1) != std::string::npos) {
    return std::nan("");
  }
  const Result<double> v = ParseDouble(m.arg.substr(comma + 1));
  return v.ok() ? *v : std::nan("");
}

Status BadArg(const MetricSpec& m, const std::string& usage) {
  return Status::InvalidArgument("metric '" + m.ToString() + "': " + usage);
}

/// Appends `v`, the parsed argument of selector `m`, unless an earlier
/// selector of its family parsed to the same value: ValidateMetricList only
/// dedups spellings, and "0.5" and "0.50" must fail here, not abort in the
/// Recorder.
template <typename T>
Status AppendUnique(const MetricSpec& m, T v, const char* what,
                    std::vector<T>* out) {
  if (std::find(out->begin(), out->end(), v) != out->end()) {
    return Status::InvalidArgument("metric '" + m.ToString() +
                                   "' requests a duplicate " + what);
  }
  out->push_back(v);
  return Status::OK();
}

}  // namespace

Result<RoundsRecord> ParseRoundsRecord(const ScenarioSpec& spec,
                                       RecordReader& r) {
  if (spec.HasParam("record.kind")) {
    return Status::InvalidArgument(
        "record.kind was replaced by the top-level metric list: use "
        "'record = rms' (per_round), 'record = rms_tail_mean' (tail_mean) "
        "or 'record = rounds_to_converge' (convergence)");
  }
  RoundsRecord out;
  MetricFlags& m = out.metrics;
  m.rms = r.Want("rms");
  m.tail_mean = r.Want("rms_tail_mean");
  m.convergence = r.Want("rounds_to_converge");
  m.bandwidth = r.Want("bandwidth");
  m.final_error_cdf = r.Want("cdf(final_error)");
  m.final_rms = r.Want("final_rms");
  m.gossip_bytes = r.Want("gossip_bytes");
  m.recovery = r.Want("recovery_rounds(rms)");
  // The parametrized families; NaN fails every range check.
  for (const MetricSpec& s : r.Family("quantile")) {
    const double q = SeriesArg(s, "final_error");
    if (!(q >= 0.0 && q <= 1.0)) {
      return BadArg(s, "the rounds driver supports quantile(final_error, q) "
                       "with q in [0, 1]");
    }
    DYNAGG_RETURN_IF_ERROR(
        AppendUnique(s, q, "quantile", &m.final_error_quantiles));
  }
  // R is the rms series' x: the round index + 1.
  for (const MetricSpec& s : r.Family("rms_at")) {
    const Result<double> at = ParseDouble(s.arg);
    if (!at.ok() || !(*at >= 1.0 && *at <= kIntMax) ||
        *at != std::floor(*at)) {
      return BadArg(s, "rms_at(R) takes the 1-based round number R of the "
                       "rms series (an integer in [1, 2147483647])");
    }
    DYNAGG_RETURN_IF_ERROR(AppendUnique(s, *at, "round", &m.rms_at));
  }
  for (const MetricSpec& s : r.Family("rounds_below")) {
    const double t = SeriesArg(s, "rms");
    if (!std::isfinite(t)) {
      return BadArg(s, "the rounds driver supports rounds_below(rms, T) with "
                       "a finite threshold T (the first round from which "
                       "the rms series stays below T; -1 = never)");
    }
    DYNAGG_RETURN_IF_ERROR(AppendUnique(s, t, "threshold", &m.rounds_below));
  }
  // H is checked against the built population by the driver.
  for (const MetricSpec& s : r.Family("final_rel_error")) {
    const Result<int64_t> h = ParseInt64(s.arg);
    if (!h.ok() || *h < 0 || *h > kIntMax) {
      return BadArg(s, "final_rel_error(H) takes a host id H in "
                       "[0, 2147483647]");
    }
    DYNAGG_RETURN_IF_ERROR(
        AppendUnique(s, static_cast<int>(*h), "host", &m.rel_error_hosts));
  }

  RecordConfig& cfg = out.cfg;
  DYNAGG_ASSIGN_OR_RETURN(cfg.from, r.Int<int>("record.from", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.every,
                          r.Int<int>("record.every", 1, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.threshold,
      r.Double("record.threshold", 1.0, -kFiniteMax, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.threshold_relative,
                          r.Bool("record.threshold_relative", false));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.cdf_lo, r.Double("record.cdf_lo", 0.0, -kFiniteMax, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.cdf_hi, r.Double("record.cdf_hi", 0.0, -kFiniteMax, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.cdf_buckets,
                          r.Int<int>("record.cdf_buckets", 20, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(cfg.relative, r.Bool("record.relative", false));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_from,
      r.Int<int>("record.recovery_from", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_mult,
      r.Double("record.recovery_mult", 2.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_add, r.Double("record.recovery_add", 0.0, 0.0, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      cfg.recovery_min, r.Double("record.recovery_min", 0.0, 0.0, kFiniteMax));

  if (m.tail_mean && cfg.from >= spec.rounds) {
    // An empty averaging window would fabricate a perfect score of 0.
    return Status::InvalidArgument(
        "record.from = " + std::to_string(cfg.from) +
        " leaves no rounds to average (rounds = " +
        std::to_string(spec.rounds) + ")");
  }
  if (m.recovery && cfg.recovery_from >= spec.rounds) {
    // An empty window has no floor to derive the threshold from.
    return Status::InvalidArgument(
        "record.recovery_from = " + std::to_string(cfg.recovery_from) +
        " leaves no rounds to watch for recovery (rounds = " +
        std::to_string(spec.rounds) + ")");
  }
  for (const double at : m.rms_at) {
    if (at > spec.rounds) {
      return Status::InvalidArgument(
          "rms_at(" + std::to_string(static_cast<int>(at)) +
          ") is past the last round (rounds = " +
          std::to_string(spec.rounds) + ")");
    }
  }
  if (m.final_error_cdf && cfg.cdf_hi <= cfg.cdf_lo) {
    return Status::InvalidArgument(
        "cdf(final_error) needs record.cdf_hi > record.cdf_lo");
  }
  return out;
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
  // Early stop only happens when rounds_to_converge is the only selector,
  // so with final_rms the last executed round is always rounds - 1.
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
    char shown[32];
    std::snprintf(shown, sizeof(shown), "%g", value);
    if (!(scaled >= 0)) {
      return bad("'" + name + "' term is negative for sweep value " + shown);
    }
    // The cast to uint64_t is defined below 2^64 only.
    if (!(scaled < 0x1p64)) {
      return bad("'" + name + "' term is at or above 2^64 for sweep value " +
                 shown);
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
  DYNAGG_ASSIGN_OR_RETURN(cfg.initial,
                          r.Int<int>("churn.initial", -1, 1, kIntMax));
  // The per-round Poisson draw takes O(rate) uniforms, so the rate must
  // be finite; the bound by hosts needs the cell's real size, so the
  // rounds driver's validate checks it.
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
  cfg.first_key = r.FirstSet();
  cfg.enabled = !cfg.first_key.empty();
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

Status CheckKeysRead(const ScenarioSpec& spec, const ProtocolDef& protocol,
                     const KeyReads& reads) {
  // Who reads each prefix (docs/spec_reference.md has the details).
  static constexpr const char* kReaders[][2] = {
      {"net.", "driver = async (its network model)"},
      {"workload.", "the stream sketches (count-min, count-sketch-freq)"},
      {"failure.", "driver = rounds and tag-tree (round-indexed plans)"},
      {"churn.", "the rounds driver on join-capable swarm protocols "
                 "(round-indexed plans; event-indexed ones for driver = "
                 "async are not implemented yet)"},
      {"env.", "the environment's parse, when the protocol builds one"},
      {"seeds.", "the parses deriving that stream: round_stream every "
                 "swarm driver and extreme-recovery, failure_stream driver "
                 "= rounds and tag-tree, churn_stream driver = rounds, "
                 "workload_stream the stream sketches, message_stream "
                 "driver = async"},
  };
  for (const auto& [key, value] : spec.params) {
    if (reads.Read(key) || key.rfind("record.", 0) == 0) continue;
    std::string msg = "experiment '" + spec.name + "': '" + key +
                      "' is read by no parse of this cell (driver = " +
                      spec.driver + ", protocol '" + spec.protocol + "'";
    if (!protocol.make_swarm) msg += ", which owns its whole trial loop";
    msg += ")";
    for (const auto& [prefix, readers] : kReaders) {
      if (key.rfind(prefix, 0) == 0) {
        msg = msg + "; " + prefix + "* keys are read by " + readers;
        break;
      }
    }
    return Status::InvalidArgument(msg);
  }
  return Status::OK();
}

}  // namespace scenario
}  // namespace dynagg
