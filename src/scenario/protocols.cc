// Builtin protocol catalog: SwarmFactories for the Driver API.
//
// A registered protocol builds one trial's *box* — the swarm plus the
// workload it is measured against — and MakeSwarmHandle
// (scenario/swarm_handle.h) derives the type-erased SwarmHandle's hooks and
// the protocol's capabilities from the box type. Which time loop runs it —
// the synchronous round loop, trace playback or message-level ticks — is
// the driver's business (scenario/drivers.cc, scenario/async_driver.cc),
// selected by `driver = rounds | trace | async` in the spec. Each protocol
// has one parse of its protocol.* keys, shared by the registry's validate
// hook and the factory, which draws the paper's U[0,100) value workload
// from the trial seed.
//
// Protocols whose trial structure fits no shared driver register a custom
// whole-trial runner instead: the TAG overlay baseline (tag-tree) owns its
// loop because its epochs are tree-depth-sized rather than fixed-length.
// The node-aggregator protocol drives the serialized NodeAggregator facade
// (agg/aggregator.h) over the wire format, making the deployment path
// scenario-reachable.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.h"
#include "agg/count_sketch.h"
#include "agg/count_sketch_reset.h"
#include "agg/epoch_push_sum.h"
#include "agg/extremes.h"
#include "agg/fm_sketch.h"
#include "agg/full_transfer.h"
#include "agg/invert_average.h"
#include "agg/push_flow.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "scenario/config.h"
#include "scenario/swarm_handle.h"
#include "scenario/trial.h"
#include "sim/bandwidth.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/workload.h"
#include "tree/spanning_tree.h"
#include "tree/tag.h"

namespace dynagg {
namespace scenario {
namespace {

Result<GossipMode> ParseGossipMode(ParamReader& r) {
  DYNAGG_ASSIGN_OR_RETURN(const std::string mode,
                          r.String("protocol.mode", "pushpull"));
  if (mode == "push") return GossipMode::kPush;
  if (mode == "pushpull") return GossipMode::kPushPull;
  return Status::InvalidArgument(
      "protocol.mode must be push or pushpull, got '" + mode + "'");
}

Result<RevertMode> ParseRevertMode(ParamReader& r) {
  DYNAGG_ASSIGN_OR_RETURN(const std::string revert,
                          r.String("protocol.revert", "fixed"));
  if (revert == "fixed") return RevertMode::kFixed;
  if (revert == "adaptive") return RevertMode::kAdaptive;
  return Status::InvalidArgument(
      "protocol.revert must be fixed or adaptive, got '" + revert + "'");
}

Result<int> CheckedHosts(const EnvHandle& env) {
  const int n = env.env->num_hosts();
  if (n <= 0) return Status::InvalidArgument("environment has no hosts");
  return n;
}

/// Adapts a Result<Params>-returning spec parser into the ProtocolDef's
/// validate hook, so `--dry-run` runs exactly the parse execution would.
template <typename Parse>
std::function<Status(const ScenarioSpec&)> SpecValidator(Parse parse) {
  return [parse](const ScenarioSpec& spec) { return parse(spec).status(); };
}

// ----------------------------------------------- spec parameter parsing ---
//
// One parse function per protocol, shared between the SwarmFactory (which
// needs the values) and the registry's validate hook (which only needs the
// Status): knob typos and out-of-range values fail `--dry-run` with the
// same message execution would produce. Each parse reads its keys through
// a ParamReader, whose Finish() rejects the protocol.* keys it did not
// read.

Result<GossipMode> ParsePushSumSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  DYNAGG_ASSIGN_OR_RETURN(const GossipMode mode, ParseGossipMode(r));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (spec.driver == "async" && mode != GossipMode::kPush) {
    return Status::InvalidArgument(
        "driver = async requires protocol.mode = push (the pairwise "
        "push/pull exchange is instantaneous by construction and cannot be "
        "split into in-flight messages)");
  }
  return mode;
}

Status ParsePushFlowSpec(const ScenarioSpec& spec) {
  return ParamReader(spec, "protocol.").Finish();
}

Result<PsrParams> ParsePsrSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  PsrParams params;
  DYNAGG_ASSIGN_OR_RETURN(params.lambda,
                          r.Double("protocol.lambda", 0.01, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(r));
  DYNAGG_ASSIGN_OR_RETURN(params.revert, ParseRevertMode(r));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  return params;
}

struct EpochSpecParams {
  EpochParams params;
  int phase_spread = 0;
  bool random_phases = false;
  uint64_t phase_stream = 4;
};

Result<EpochSpecParams> ParseEpochSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  EpochSpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(
      out.params.epoch_length,
      r.Int<int>("protocol.epoch_length", 10, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      out.phase_spread, r.Int<int>("protocol.phase_spread", 0, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(out.random_phases,
                          r.Bool("protocol.random_phases", false));
  DYNAGG_ASSIGN_OR_RETURN(
      out.phase_stream,
      r.Int<uint64_t>("protocol.phase_stream", 4, 0, kInt64Max));
  DYNAGG_ASSIGN_OR_RETURN(out.params.mode, ParseGossipMode(r));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (out.phase_spread > out.params.epoch_length) {
    return Status::InvalidArgument(
        "protocol.phase_spread must be in [0, epoch_length]");
  }
  if (out.random_phases && out.phase_spread > 0) {
    return Status::InvalidArgument(
        "protocol.random_phases and protocol.phase_spread are exclusive "
        "(random clock skew vs a deterministic phase ramp)");
  }
  if (spec.HasParam("protocol.phase_stream") && !out.random_phases) {
    return Status::InvalidArgument(
        "protocol.phase_stream only applies with protocol.random_phases");
  }
  return out;
}

Result<FullTransferParams> ParseFullTransferSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  FullTransferParams params;
  DYNAGG_ASSIGN_OR_RETURN(params.lambda,
                          r.Double("protocol.lambda", 0.1, 0.0, 1.0));
  DYNAGG_ASSIGN_OR_RETURN(params.parcels,
                          r.Int<int>("protocol.parcels", 4, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(params.window,
                          r.Int<int>("protocol.window", 3, 1, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  return params;
}

// --------------------------------------------------- averaging protocols ---

/// An averaging box over the paper's U[0,100) value workload.
template <typename Swarm, typename... Args>
std::shared_ptr<AverageBox<Swarm>> MakeAverageBox(const TrialContext& ctx,
                                                  int n, double state_bytes,
                                                  Args&&... args) {
  auto box = std::make_shared<AverageBox<Swarm>>(
      UniformWorkloadValues(n, ctx.trial_seed), std::forward<Args>(args)...);
  box->state_bytes = state_bytes;
  return box;
}

BoxResult<AverageBox<PushSumSwarm>> MakePushSum(const TrialContext& ctx,
                                                EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const GossipMode mode, ParsePushSumSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  // Under `driver = async` a tick halves each sender's mass and ships the
  // other half; ParsePushSumSpec rejects the pairwise push/pull exchange,
  // which has no message decomposition.
  return MakeAverageBox<PushSumSwarm>(ctx, n, 2.0 * sizeof(double), mode);
}

BoxResult<AverageBox<PushFlowSwarm>> MakePushFlow(const TrialContext& ctx,
                                                  EnvHandle& env) {
  DYNAGG_RETURN_IF_ERROR(ParsePushFlowSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  // State: the initial value, the two flow sums, plus the packed per-edge
  // flow entries (amortized ~one long-lived neighbor under uniform push).
  return MakeAverageBox<PushFlowSwarm>(ctx, n, 6.0 * sizeof(double));
}

BoxResult<AverageBox<PushSumRevertSwarm>> MakePushSumRevert(
    const TrialContext& ctx, EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const PsrParams params, ParsePsrSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  return MakeAverageBox<PushSumRevertSwarm>(ctx, n, 3.0 * sizeof(double),
                                            params);
}

BoxResult<AverageBox<EpochPushSumSwarm>> MakeEpochPushSum(
    const TrialContext& ctx, EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const EpochSpecParams cfg,
                          ParseEpochSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  std::vector<int> phases;
  if (cfg.phase_spread > 0) {
    phases.resize(n);
    for (int i = 0; i < n; ++i) {
      phases[i] = i % cfg.phase_spread;
    }
  } else if (cfg.random_phases) {
    // The epoch ablation's skewed-clocks mode: every host starts at a
    // uniformly random phase of the epoch.
    phases.resize(n);
    Rng prng(DeriveSeed(ctx.trial_seed, cfg.phase_stream));
    for (int i = 0; i < n; ++i) {
      phases[i] = static_cast<int>(
          prng.UniformInt(static_cast<uint64_t>(cfg.params.epoch_length)));
    }
  }
  return MakeAverageBox<EpochPushSumSwarm>(ctx, n, /*state_bytes=*/0.0,
                                           cfg.params, phases);
}

BoxResult<AverageBox<FullTransferSwarm>> MakeFullTransfer(
    const TrialContext& ctx, EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const FullTransferParams params,
                          ParseFullTransferSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  // State: the mass plus the estimate window of <weight, value> pairs.
  const double state_bytes =
      (2.0 + 2.0 * static_cast<double>(params.window)) * sizeof(double);
  return MakeAverageBox<FullTransferSwarm>(ctx, n, state_bytes, params);
}

// ------------------------------------------------------------- extremes ---

/// The extreme measure: the truth is the live max (or min) of the values,
/// which also back kill_top_fraction. Trace groups have no extreme truth.
struct ExtremesBox {
  std::vector<double> values;
  std::vector<uint64_t> keys;
  DynamicExtremeSwarm swarm;
  double state_bytes = 0.0;

  ExtremesBox(std::vector<double> v, std::vector<uint64_t> k,
              const ExtremeParams& params)
      : values(std::move(v)), keys(std::move(k)), swarm(values, keys, params) {}

  double Estimate(HostId id) const { return swarm.Estimate(id); }
  double Truth(const Population& pop) const {
    const bool max = swarm.params().kind == ExtremeKind::kMaximum;
    bool first = true;
    double best = 0.0;
    ForEachAliveId(pop, [&](HostId id) {
      const double v = values[id];
      if (first || (max ? v > best : v < best)) {
        best = v;
        first = false;
      }
    });
    return best;
  }
};

Result<ExtremeParams> ParseExtremesSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  DYNAGG_ASSIGN_OR_RETURN(const std::string kind_name,
                          r.String("protocol.kind", "max"));
  ExtremeParams params;
  if (kind_name == "max") {
    params.kind = ExtremeKind::kMaximum;
  } else if (kind_name == "min") {
    params.kind = ExtremeKind::kMinimum;
  } else {
    return Status::InvalidArgument(
        "protocol.kind must be max or min, got '" + kind_name + "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(params.cutoff,
                          r.Int<int>("protocol.cutoff", 12, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(r));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  return params;
}

BoxResult<ExtremesBox> MakeExtremes(const TrialContext& ctx, EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const ExtremeParams params,
                          ParseExtremesSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  return std::make_shared<ExtremesBox>(
      UniformWorkloadValues(n, ctx.trial_seed), std::move(keys), params);
}

// ---------------------------------------------------- counting protocols ---

/// The largest protocol.multiplicity: the counting sketches insert that
/// many identifiers per host when the swarm is built and again at every
/// OnJoin, so the cost is per host and per join. The corpus's largest
/// value is 100.
constexpr int64_t kMaxMultiplicity = 10000;

/// protocol.multiplicity of the counting sketches: a per-host identifier
/// count, or the symbolic value `workload` (round(v) for the paper's
/// U[0,100) value workload — the multiple-insertion summation of the
/// Invert-Average ablation, Section IV.B).
struct Multiplicity {
  bool workload = false;
  int64_t per_host = 1;
};

Result<Multiplicity> ParseMultiplicity(ParamReader& r,
                                       const ScenarioSpec& spec) {
  Multiplicity out;
  DYNAGG_ASSIGN_OR_RETURN(const std::string text,
                          r.String("protocol.multiplicity", "1"));
  out.workload = text == "workload";
  if (!out.workload) {
    DYNAGG_ASSIGN_OR_RETURN(
        out.per_host,
        r.Int("protocol.multiplicity", 1, 0, kMaxMultiplicity));
  }
  // The trace driver's group estimate divides by the multiplicity to
  // compare counts against group sizes; workload multiplicities include 0
  // (values < 0.5), and 0 would silently print inf.
  if (spec.driver == "trace" && (out.workload || out.per_host < 1)) {
    return Status::InvalidArgument(
        "driver = trace requires protocol.multiplicity >= 1 (group sizes "
        "are measured in devices)");
  }
  return out;
}

std::vector<int64_t> Multiplicities(const TrialContext& ctx, int n,
                                    const Multiplicity& m) {
  if (!m.workload) return std::vector<int64_t>(n, m.per_host);
  const std::vector<double> values = UniformWorkloadValues(n, ctx.trial_seed);
  std::vector<int64_t> mult(n);
  for (int i = 0; i < n; ++i) {
    mult[i] = static_cast<int64_t>(values[i] + 0.5);
  }
  return mult;
}

/// Reads protocol.bins and protocol.levels, the sketch shape the counting
/// protocols share, over the given defaults. bins x levels counters per
/// host stay int-indexed.
Status ReadSketchShape(ParamReader& r, int* bins, int* levels) {
  DYNAGG_ASSIGN_OR_RETURN(
      *bins, r.Int<int>("protocol.bins", *bins, 1, kIntMax / kCsrMaxLevels));
  DYNAGG_ASSIGN_OR_RETURN(
      *levels, r.Int<int>("protocol.levels", *levels, 1, kCsrMaxLevels));
  return Status::OK();
}

/// Modelled gossip payload of one sketch state flowing both ways per
/// initiated push/pull exchange, times the number of simultaneously
/// maintained attributes (the Invert-Average ablation's cost model):
/// bins x levels counter bytes plus an 8-byte header.
double SketchGossipBytes(int bins, int levels, int64_t attributes) {
  return static_cast<double>(attributes) *
         (2.0 * (static_cast<double>(bins) * levels + 8.0));
}

struct CountSketchSpecParams {
  CountSketchParams params;
  Multiplicity multiplicity;
};

Result<CountSketchSpecParams> ParseCountSketchSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  CountSketchSpecParams out;
  CountSketchParams& params = out.params;
  DYNAGG_RETURN_IF_ERROR(ReadSketchShape(r, &params.bins, &params.levels));
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(r));
  DYNAGG_ASSIGN_OR_RETURN(out.multiplicity, ParseMultiplicity(r, spec));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  return out;
}

BoxResult<CountBox<CountSketchSwarm>> MakeCountSketch(const TrialContext& ctx,
                                                      EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const CountSketchSpecParams cfg,
                          ParseCountSketchSpec(*ctx.spec));
  const CountSketchParams& params = cfg.params;
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  auto box = std::make_shared<CountBox<CountSketchSwarm>>(
      Multiplicities(ctx, n, cfg.multiplicity), params);
  // One uint64 bit string per bin.
  box->state_bytes = static_cast<double>(params.bins) * sizeof(uint64_t);
  return box;
}

/// Parses the q list of a `counter_quantiles(q1, q2, ...)` selector (the
/// per-bit bucketed counter-age quantiles of the spatial ablation), or an
/// empty list when the spec does not request it.
Result<std::vector<double>> ParseCounterQuantilesSpec(
    const ScenarioSpec& spec) {
  std::vector<double> qs;
  for (const MetricSpec& m : spec.metrics) {
    if (m.name != "counter_quantiles") continue;
    const std::string bad =
        "metric '" + m.ToString() +
        "': counter_quantiles takes a comma-separated list of quantiles "
        "in [0, 1]";
    size_t start = 0;
    for (size_t i = 0; i <= m.arg.size(); ++i) {
      if (i < m.arg.size() && m.arg[i] != ',') continue;
      const Result<double> q = ParseDouble(m.arg.substr(start, i - start));
      if (!q.ok() || !(*q >= 0.0 && *q <= 1.0)) {
        return Status::InvalidArgument(bad);
      }
      qs.push_back(*q);
      start = i + 1;
    }
    if (qs.empty()) return Status::InvalidArgument(bad);
  }
  return qs;
}

/// Count-Sketch-Reset's counter-age records (its extra metrics) and
/// their record.* knobs.
struct CsrRecordParams {
  /// cdf(counter): the clamp bucket of the per-bit counter CDF.
  bool counter_cdf = false;
  int max_counter = 12;
  /// counter_quantiles(q1, ...): the quantiles and the histogram shape
  /// they are read from; empty when not requested.
  std::vector<double> quantiles;
  double hist_max = 64.0;
  int hist_buckets = 64;

  /// The largest raw counter the records read exactly: the cdf's clamp
  /// bucket or the quantile histogram's upper edge, 0 when only estimates
  /// are recorded. Lets the swarm pick its cell width.
  int ReadCounterMax() const {
    int read_max = counter_cdf ? max_counter : 0;
    if (!quantiles.empty()) {
      const double edge = std::ceil(hist_max);
      read_max = edge < kCsrCounterCap
                     ? std::max(read_max, static_cast<int>(edge))
                     : int{kCsrCounterCap};
    }
    return read_max;
  }
};

struct CsrSpecParams {
  CsrParams params;
  Multiplicity multiplicity;
  int64_t attributes = 1;
  CsrRecordParams records;
};

Result<CsrSpecParams> ParseCsrSpec(const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  CsrSpecParams out;
  CsrParams& params = out.params;
  DYNAGG_RETURN_IF_ERROR(ReadSketchShape(r, &params.bins, &params.levels));
  // f(k) is clamped to the counter range, so any finite cutoff works.
  DYNAGG_ASSIGN_OR_RETURN(
      params.cutoff_base,
      r.Double("protocol.cutoff_base", params.cutoff_base, -kFiniteMax,
               kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      params.cutoff_slope,
      r.Double("protocol.cutoff_slope", params.cutoff_slope, -kFiniteMax,
               kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      params.cutoff_enabled,
      r.Bool("protocol.cutoff_enabled", params.cutoff_enabled));
  DYNAGG_ASSIGN_OR_RETURN(params.mode, ParseGossipMode(r));
  DYNAGG_ASSIGN_OR_RETURN(out.multiplicity, ParseMultiplicity(r, spec));
  DYNAGG_ASSIGN_OR_RETURN(out.attributes,
                          r.Int("protocol.attributes", 1, 1, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  // The record.* knobs of the extra metrics; the rounds driver's record
  // parse owns that prefix's allowlist (ProtocolDef::extra_record_keys).
  CsrRecordParams& rec = out.records;
  rec.counter_cdf = MetricRequested(spec, "cdf(counter)");
  DYNAGG_ASSIGN_OR_RETURN(
      rec.max_counter,
      spec.ParamInt<int>("record.max_counter", rec.max_counter, 1,
                         kCsrCounterCap));
  DYNAGG_ASSIGN_OR_RETURN(rec.quantiles, ParseCounterQuantilesSpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(
      rec.hist_max, spec.ParamDouble("record.counter_hist_max", rec.hist_max,
                                     Open(0.0), kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      rec.hist_buckets,
      spec.ParamInt<int>("record.counter_hist_buckets", rec.hist_buckets, 1,
                         kIntMax));
  return out;
}

/// Count-Sketch-Reset's box: the counting measure, plus the modelled
/// gossip payload (amortized over protocol.attributes simultaneous sums)
/// and the counter-age records of Fig 6 and the spatial ablation.
struct CsrBox : CountBox<CsrSwarm> {
  using CountBox<CsrSwarm>::CountBox;
  int64_t attributes = 1;
  CsrRecordParams records;

  double GossipBytes() const {
    return SketchGossipBytes(swarm.params().bins, swarm.params().levels,
                             attributes);
  }
  Status Finish(const TrialContext& ctx, Recorder& rec) const;
};

/// Fig 6's bit-counter distribution: pool the N[n][k] age counters over
/// all hosts and bins after the last round and report the per-bit CDF of
/// the finite counters (infinity = the level was never sourced), clamping
/// the deep tail into the last bucket. Every level is emitted so the
/// bucket structure is seed-independent (trials must align for pooling);
/// levels that effectively never appear (< n/100 + 1 finite counters, as
/// in the legacy harness) are suppressed at assembly via min_key_total —
/// after cross-trial pooling when aggregating.
///
/// The second extra selector, counter_quantiles(q1, q2, ...), reports the
/// spatial ablation's per-bit counter-age quantiles instead: one series
/// point per sufficiently-sourced bit (>= n/50 + 1 finite counters, the
/// legacy convention), quantiles over a bucketed histogram spanning
/// [0, record.counter_hist_max) with record.counter_hist_buckets buckets.
Status CsrBox::Finish(const TrialContext&, Recorder& rec) const {
  const CsrParams& params = swarm.params();
  const int n = swarm.size();
  if (records.counter_cdf) {
    const int max_c = records.max_counter;
    std::vector<std::vector<int64_t>> histograms(
        params.levels, std::vector<int64_t>(max_c + 1, 0));
    for (HostId id = 0; id < n; ++id) {
      for (int k = 0; k < params.levels; ++k) {
        const CsrLevelRow row = swarm.level_row(id, k);
        for (int b = 0; b < row.size(); ++b) {
          const uint8_t c = row[b];
          if (c == kCsrInfinity) continue;
          ++histograms[k][c <= max_c ? c : max_c];
        }
      }
    }
    HistogramRecord* record = rec.MutableHistogram(
        "counter_cdf", /*key_name=*/"bit", "counter_value", "cdf",
        /*cumulative=*/true, /*min_key_total=*/n / 100 + 1);
    for (int k = 0; k < params.levels; ++k) {
      for (int c = 0; c <= max_c; ++c) {
        record->buckets.push_back({static_cast<double>(k),
                                   static_cast<double>(c),
                                   histograms[k][c]});
      }
    }
  }
  if (!records.quantiles.empty()) {
    for (int k = 0; k < params.levels; ++k) {
      Histogram hist(0, records.hist_max, records.hist_buckets);
      int64_t finite = 0;
      for (HostId id = 0; id < n; ++id) {
        const CsrLevelRow row = swarm.level_row(id, k);
        for (int b = 0; b < row.size(); ++b) {
          const uint8_t c = row[b];
          if (c == kCsrInfinity) continue;
          hist.Add(c);
          ++finite;
        }
      }
      // Skip bits that effectively never appear, as the legacy spatial
      // ablation did (quantiles of a near-empty histogram are noise).
      if (finite < n / 50 + 1) continue;
      for (const double q : records.quantiles) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", q * 100.0);
        rec.AddSeriesPoint("bit", "counter_p" + std::string(buf),
                           static_cast<double>(k), hist.Quantile(q));
      }
    }
  }
  return Status::OK();
}

BoxResult<CsrBox> MakeCountSketchReset(const TrialContext& ctx,
                                       EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const CsrSpecParams cfg, ParseCsrSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  auto box = std::make_shared<CsrBox>(
      Multiplicities(ctx, n, cfg.multiplicity), cfg.params,
      cfg.records.ReadCounterMax());
  box->attributes = cfg.attributes;
  box->records = cfg.records;
  // The modelled footprint: one byte-sized age counter per (bin, level)
  // slot, the wire payload, whatever cell width the swarm stores.
  box->state_bytes =
      static_cast<double>(cfg.params.bins) * cfg.params.levels;
  return box;
}

// ------------------------------------------------------- invert-average ---

struct InvertAverageSpecParams {
  InvertAverageParams params;
  int64_t attributes = 1;
};

Result<InvertAverageSpecParams> ParseInvertAverageSpec(
    const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  InvertAverageSpecParams out;
  InvertAverageParams& params = out.params;
  DYNAGG_ASSIGN_OR_RETURN(
      params.psr.lambda,
      r.Double("protocol.lambda", params.psr.lambda, 0.0, 1.0));
  DYNAGG_RETURN_IF_ERROR(
      ReadSketchShape(r, &params.csr.bins, &params.csr.levels));
  DYNAGG_ASSIGN_OR_RETURN(
      params.count_multiplicity,
      r.Int("protocol.multiplicity", params.count_multiplicity, 1,
            kMaxMultiplicity));
  DYNAGG_ASSIGN_OR_RETURN(out.attributes,
                          r.Int("protocol.attributes", 1, 1, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  return out;
}

/// Invert-Average (agg/invert_average.h): dynamic summation as
/// Count-Sketch-Reset network size x Push-Sum-Revert average, measured
/// against the live sum. The sketch cost is amortized across
/// protocol.attributes simultaneous sums while each sum only adds two
/// doubles of Push-Sum traffic — the bandwidth argument of Section IV.B,
/// modelled by the gossip_bytes record.
struct InvertAverageBox {
  std::vector<double> values;
  InvertAverageSwarm swarm;
  int64_t attributes = 1;
  double state_bytes = 0.0;

  InvertAverageBox(std::vector<double> v, const InvertAverageParams& params)
      : values(std::move(v)), swarm(values, params) {}

  double Estimate(HostId id) const { return swarm.EstimateSum(id); }
  double Truth(const Population& pop) const { return TrueSum(values, pop); }
  /// One shared size sketch plus two doubles of Push-Sum state per summed
  /// attribute, both directions per initiated exchange.
  double GossipBytes() const {
    const CsrParams& csr = swarm.csr().params();
    return SketchGossipBytes(csr.bins, csr.levels, 1) +
           static_cast<double>(attributes) * 2.0 * (2.0 * sizeof(double));
  }
};

BoxResult<InvertAverageBox> MakeInvertAverage(const TrialContext& ctx,
                                              EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const InvertAverageSpecParams cfg,
                          ParseInvertAverageSpec(*ctx.spec));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  auto box = std::make_shared<InvertAverageBox>(
      UniformWorkloadValues(n, ctx.trial_seed), cfg.params);
  box->attributes = cfg.attributes;
  // Push-Sum-Revert mass (3 doubles) plus the CSR counter array.
  box->state_bytes =
      3.0 * sizeof(double) +
      static_cast<double>(cfg.params.csr.bins) * cfg.params.csr.levels;
  return box;
}

// ---------------------------------------------------- serialized facade ---

/// A population of NodeAggregator facades (agg/aggregator.h) gossiping
/// through their serialized wire payloads — the deployment path, driven
/// like a swarm. Exchanges are sequential within a round in a shuffled
/// alive order, mirroring the push/pull swarms: each initiator serializes
/// its request, the peer merges it and replies, the initiator merges the
/// reply and closes its round.
class NodeAggregatorSwarm {
 public:
  NodeAggregatorSwarm(const std::vector<double>& values,
                      const AggregatorConfig& config) {
    aggs_.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      aggs_.emplace_back(/*device_id=*/static_cast<uint64_t>(i), values[i],
                         config);
    }
  }

  void RunRound(const Environment& env, const Population& pop, Rng& rng) {
    kernel_.PlanExchangeRound(env, pop, rng);
    kernel_.ForEachSlot([this](HostId i, HostId peer) {
      const std::vector<uint8_t> request = aggs_[i].BeginRound();
      if (peer != kInvalidHost) {
        Result<std::vector<uint8_t>> reply =
            aggs_[peer].HandleMessage(request);
        // In-process payloads cannot be malformed; a failure is a bug.
        DYNAGG_CHECK(reply.ok());
        DYNAGG_CHECK(aggs_[i].HandleReply(*reply).ok());
        if (meter_ != nullptr) {
          meter_->RecordMessage(static_cast<int64_t>(request.size()));
          meter_->RecordMessage(static_cast<int64_t>(reply->size()));
        }
      }
      aggs_[i].EndRound();
    });
  }

  const NodeAggregator& device(HostId id) const { return aggs_[id]; }
  void set_traffic_meter(TrafficMeter* meter) { meter_ = meter; }

 private:
  std::vector<NodeAggregator> aggs_;
  TrafficMeter* meter_ = nullptr;
  RoundKernel kernel_;
};

/// Which aggregate the facade population reports (protocol.metric).
enum class FacadeMetric { kAverage, kCount, kSum };

struct NodeAggregatorSpecParams {
  AggregatorConfig config;
  FacadeMetric metric = FacadeMetric::kAverage;
};

Result<NodeAggregatorSpecParams> ParseNodeAggregatorSpec(
    const ScenarioSpec& spec) {
  ParamReader r(spec, "protocol.");
  NodeAggregatorSpecParams out;
  AggregatorConfig& config = out.config;
  DYNAGG_ASSIGN_OR_RETURN(
      config.lambda, r.Double("protocol.lambda", config.lambda, 0.0, 1.0));
  DYNAGG_RETURN_IF_ERROR(
      ReadSketchShape(r, &config.csr.bins, &config.csr.levels));
  DYNAGG_ASSIGN_OR_RETURN(
      config.count_multiplicity,
      r.Int("protocol.multiplicity", config.count_multiplicity, 1,
            kMaxMultiplicity));
  DYNAGG_ASSIGN_OR_RETURN(const std::string metric,
                          r.String("protocol.metric", "average"));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (metric == "average") {
    out.metric = FacadeMetric::kAverage;
  } else if (metric == "count") {
    out.metric = FacadeMetric::kCount;
  } else if (metric == "sum") {
    out.metric = FacadeMetric::kSum;
  } else {
    return Status::InvalidArgument(
        "protocol.metric must be average, count or sum, got '" + metric +
        "'");
  }
  return out;
}

/// The facade population measured by protocol.metric; the values back
/// kill_top_fraction.
struct NodeAggregatorBox {
  std::vector<double> values;
  NodeAggregatorSwarm swarm;
  FacadeMetric metric = FacadeMetric::kAverage;
  double state_bytes = 0.0;

  NodeAggregatorBox(std::vector<double> v, const AggregatorConfig& config)
      : values(std::move(v)), swarm(values, config) {}

  double Estimate(HostId id) const {
    const NodeAggregator& device = swarm.device(id);
    switch (metric) {
      case FacadeMetric::kAverage:
        return device.AverageEstimate();
      case FacadeMetric::kCount:
        return device.CountEstimate();
      case FacadeMetric::kSum:
        return device.SumEstimate();
    }
    return 0.0;
  }
  double Truth(const Population& pop) const {
    switch (metric) {
      case FacadeMetric::kAverage:
        return TrueAverage(values, pop);
      case FacadeMetric::kCount:
        return static_cast<double>(pop.num_alive());
      case FacadeMetric::kSum:
        return TrueSum(values, pop);
    }
    return 0.0;
  }
};

BoxResult<NodeAggregatorBox> MakeNodeAggregator(const TrialContext& ctx,
                                                EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const NodeAggregatorSpecParams parsed,
                          ParseNodeAggregatorSpec(*ctx.spec));
  const AggregatorConfig& config = parsed.config;
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  auto box = std::make_shared<NodeAggregatorBox>(
      UniformWorkloadValues(n, ctx.trial_seed), config);
  box->metric = parsed.metric;
  // Push-Sum-Revert mass (3 doubles) plus the CSR counter array.
  box->state_bytes = 3.0 * sizeof(double) +
                     static_cast<double>(config.csr.bins) * config.csr.levels;
  return box;
}

// ------------------------------------------------- sketch accuracy table ---

/// Monte-Carlo FM-sketch accuracy (the in-text "64 buckets for an expected
/// error of 9.7%" table, formerly bench/tab_sketch_error): inserts
/// protocol.count unique objects into a fresh sketch protocol.samples times
/// and reports the relative-error statistics of the estimator. No gossip,
/// no environment, no rounds — a whole-trial runner swept over
/// protocol.buckets. The seed convention (DeriveSeed(seed, sample * 1000 +
/// buckets)) reproduces the retired bench main bit-identically.
struct FmAccuracySpecParams {
  int64_t buckets = 64;
  int64_t levels = 32;
  int64_t samples = 200;
  int64_t count = 20000;
};

Result<FmAccuracySpecParams> ParseFmAccuracySpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("seeds.", {}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", {}));
  DYNAGG_RETURN_IF_ERROR(ParamReader(spec, "failure.").Finish());
  // The default `rms` selector maps onto the protocol's own error scalars,
  // the tag-tree convention for custom runners.
  DYNAGG_RETURN_IF_ERROR(CheckMetricsSupported(spec, {"rms"}));
  ParamReader r(spec, "protocol.");
  FmAccuracySpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(
      out.buckets, r.Int("protocol.buckets", out.buckets, 1, kIntMax));
  // One 64-bit word per bucket holds the levels.
  DYNAGG_ASSIGN_OR_RETURN(out.levels,
                          r.Int("protocol.levels", out.levels, 1, 64));
  DYNAGG_ASSIGN_OR_RETURN(
      out.samples, r.Int("protocol.samples", out.samples, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(out.count,
                          r.Int("protocol.count", out.count, 1, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  return out;
}

Status RunFmAccuracy(const TrialContext& ctx, Recorder& rec) {
  DYNAGG_ASSIGN_OR_RETURN(const FmAccuracySpecParams cfg,
                          ParseFmAccuracySpec(*ctx.spec));
  const int64_t buckets = cfg.buckets;
  const int64_t levels = cfg.levels;
  const int64_t samples = cfg.samples;
  const int64_t count = cfg.count;

  RunningStat rel_error;
  RunningStat signed_error;
  for (int64_t sample = 0; sample < samples; ++sample) {
    FmSketch sketch(static_cast<int>(buckets), static_cast<int>(levels));
    const uint64_t sample_seed =
        DeriveSeed(ctx.trial_seed, sample * 1000 + buckets);
    for (int64_t i = 0; i < count; ++i) {
      sketch.InsertObject(HashCombine(sample_seed, i), sample_seed);
    }
    const double rel = (sketch.EstimateCount() - count) / count;
    rel_error.Add(std::abs(rel));
    signed_error.Add(rel);
  }
  rec.AddScalar("mean_rel_error", rel_error.mean());
  rec.AddScalar("rms_rel_error",
                std::sqrt(rel_error.mean() * rel_error.mean() +
                          rel_error.variance()));
  rec.AddScalar("bias", signed_error.mean());
  return Status::OK();
}

// ------------------------------------------------------ overlay baseline ---

/// TAG spanning-tree aggregation over repeated epochs under churn,
/// reproducing the loop of ablation_tree_vs_gossip: each epoch floods a
/// fresh BFS tree from the root, runs one tree-depth-sized epoch under a
/// churn plan drawn from a shared stream, revives the leader, and records
/// the leader's error against the live truth. The default `rms` metric
/// selector maps onto the protocol's own error scalars
/// (tag_mean_abs_err, tag_failed_epochs_pct). Epochs are tree-depth-sized
/// rather than fixed-length, so this protocol owns its whole trial loop
/// (ProtocolDef::run_custom) instead of registering a SwarmFactory.
struct TagTreeSpecParams {
  int64_t epochs = 30;
  int64_t root = 0;
  FailureConfig fail;
};

Result<TagTreeSpecParams> ParseTagTreeSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("seeds.", {"round_stream",
                                                     "failure_stream"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", {}));
  DYNAGG_RETURN_IF_ERROR(CheckMetricsSupported(spec, {"rms"}));
  ParamReader r(spec, "protocol.");
  TagTreeSpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(
      out.epochs, r.Int("protocol.epochs", out.epochs, 1, kIntMax));
  // Checked against the built population by the runner.
  DYNAGG_ASSIGN_OR_RETURN(out.root,
                          r.Int("protocol.root", out.root, 0, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  DYNAGG_ASSIGN_OR_RETURN(out.fail, ParseFailureConfig(spec));
  if (out.fail.kind != FailureConfig::Kind::kNone &&
      out.fail.kind != FailureConfig::Kind::kChurn) {
    return Status::InvalidArgument(
        "tag-tree supports failure.kind none or churn");
  }
  return out;
}

Status RunTagTree(const TrialContext& ctx, Recorder& rec) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(const TagTreeSpecParams cfg,
                          ParseTagTreeSpec(spec));
  const int64_t epochs = cfg.epochs;
  const int64_t root_id = cfg.root;
  const FailureConfig& fail = cfg.fail;
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t fail_stream,
                          FailureStream(spec, fail));

  DYNAGG_ASSIGN_OR_RETURN(EnvHandle env, MakeEnvironment(ctx));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  const HostId root = static_cast<HostId>(root_id);
  if (root >= n) {
    return Status::InvalidArgument("protocol.root out of range");
  }
  const std::vector<double> values = UniformWorkloadValues(n, ctx.trial_seed);

  Rng churn_rng(DeriveSeed(ctx.trial_seed, fail_stream));
  Population pop(n);
  RunningStat err;
  int failed_epochs = 0;
  int round = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const SpanningTree tree = BuildBfsTree(*env.env, pop, root);
    FailurePlan churn;
    if (fail.kind == FailureConfig::Kind::kChurn) {
      churn = FailurePlan::Churn(n, round, round + tree.max_depth + 1,
                                 fail.death_prob, ChurnReturnProb(fail),
                                 churn_rng);
    }
    const TagEpochResult result =
        RunTagEpoch(tree, values, pop, churn, round);
    round += tree.max_depth + 1;
    // Keep the leader alive so epochs stay comparable.
    pop.Revive(root);
    if (!result.valid || result.count == 0) {
      ++failed_epochs;
      continue;
    }
    const double truth = TrueAverage(values, pop);
    err.Add(std::abs(result.average - truth));
  }

  rec.AddScalar("tag_mean_abs_err", err.mean());
  rec.AddScalar("tag_failed_epochs_pct",
                100.0 * failed_epochs / static_cast<double>(epochs));
  return Status::OK();
}

// --------------------------------------------------- extremes ablation ---

struct ExtremeRecoverySpecParams {
  ExtremeParams extreme;
  double winner_value = 1000.0;
  double runner_up_value = 999.0;
  int64_t steady_rounds = 40;
  int64_t warmup_rounds = 15;
  int64_t sample_stride = 97;
  int64_t recover_rounds = 100;
  int64_t recover_pct = 95;
};

Result<ExtremeRecoverySpecParams> ParseExtremeRecoverySpec(
    const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("seeds.", {"round_stream"}));
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("record.", {}));
  DYNAGG_RETURN_IF_ERROR(ParamReader(spec, "failure.").Finish());
  // Like the other custom runners, the default `rms` selector stands for
  // the protocol's own scalar records.
  DYNAGG_RETURN_IF_ERROR(CheckMetricsSupported(spec, {"rms"}));
  ParamReader r(spec, "protocol.");
  ExtremeRecoverySpecParams out;
  DYNAGG_ASSIGN_OR_RETURN(
      out.extreme.cutoff, r.Int<int>("protocol.cutoff", 12, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(out.extreme.mode, ParseGossipMode(r));
  DYNAGG_ASSIGN_OR_RETURN(
      out.winner_value, r.Double("protocol.winner_value", out.winner_value,
                                 -kFiniteMax, kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      out.runner_up_value,
      r.Double("protocol.runner_up_value", out.runner_up_value, -kFiniteMax,
               kFiniteMax));
  DYNAGG_ASSIGN_OR_RETURN(
      out.steady_rounds,
      r.Int("protocol.steady_rounds", out.steady_rounds, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      out.warmup_rounds,
      r.Int("protocol.warmup_rounds", out.warmup_rounds, 0, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      out.sample_stride,
      r.Int("protocol.sample_stride", out.sample_stride, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      out.recover_rounds,
      r.Int("protocol.recover_rounds", out.recover_rounds, 1, kIntMax));
  DYNAGG_ASSIGN_OR_RETURN(
      out.recover_pct, r.Int("protocol.recover_pct", out.recover_pct, 1, 100));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (out.warmup_rounds >= out.steady_rounds) {
    return Status::InvalidArgument(
        "protocol.warmup_rounds must be below protocol.steady_rounds");
  }
  return out;
}

/// The dynamic-extreme cutoff ablation (the paper's recipe applied to
/// max): a planted winner gossips to steady state while the runner counts
/// how many sampled hosts hold the true max and how often a too-small
/// cutoff expires the live winner (flicker); then the winner departs and
/// the runner counts rounds until a quorum of hosts reports the surviving
/// runner-up. Two phases with a mid-trial targeted kill and
/// quorum-early-exit fit no shared driver, so this is a whole-trial
/// runner; it emits steady_correct_pct / flicker_pct / rounds_to_recover
/// (-1 = never, the static cutoff = 0 mode).
Status RunExtremeRecovery(const TrialContext& ctx, Recorder& rec) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(const ExtremeRecoverySpecParams cfg,
                          ParseExtremeRecoverySpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(EnvHandle env, MakeEnvironment(ctx));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedHosts(env));
  if (n < 2) {
    return Status::InvalidArgument(
        "extreme-recovery needs at least 2 hosts (a winner and a "
        "runner-up)");
  }
  std::vector<double> values = UniformWorkloadValues(n, ctx.trial_seed);
  values[0] = cfg.winner_value;  // the winner that will depart
  values[1] = cfg.runner_up_value;
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  DynamicExtremeSwarm swarm(values, keys, cfg.extreme);
  Population pop(n);
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          RoundStream(spec, ctx, n));
  Rng rng(DeriveSeed(ctx.trial_seed, round_stream));

  // Phase 1: steady state. Count sampled hosts holding the true max and
  // estimates that flicker (a too-small cutoff expires live candidates
  // between refreshes).
  int64_t correct = 0;
  int64_t flickers = 0;
  int64_t samples = 0;
  for (int64_t round = 0; round < cfg.steady_rounds; ++round) {
    swarm.RunRound(*env.env, pop, rng);
    if (round < cfg.warmup_rounds) continue;
    for (HostId id = 0; id < n; id += static_cast<int>(cfg.sample_stride)) {
      ++samples;
      if (swarm.Estimate(id) == cfg.winner_value) {
        ++correct;
      } else {
        ++flickers;
      }
    }
  }
  // Phase 2: the winner departs; count rounds until the quorum reports
  // the runner-up.
  pop.Kill(0);
  int recover = -1;
  for (int64_t round = 0; round < cfg.recover_rounds; ++round) {
    swarm.RunRound(*env.env, pop, rng);
    int64_t holding = 0;
    ForEachAliveId(pop, [&](HostId id) {
      if (swarm.Estimate(id) == cfg.runner_up_value) ++holding;
    });
    if (holding >=
        static_cast<int64_t>(pop.num_alive()) * cfg.recover_pct / 100) {
      recover = static_cast<int>(round) + 1;
      break;
    }
  }
  rec.AddScalar("steady_correct_pct",
                100.0 * static_cast<double>(correct) /
                    static_cast<double>(samples));
  rec.AddScalar("flicker_pct", 100.0 * static_cast<double>(flickers) /
                                   static_cast<double>(samples));
  rec.AddScalar("rounds_to_recover", static_cast<double>(recover));
  return Status::OK();
}

}  // namespace

namespace internal {

void RegisterBuiltinProtocols(Registry<ProtocolDef>& registry) {
  // Every entry carries a spec-only validate hook so `--dry-run` rejects
  // knob/protocol mismatches without building swarms; swarm protocols get
  // their capabilities from their box type (scenario/swarm_handle.h).
  const auto add = [&registry](const std::string& name, ProtocolDef def) {
    DYNAGG_CHECK(registry.Register(name, std::move(def)).ok());
  };
  const auto custom = [&add](const std::string& name, ProtocolRunner run,
                             std::function<Status(const ScenarioSpec&)>
                                 validate,
                             bool uses_environment = true) {
    ProtocolDef def;
    def.run_custom = std::move(run);
    def.validate = std::move(validate);
    def.uses_environment = uses_environment;
    add(name, std::move(def));
  };
  add("push-sum", SwarmProtocol(MakePushSum, SpecValidator(ParsePushSumSpec)));
  add("push-flow", SwarmProtocol(MakePushFlow, ParsePushFlowSpec));
  add("push-sum-revert",
      SwarmProtocol(MakePushSumRevert, SpecValidator(ParsePsrSpec)));
  add("epoch-push-sum",
      SwarmProtocol(MakeEpochPushSum, SpecValidator(ParseEpochSpec)));
  add("full-transfer",
      SwarmProtocol(MakeFullTransfer, SpecValidator(ParseFullTransferSpec)));
  add("extremes", SwarmProtocol(MakeExtremes, SpecValidator(ParseExtremesSpec)));
  add("count-sketch",
      SwarmProtocol(MakeCountSketch, SpecValidator(ParseCountSketchSpec)));
  ProtocolDef csr =
      SwarmProtocol(MakeCountSketchReset, SpecValidator(ParseCsrSpec));
  csr.extra_metrics = {"cdf(counter)", "counter_quantiles(*)"};
  csr.extra_record_keys = {"max_counter", "counter_hist_max",
                           "counter_hist_buckets"};
  add("count-sketch-reset", std::move(csr));
  add("invert-average",
      SwarmProtocol(MakeInvertAverage, SpecValidator(ParseInvertAverageSpec)));
  // The serialized facade has no state-reset wire message yet, so its swarm
  // has no OnJoin and churn.* specs are rejected at --dry-run.
  add("node-aggregator", SwarmProtocol(MakeNodeAggregator,
                                       SpecValidator(ParseNodeAggregatorSpec)));
  custom("tag-tree", RunTagTree, SpecValidator(ParseTagTreeSpec));
  // Sweeps sketch parameters over synthetic multisets: no gossip topology,
  // so the spec's environment is never built (or validated).
  custom("fm-accuracy", RunFmAccuracy, SpecValidator(ParseFmAccuracySpec),
         /*uses_environment=*/false);
  custom("extreme-recovery", RunExtremeRecovery,
         SpecValidator(ParseExtremeRecoverySpec));
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
