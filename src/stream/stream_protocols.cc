// Stream sketch protocols: count-min and count-sketch frequency estimation
// as gossip swarms (stream/stream_swarm.h) over the keyed stream workloads
// (workload.* keys; sim/workload.h).
//
// Spec surface:
//   protocol.epsilon / protocol.delta   accuracy target; the width is the
//                                       smallest power of two meeting it
//   protocol.width / protocol.depth     explicit shape overrides
//   workload.kind = zipf | uniform      key-draw distribution (required)
//   workload.keys / workload.batch      key-space size, arrivals per host
//                                       per round
//   workload.skew                       Zipf exponent (zipf only)
//   workload.rounds                     arrival rounds; -1 = every round
//   seeds.workload_stream               workload RNG stream (term-sum
//                                       grammar, default 3)
//
// Heavy-hitter records (finish hook): hh_precision(k) / hh_recall(k)
// against the tie-inclusive true heavy-hitter set, hh_weighted_err(k) over
// the true top-k, hh_frontier (whole-stream relative L1 error — the
// y axis of the sketch-bytes-vs-error frontier), and sketch_bytes (the
// x axis). All are averaged over hosts; rankings break ties by key id so
// the records are deterministic.

#include "stream/stream_protocols.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/status.h"
#include "scenario/config.h"
#include "scenario/spec.h"
#include "scenario/swarm_handle.h"
#include "sim/workload.h"
#include "stream/freq_sketch.h"
#include "stream/stream_swarm.h"

namespace dynagg {
namespace scenario {
namespace {

using stream::SketchKind;
using stream::StreamSketchSwarm;
using stream::StreamSwarmParams;

/// The sketch hash geometry derives from DeriveSeed(trial_seed, 7): fixed
/// (not a seeds.* knob) so every host of a trial agrees on it, distinct
/// from the gossip (1), failure (2) and workload (3) streams.
constexpr uint64_t kSketchHashStream = 7;

/// Hard cap on counters per sketch: depth * width. A runaway epsilon
/// (protocol.epsilon = 1e-6) would otherwise allocate gigabytes per host.
constexpr int64_t kMaxSketchCells = int64_t{1} << 22;

struct StreamWorkloadParams {
  KeyStreamKind kind = KeyStreamKind::kZipf;
  uint64_t keys = 1000000;
  int batch = 16;
  double skew = 1.0;
  int rounds = -1;  // arrival rounds; -1 = every round
};

Result<StreamWorkloadParams> ParseStreamWorkloadSpec(const ScenarioSpec& spec) {
  if (!spec.HasParam("workload.kind")) {
    return Status::InvalidArgument(
        "protocol '" + spec.protocol +
        "' consumes a keyed stream workload but the spec declares none: add "
        "workload.kind = zipf (skewed heavy-hitter traffic) or "
        "workload.kind = uniform (see `dynagg_run --list` for the workload "
        "catalog)");
  }
  ParamReader r(spec, "workload.");
  StreamWorkloadParams out;
  DYNAGG_ASSIGN_OR_RETURN(const std::string kind,
                          r.String("workload.kind", "zipf"));
  if (kind == "zipf") {
    out.kind = KeyStreamKind::kZipf;
  } else if (kind == "uniform") {
    out.kind = KeyStreamKind::kUniform;
  } else {
    return Status::InvalidArgument(
        "workload.kind must be zipf or uniform, got '" + kind + "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(
      out.keys, r.Int<uint64_t>("workload.keys", 1000000, 1, kInt64Max));
  // Arrivals per host per round.
  DYNAGG_ASSIGN_OR_RETURN(out.batch,
                          r.Int<int>("workload.batch", 16, 1, 1000000));
  // The Zipf exponent.
  DYNAGG_ASSIGN_OR_RETURN(out.skew,
                          r.Double("workload.skew", 1.0, Open(0.0), 16.0));
  // Arrival rounds, then gossip-only; -1 = arrivals every round.
  DYNAGG_ASSIGN_OR_RETURN(out.rounds,
                          r.Int<int>("workload.rounds", -1, 1, kIntMax));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if (out.kind == KeyStreamKind::kUniform &&
      spec.HasParam("workload.skew")) {
    return Status::InvalidArgument(
        "workload.skew only applies to workload.kind = zipf");
  }
  return out;
}

/// One heavy-hitter metric selector, e.g. hh_precision(16).
struct HhSelector {
  std::string name;  // hh_precision | hh_recall | hh_weighted_err
  int k = 0;
};

Result<std::vector<HhSelector>> ParseHhSelectors(const ScenarioSpec& spec) {
  std::vector<HhSelector> out;
  for (const MetricSpec& m : spec.metrics) {
    if (m.name != "hh_precision" && m.name != "hh_recall" &&
        m.name != "hh_weighted_err") {
      continue;
    }
    const Result<int64_t> k = ParseInt64(m.arg);
    if (!k.ok() || *k < 1 || *k > 1000000 ||
        m.arg != std::to_string(*k)) {
      return Status::InvalidArgument(
          m.ToString() + ": the argument must be a plain top-k size in "
          "[1, 1000000], e.g. " + m.name + "(16)");
    }
    out.push_back({m.name, static_cast<int>(*k)});
  }
  return out;
}

/// The hh_* records average over every host id, so they only score the
/// population when no host ever dies or is unborn.
Status CheckStaticMembership(const ScenarioSpec& spec) {
  std::string key;
  for (const auto& [name, value] : spec.params) {
    if (name.rfind("churn.", 0) == 0) {
      key = name;
      break;
    }
  }
  DYNAGG_ASSIGN_OR_RETURN(const std::string failure,
                          spec.ParamString("failure.kind", "none"));
  if (failure != "none") key = "failure.kind = " + failure;
  if (key.empty()) return Status::OK();
  return Status::InvalidArgument(
      "hh_precision / hh_recall / hh_weighted_err / hh_frontier average "
      "over every host id, dead and unborn hosts included, so they cannot "
      "be combined with membership changes (" + key +
      "); drop the churn.* / failure.* keys or record rms instead");
}

struct FreqSketchSpecParams {
  int depth = 0;
  int width = 0;
  StreamWorkloadParams workload;
};

Result<FreqSketchSpecParams> ParseFreqSketchSpec(const ScenarioSpec& spec,
                                                 SketchKind kind) {
  ParamReader r(spec, "protocol.");
  // Additive error as a fraction of the stream mass.
  DYNAGG_ASSIGN_OR_RETURN(
      const double epsilon,
      r.Double("protocol.epsilon", 0.05, Open(0.0), 0.5));
  // Per-key failure probability.
  DYNAGG_ASSIGN_OR_RETURN(
      const double delta,
      r.Double("protocol.delta", 0.05, Open(0.0), Open(1.0)));
  // Explicit shape overrides; 0 derives from epsilon / delta.
  DYNAGG_ASSIGN_OR_RETURN(const int width,
                          r.Int<int>("protocol.width", 0, 2, 1 << 20));
  DYNAGG_ASSIGN_OR_RETURN(const int depth,
                          r.Int<int>("protocol.depth", 0, 1, 64));
  DYNAGG_RETURN_IF_ERROR(r.Finish());
  if ((width & (width - 1)) != 0) {
    return Status::InvalidArgument(
        "protocol.width must be a power of two (or 0 to derive it from "
        "protocol.epsilon)");
  }
  // The width epsilon derives: the power of two at least e / epsilon
  // (count-min) or e / epsilon^2 (count-sketch), within the explicit cap.
  const double derived = kind == SketchKind::kCountMin
                             ? std::exp(1.0) / epsilon
                             : std::exp(1.0) / (epsilon * epsilon);
  if (width == 0 && derived > (1 << 20)) {
    return Status::InvalidArgument(
        "protocol.epsilon derives a width above 2^20; raise it or set "
        "protocol.width");
  }
  FreqSketchSpecParams out;
  out.width = width != 0 ? width
              : kind == SketchKind::kCountMin
                  ? stream::CountMinWidthForEpsilon(epsilon)
                  : stream::CountSketchWidthForEpsilon(epsilon);
  out.depth = depth != 0 ? depth : stream::DepthForDelta(delta);
  if (static_cast<int64_t>(out.depth) * out.width > kMaxSketchCells) {
    return Status::InvalidArgument(
        "sketch shape " + std::to_string(out.depth) + " x " +
        std::to_string(out.width) + " exceeds " +
        std::to_string(kMaxSketchCells) +
        " counters per host; raise protocol.epsilon / protocol.delta or "
        "set protocol.width / protocol.depth explicitly");
  }
  DYNAGG_ASSIGN_OR_RETURN(out.workload, ParseStreamWorkloadSpec(spec));
  DYNAGG_ASSIGN_OR_RETURN(const std::vector<HhSelector> selectors,
                          ParseHhSelectors(spec));
  if (!selectors.empty() || MetricRequested(spec, "hh_frontier")) {
    DYNAGG_RETURN_IF_ERROR(CheckStaticMembership(spec));
  }
  return out;
}

// ------------------------------------------------- heavy-hitter records ---

/// Emits the requested hh_* / sketch_bytes / hh_frontier scalars from the
/// swarm's final state against the workload generator's exact counts.
Status FinishHeavyHitters(const StreamSketchSwarm& swarm,
                          const TrialContext& ctx, Recorder& rec) {
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(const std::vector<HhSelector> selectors,
                          ParseHhSelectors(spec));
  if (MetricRequested(spec, "sketch_bytes")) {
    rec.AddScalar("sketch_bytes", static_cast<double>(swarm.sketch_bytes()));
  }
  const bool want_frontier = MetricRequested(spec, "hh_frontier");
  if (selectors.empty() && !want_frontier) return Status::OK();

  // Exact counts, sorted by (count desc, key asc) for a deterministic
  // ranking. truth[j] is the j-th true heavy hitter.
  std::vector<std::pair<uint64_t, double>> truth(swarm.TruthCounts().begin(),
                                                 swarm.TruthCounts().end());
  if (truth.empty()) {
    return Status::InvalidArgument(
        "hh_* metrics need a non-empty stream (workload.batch and "
        "workload.rounds produced no arrivals)");
  }
  std::sort(truth.begin(), truth.end(),
            [](const std::pair<uint64_t, double>& a,
               const std::pair<uint64_t, double>& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  const int m = static_cast<int>(truth.size());
  const double total = swarm.TruthTotal();

  // Precompute every truth key's slots (and signs) once; the per-host pass
  // below is then pure array reads.
  const stream::SketchHash& hash = swarm.hash();
  const int depth = hash.depth();
  std::vector<size_t> slots(static_cast<size_t>(m) * depth);
  std::vector<double> signs;
  const bool count_min = swarm.kind() == SketchKind::kCountMin;
  if (!count_min) signs.resize(static_cast<size_t>(m) * depth);
  for (int j = 0; j < m; ++j) {
    for (int r = 0; r < depth; ++r) {
      slots[static_cast<size_t>(j) * depth + r] = hash.Slot(r, truth[j].first);
      if (!count_min) {
        signs[static_cast<size_t>(j) * depth + r] =
            hash.Sign(r, truth[j].first);
      }
    }
  }

  // Precision and recall read only the estimated top-k, so each host ranks
  // just the largest k any of them asks for (weighted error reads none).
  int ranked = 0;
  for (const HhSelector& sel : selectors) {
    if (sel.name != "hh_weighted_err") {
      ranked = std::max(ranked, std::min(sel.k, m));
    }
  }

  const int n = swarm.size();
  std::vector<double> est(m);
  std::vector<int> order(m);
  std::vector<double> sum(selectors.size(), 0.0);
  double frontier_sum = 0.0;
  std::vector<double> row(swarm.stride());
  const double* const host = row.data();
  for (HostId id = 0; id < n; ++id) {
    swarm.ReadHost(id, row);
    const double weight = host[hash.cells()];
    const double scale =
        weight > 0.0 ? static_cast<double>(n) / weight : 0.0;
    for (int j = 0; j < m; ++j) {
      const size_t base = static_cast<size_t>(j) * depth;
      double raw;
      if (count_min) {
        raw = host[slots[base]];
        for (int r = 1; r < depth; ++r) {
          raw = std::min(raw, host[slots[base + r]]);
        }
      } else {
        double rows[64];
        for (int r = 0; r < depth; ++r) {
          rows[r] = signs[base + r] * host[slots[base + r]];
        }
        raw = stream::MedianOfRows(rows, depth);
      }
      est[j] = scale * raw;
    }
    if (want_frontier) {
      double err = 0.0;
      for (int j = 0; j < m; ++j) err += std::abs(est[j] - truth[j].second);
      frontier_sum += err / total;
    }
    if (!selectors.empty()) {
      // (estimate desc, key asc) is a strict total order, so the ranked
      // prefix equals a full sort's for every k <= ranked.
      std::iota(order.begin(), order.end(), 0);
      std::partial_sort(order.begin(), order.begin() + ranked, order.end(),
                        [&](int a, int b) {
                          return est[a] != est[b]
                                     ? est[a] > est[b]
                                     : truth[a].first < truth[b].first;
                        });
      for (size_t s = 0; s < selectors.size(); ++s) {
        const int k = std::min(selectors[s].k, m);
        if (selectors[s].name == "hh_weighted_err") {
          double err = 0.0;
          double mass = 0.0;
          for (int j = 0; j < k; ++j) {
            err += std::abs(est[j] - truth[j].second);
            mass += truth[j].second;
          }
          sum[s] += err / mass;
          continue;
        }
        // Tie-inclusive true heavy-hitter set: every key at least as
        // frequent as the k-th (|T| >= k). Membership is j < t_size since
        // truth is sorted.
        const double kth = truth[k - 1].second;
        int t_size = k;
        while (t_size < m && truth[t_size].second >= kth) ++t_size;
        int inter = 0;
        for (int j = 0; j < k; ++j) {
          if (order[j] < t_size) ++inter;
        }
        sum[s] += selectors[s].name == "hh_precision"
                      ? static_cast<double>(inter) / k
                      : static_cast<double>(inter) / t_size;
      }
    }
  }
  // Emission order follows the spec's record list, so column order is
  // spec-declared like every other selector family.
  size_t next = 0;
  for (const MetricSpec& metric : spec.metrics) {
    if (metric.name == "hh_precision" || metric.name == "hh_recall" ||
        metric.name == "hh_weighted_err") {
      // ParseHhSelectors collected the hh_* metrics in this same order.
      rec.AddScalar(selectors[next].name + "_" +
                        std::to_string(selectors[next].k),
                    sum[next] / n);
      ++next;
    } else if (want_frontier && metric.name == "hh_frontier") {
      rec.AddScalar("hh_frontier", frontier_sum / n);
    }
  }
  return Status::OK();
}

// --------------------------------------------------------- swarm factory ---

Result<int> CheckedStreamHosts(const EnvHandle& env) {
  const int n = env.env->num_hosts();
  if (n <= 0) return Status::InvalidArgument("environment has no hosts");
  return n;
}

/// A stream sketch swarm measured against the global stream mass; the
/// heavy-hitter records read its final state.
struct StreamBox {
  StreamSketchSwarm swarm;
  double state_bytes;

  StreamBox(int n, const StreamSwarmParams& params, const KeyedStreamGen& gen)
      : swarm(n, params, gen),
        state_bytes(static_cast<double>(swarm.message_bytes())) {}

  double Estimate(HostId id) const { return swarm.Estimate(id); }
  double Truth(const Population&) const { return swarm.TruthTotal(); }
  double GossipBytes() const {
    return static_cast<double>(swarm.message_bytes());
  }
  Status Finish(const TrialContext& ctx, Recorder& rec) const {
    return FinishHeavyHitters(swarm, ctx, rec);
  }
};

template <SketchKind kKind>
BoxResult<StreamBox> MakeFreqSketch(const TrialContext& ctx, EnvHandle& env) {
  DYNAGG_ASSIGN_OR_RETURN(const FreqSketchSpecParams cfg,
                          ParseFreqSketchSpec(*ctx.spec, kKind));
  DYNAGG_ASSIGN_OR_RETURN(const int n, CheckedStreamHosts(env));
  const int64_t total_bytes = int64_t{2} * n *
                              (int64_t{cfg.depth} * cfg.width + 2) *
                              static_cast<int64_t>(sizeof(double));
  if (total_bytes > (int64_t{1} << 33)) {
    return Status::InvalidArgument(
        "stream swarm state would need " + std::to_string(total_bytes) +
        " bytes (hosts x sketch cells x 2 arrays); shrink the sketch or "
        "the population");
  }
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t workload_stream,
                          WorkloadStream(*ctx.spec, ctx, n));
  StreamSwarmParams params;
  params.kind = kKind;
  params.depth = cfg.depth;
  params.width = cfg.width;
  params.hash_seed = DeriveSeed(ctx.trial_seed, kSketchHashStream);
  params.batch = cfg.workload.batch;
  params.arrival_rounds = cfg.workload.rounds;
  const KeyedStreamGen gen(cfg.workload.kind, cfg.workload.keys,
                           cfg.workload.skew,
                           DeriveSeed(ctx.trial_seed, workload_stream));
  return std::make_shared<StreamBox>(n, params, gen);
}

template <SketchKind kKind>
ProtocolDef FreqSketchProtocol() {
  ProtocolDef def = SwarmProtocol(
      MakeFreqSketch<kKind>, [](const ScenarioSpec& spec) {
        return ParseFreqSketchSpec(spec, kKind).status();
      });
  def.consumes_workload = true;
  def.extra_metrics = {"hh_precision(*)", "hh_recall(*)",
                       "hh_weighted_err(*)", "sketch_bytes", "hh_frontier"};
  return def;
}

}  // namespace

namespace internal {

void RegisterStreamProtocols(Registry<ProtocolDef>& registry) {
  DYNAGG_CHECK(registry
                   .Register("count-min",
                             FreqSketchProtocol<SketchKind::kCountMin>())
                   .ok());
  DYNAGG_CHECK(registry
                   .Register("count-sketch-freq",
                             FreqSketchProtocol<SketchKind::kCountSketch>())
                   .ok());
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
