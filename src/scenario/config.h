// Shared trial configuration: the spec-declared metric flags, record.*
// knobs, failure plans and RNG stream layout consumed by the trial drivers
// (scenario/drivers.cc) and by custom whole-trial protocols (tag-tree).
//
// The stream-resolution conventions deliberately reproduce the legacy
// bench binaries so a 1-trial scenario is numerically identical to the
// main() it replaced:
//   - gossip rounds: Rng(DeriveSeed(trial_seed, seeds.round_stream)),
//     where the symbolic value `hosts` resolves to the population size
//     (fig06's per-size decorrelation) and `sweep+N` resolves to
//     N + sweep_index (fig11's per-series streams);
//   - failure plan:  Rng(DeriveSeed(trial_seed, seeds.failure_stream)),
//     where churn plans default the stream to floor(death_prob * 1e5) —
//     the convention of ablation_tree_vs_gossip.

#ifndef DYNAGG_SCENARIO_CONFIG_H_
#define DYNAGG_SCENARIO_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "scenario/trial.h"
#include "sim/churn.h"
#include "sim/failure.h"

namespace dynagg {
namespace scenario {

/// Which of the rounds driver's metrics the spec requests.
struct MetricFlags {
  bool rms = false;
  bool tail_mean = false;
  bool convergence = false;
  bool bandwidth = false;
  bool final_error_cdf = false;
  /// `final_rms`: scalar, the (optionally relative) RMS deviation after the
  /// last round — the legacy benches' "floor" (series.back()).
  bool final_rms = false;
  /// `recovery_rounds(rms)`: scalar, FirstSustainedBelow over the rounds >=
  /// record.recovery_from window against a floor-derived threshold
  /// max(recovery_min, recovery_mult * floor + recovery_add), where floor is
  /// the window's last value. -1 = never re-entered the floor.
  bool recovery = false;
  /// `gossip_bytes`: scalar, the protocol's modelled per-host per-round
  /// gossip payload (SwarmHandle::gossip_bytes; the Invert-Average
  /// bandwidth-scaling argument). Protocols without a model reject it.
  bool gossip_bytes = false;
  /// The series-x position (round + 1) of every `rms_at(R)` selector, in
  /// spec order: scalar snapshots of the rms series.
  std::vector<double> rms_at;
  /// The absolute threshold of every `rounds_below(rms, T)` selector:
  /// scalar FirstSustainedBelow over the full per-round series.
  std::vector<double> rounds_below;
  /// The host of every `final_rel_error(H)` selector: scalar
  /// |estimate(H) - truth| / truth after the last round.
  std::vector<int> rel_error_hosts;
  /// The q of every `quantile(final_error, q)` selector, in spec order:
  /// quantiles of the per-host |estimate - truth| distribution after the
  /// last round, emitted as QuantileRecords.
  std::vector<double> final_error_quantiles;
  /// Any selector the swarm listed as extra (handled by its finish hook).
  bool extra = false;

  bool NeedsRoundEvaluation() const {
    return rms || tail_mean || convergence || final_rms || recovery ||
           !rms_at.empty() || !rounds_below.empty();
  }
  /// Early convergence stop is only sound when no other metric needs the
  /// remaining rounds.
  bool OnlyConvergence() const {
    return convergence && !rms && !tail_mean && !bandwidth &&
           !final_error_cdf && !final_rms && !recovery && !gossip_bytes &&
           rms_at.empty() && rounds_below.empty() &&
           rel_error_hosts.empty() && final_error_quantiles.empty() && !extra;
  }
};

/// Validates the spec's metric list against the rounds driver's catalog
/// plus the swarm's `extra` selectors and flags what is requested.
Result<MetricFlags> ClassifyDriverMetrics(const ScenarioSpec& spec,
                                          const std::vector<std::string>&
                                              extra);

/// The record.* knobs of the rounds driver's metrics.
struct RecordConfig {
  int from = 0;
  int every = 1;
  double threshold = 1.0;
  bool threshold_relative = false;
  double cdf_lo = 0.0;
  double cdf_hi = 0.0;
  int cdf_buckets = 20;
  /// record.relative: every rms evaluation (series, tail, final_rms,
  /// rms_at, rounds_below, recovery window) is divided by the current
  /// truth — the cutoff ablation's rms/truth convention.
  bool relative = false;
  /// recovery_rounds(rms) knobs: the window start round and the
  /// floor-derived threshold max(min, mult * floor + add).
  int recovery_from = 0;
  double recovery_mult = 2.0;
  double recovery_add = 0.0;
  double recovery_min = 0.0;
};

Result<RecordConfig> ParseRecordConfig(
    const ScenarioSpec& spec, const std::vector<std::string>& extra_keys);

/// Spec-only window checks for the rounds driver's metrics: every windowed
/// selector must leave at least one round inside its window, and the cdf
/// histogram must be well-formed. --dry-run applies them to every cell of
/// the sweep grid (a rounds sweep can empty a window the base spec
/// satisfies).
Status CheckRecordWindows(const ScenarioSpec& spec, const MetricFlags& metrics,
                          const RecordConfig& cfg);

/// Whether some requested metric consumes round `round`'s RMS evaluation
/// (0-based, of `rounds`): the rms series window (record.from/every), the
/// rms_tail_mean window, the last round for final_rms, round R - 1 for
/// rms_at(R), the recovery window, and every round for rounds_to_converge,
/// rounds_below and record.relative (whose "truth is 0" check must fire on
/// the round it happens). The rounds driver skips truth and estimate on
/// every other round, so record.from/every also bound the evaluation cost.
bool RoundIsRead(const MetricFlags& metrics, const RecordConfig& cfg,
                 int rounds, int round);

/// The failure.* plan declaration.
struct FailureConfig {
  enum class Kind { kNone, kKillRandomFraction, kKillTopFraction, kChurn };
  Kind kind = Kind::kNone;
  int round = 0;          // kill_* trigger round
  double fraction = 0.5;  // kill_* fraction
  int start = 0;          // churn window
  int end = -1;           // churn window end; -1 = spec.rounds
  double death_prob = 0.0;
  double return_factor = 4.0;
  double return_prob = -1.0;  // -1 = death_prob * return_factor
  HostId pin_alive = kInvalidHost;
};

Result<FailureConfig> ParseFailureConfig(const ScenarioSpec& spec);

double ChurnReturnProb(const FailureConfig& cfg);

/// Resolves the failure RNG stream: explicit seeds.failure_stream wins;
/// churn plans default to floor(death_prob * 1e5) and everything else to
/// stream 2.
Result<uint64_t> FailureStream(const ScenarioSpec& spec,
                               const FailureConfig& cfg);

/// Resolves the gossip-round RNG stream: a '+'-separated sum of terms,
/// each an integer, `hosts` (the population size `n`), `sweep` / `sweep2`
/// (the sweep *index* — fig11's `sweep+10` per-series convention), or
/// `sweepval*M` / `sweep2val*M` (the truncated sweep *value* times an
/// integer scale — the ablation benches' DeriveSeed(seed, lambda * 1e4)
/// style conventions; `*M` may be omitted for scale 1).
Result<uint64_t> RoundStream(const ScenarioSpec& spec,
                             const TrialContext& ctx, int n);

/// Resolves the keyed-workload RNG stream (seeds.workload_stream), the
/// same term-sum grammar as seeds.round_stream; defaults to stream 3 so
/// workload draws never collide with the gossip (1) or failure (2)
/// streams.
Result<uint64_t> WorkloadStream(const ScenarioSpec& spec,
                                const TrialContext& ctx, int n);

/// Resolves the per-message network RNG stream (seeds.message_stream),
/// same grammar; defaults to stream 5 (after the epoch phase streams at
/// 4). The async driver's NetworkModel derives every per-message decision
/// from this root.
Result<uint64_t> MessageStream(const ScenarioSpec& spec,
                               const TrialContext& ctx, int n);

/// Rejects failure.kind = kill_top_fraction on protocols without per-host
/// scalar values (Capability::kValueBacked). BuildFailurePlan also runs it,
/// as the guard before it reads the built swarm's values.
Status CheckValueBacked(const FailureConfig& cfg, bool value_backed);

/// Rejects `record = bandwidth` on protocols that cannot meter their
/// traffic (Capability::kMetered): the rounds driver measures it through
/// the swarm's traffic meter.
Status CheckMetered(const ScenarioSpec& spec, bool metered);

/// Spec-only validation of a `driver = trace` experiment: protocol
/// capability, no rounds / failure.* / churn.* / record.* keys, the
/// seeds.* allowlist and the metric catalog (rms, avg_group_size); the
/// counterpart of ValidateAsyncSpec. Whether the environment provides a
/// trace is checked against its registry entry (dry run) and the built
/// environment (driver).
Status ValidateTraceSpec(const ScenarioSpec& spec, const ProtocolDef& def);

/// Builds the scripted plan. `values` backs kill_top_fraction and may be
/// null for protocols without per-host scalar values.
Result<FailurePlan> BuildFailurePlan(const FailureConfig& cfg, int n,
                                     int rounds,
                                     const std::vector<double>* values,
                                     Rng& fail_rng);

/// The churn.* plan declaration: two-sided membership dynamics (arrivals,
/// deaths, rebirths with ID reuse) on top of the fixed `hosts` universe.
/// Distinct from `failure.kind = churn`, whose revives silently preserve
/// host state: churn.* rebirths RESET the host through the swarm's
/// on_join hook.
struct ChurnConfig {
  bool enabled = false;      // any churn.* key present
  int initial = -1;          // hosts alive at round 0; -1 = spec.hosts
  double arrival_rate = 0;   // expected first-time arrivals per round
  double death_prob = 0;     // per-round death probability per alive host
  double rebirth_prob = 0;   // per-round rebirth probability per dead host
  int start = 0;             // churn window
  int end = -1;              // churn window end; -1 = spec.rounds
  int max_alive = -1;        // alive-count growth cap; -1 = spec.hosts
};

Result<ChurnConfig> ParseChurnConfig(const ScenarioSpec& spec);

/// Resolves the churn RNG stream (seeds.churn_stream), the same term-sum
/// grammar as seeds.round_stream; defaults to stream 6 so churn draws
/// never collide with the gossip (1), failure (2), workload (3), epoch
/// phase (4) or message (5) streams.
Result<uint64_t> ChurnStream(const ScenarioSpec& spec, const TrialContext& ctx,
                             int n);

/// Builds the precomputed churn schedule; `rounds` backs the default
/// window end. The range checks (initial/max_alive vs n) stay here:
/// ValidateChurnSpec runs them against each cell's hosts, but an
/// environment-derived size (hosts = 0) is known only once it is built.
Result<ChurnPlan> BuildChurnPlan(const ChurnConfig& cfg, int n, int rounds,
                                 Rng& churn_rng);

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_CONFIG_H_
