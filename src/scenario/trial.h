// Trial-level plumbing between the executor and the registered workloads.
//
// A *trial* is one independent end-to-end run of an experiment unit (one
// sweep/sweep2 cell, one repetition). Since Driver API v1 the trial splits
// into two pluggable halves looked up by name:
//   - a SwarmFactory (protocol registry) builds the protocol's swarm for
//     one trial and declares its estimate / truth / bandwidth hooks as a
//     type-erased SwarmHandle;
//   - a TrialDriver (driver registry, `driver = rounds | trace | async`
//     in the spec) owns how simulated time advances: the synchronous round
//     loop with failure plans and early-stop, a time loop over a contact
//     trace's gossip ticks and sample instants, or a time loop of gossip
//     ticks with messages in flight between them.
// The driver builds the environment through the environment registry,
// obtains the swarm from the factory, runs the time loop, and emits typed
// records — scalars, series, histograms/CDFs, bandwidth — through the
// Recorder in one pass. The executor (scenario/executor.h) then merges the
// per-trial record batches into output tables. Every source of randomness
// inside a trial is derived from ctx.trial_seed, which is what makes
// trials independent and the parallel executor deterministic.

#ifndef DYNAGG_SCENARIO_TRIAL_H_
#define DYNAGG_SCENARIO_TRIAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "env/contact_trace.h"
#include "env/environment.h"
#include "scenario/registry.h"
#include "scenario/spec.h"

namespace dynagg {

class TrafficMeter;  // sim/bandwidth.h

namespace net {
struct Message;  // net/message.h
}  // namespace net

namespace scenario {

/// An instantiated environment plus whatever backing storage it needs.
/// `trace` is declared before `env` so the environment is destroyed first.
struct EnvHandle {
  std::shared_ptr<const ContactTrace> trace;
  std::unique_ptr<Environment> env;
  /// When > 0, the round loop advances the environment to
  /// (round + 1) * advance_period before each round (trace playback).
  SimTime advance_period = 0;
};

/// Everything a runner needs to execute one trial. The spec already has the
/// sweep overrides applied (swept parameters read back their sweep values).
struct TrialContext {
  const ScenarioSpec* spec = nullptr;
  /// Index into spec->sweep_values, or -1 when the experiment has no sweep.
  int sweep_index = -1;
  double sweep_value = 0.0;
  /// Index into spec->sweep2_values, or -1 without a second axis.
  int sweep2_index = -1;
  double sweep2_value = 0.0;
  int trial = 0;
  /// Root seed of this trial; all in-trial streams derive from it.
  uint64_t trial_seed = 0;
};

// ------------------------------------------------------------- records ---
//
// One trial emits a batch of typed records. All trials of one experiment
// must emit structurally identical batches (same record names in the same
// order); the executor checks this and prepends the sweep/trial axis
// columns when assembling the output tables.

/// A single named value per trial (e.g. rms_tail_mean, rounds_to_converge).
/// Scalars aggregate across trials under `aggregate = ...`.
struct ScalarRecord {
  std::string name;
  double value = 0.0;
};

/// A per-trial series of (x, value) points (e.g. per-round RMS deviation).
/// Series sharing one x axis merge into one table, one value column each;
/// under aggregation, points are matched by x across trials.
///
/// An optional *group key* (`key_name` + `key`) lets one trial emit a
/// family of series under the same value column — one series per lambda,
/// panel, or group, the structure Fig 10/11-style figures plot. Keyed
/// series render as one table with a leading key column, rows grouped
/// key-major; under sweeps and aggregation groups are matched by key
/// across trials, so grouped tables assemble deterministically. All series
/// of one trial must agree on key_name ("" = unkeyed, the common case).
struct SeriesRecord {
  std::string x_name;    // x column, e.g. "round"
  std::string name;      // value column, e.g. "rms"
  std::string key_name;  // "" = unkeyed
  double key = 0.0;      // ignored when key_name is empty
  struct Point {
    double x = 0.0;
    double value = 0.0;
  };
  std::vector<Point> points;
};

/// A bucketed distribution, rendered as one row per bucket. `cumulative`
/// selects CDF output (running count / group total) over raw counts. An
/// optional key column groups several distributions into one record (Fig 6
/// keys its counter CDFs by bit index). Under aggregation, bucket counts
/// are pooled across trials (buckets must align).
struct HistogramRecord {
  std::string label;        // table label, e.g. "counter_cdf"
  std::string key_name;     // "" = no key column
  std::string bucket_name;  // bucket column, e.g. "counter_value"
  std::string value_name;   // value column, e.g. "cdf"
  bool cumulative = true;
  /// Key groups with a (pooled) total below this are dropped at assembly
  /// (fig06 skips counter levels that effectively never appear).
  int64_t min_key_total = 0;
  struct Bucket {
    double key = 0.0;    // ignored when key_name is empty
    double upper = 0.0;  // inclusive upper edge / bucket value
    int64_t count = 0;
  };
  std::vector<Bucket> buckets;
};

/// Measured over-the-air traffic of one trial, normalized per host per
/// executed round, plus the per-host state footprint. Expands to three
/// summary columns; aggregates across trials like scalars.
struct BandwidthRecord {
  double msgs_per_host_round = 0.0;
  double bytes_per_host_round = 0.0;
  double state_bytes = 0.0;
};

/// A per-trial quantile of a per-host sample distribution (the
/// `quantile(metric, q)` selector): the q-quantile of `name`'s samples,
/// computed by the runner over the hosts of one trial. Renders as the
/// summary column `<name>_p<100q>` (e.g. final_error_p99); under
/// `aggregate = ...` the per-trial quantile estimates aggregate across
/// trials like scalars.
struct QuantileRecord {
  std::string name;  // sampled metric, e.g. "final_error"
  double q = 0.5;    // quantile in [0, 1]
  double value = 0.0;
};

/// Everything one trial recorded.
struct RecordBatch {
  std::vector<ScalarRecord> scalars;
  std::vector<QuantileRecord> quantiles;
  std::vector<SeriesRecord> series;
  std::vector<HistogramRecord> histograms;
  bool has_bandwidth = false;
  BandwidthRecord bandwidth;
};

/// The handle through which a trial emits its records. Purely a collector:
/// which metrics to record is declared in the spec (`record = ...`) and
/// read by the driver's and the protocol's record parses (RecordReader in
/// scenario/spec.h), which reject the selectors no parse reads.
///
/// Pointer validity: MutableSeries / MutableHistogram return pointers into
/// the batch's growable storage — they are invalidated by the next
/// creation of a series resp. histogram (vector reallocation). Finish
/// populating one record before creating the next, or re-fetch the pointer
/// (both calls are find-or-create).
class Recorder {
 public:
  Recorder() = default;

  /// Emits a per-trial scalar. Names must be unique within a trial.
  void AddScalar(const std::string& name, double value);

  /// Emits the q-quantile of per-host metric `name` for this trial.
  /// (name, q) pairs must be unique within a trial; emission order fixes
  /// the summary column order.
  void AddQuantile(const std::string& name, double q, double value);

  /// Finds or creates series `name`. Declare a series before a loop that
  /// may record zero points (e.g. an empty record.from window): all trials
  /// must emit structurally identical batches, so a conditionally-created
  /// series would fail the executor's consistency check.
  SeriesRecord* MutableSeries(const std::string& x_name,
                              const std::string& name);

  /// Finds or creates the series for group `key` of column `name` (the
  /// per-group form: one series per lambda/panel). Key groups emit in
  /// first-creation order; all series of a trial must share one key_name.
  SeriesRecord* MutableKeyedSeries(const std::string& x_name,
                                   const std::string& name,
                                   const std::string& key_name, double key);

  /// Appends one point to series `name` (created on first use). All series
  /// of one trial must share the same x axis name.
  void AddSeriesPoint(const std::string& x_name, const std::string& name,
                      double x, double value);

  /// Appends one point to group `key` of series `name`.
  void AddKeyedSeriesPoint(const std::string& x_name, const std::string& name,
                           const std::string& key_name, double key, double x,
                           double value);

  /// Finds or creates histogram `label`; the metadata arguments are fixed
  /// at creation. Append buckets to the returned record in output order
  /// (key-major for keyed histograms). Key groups whose total count stays
  /// below `min_key_total` are dropped at assembly (after cross-trial
  /// pooling under aggregation), so sparse-group suppression cannot make
  /// the batch structure data-dependent.
  HistogramRecord* MutableHistogram(const std::string& label,
                                    const std::string& key_name,
                                    const std::string& bucket_name,
                                    const std::string& value_name,
                                    bool cumulative,
                                    int64_t min_key_total = 0);

  /// Sets the trial's bandwidth record (at most once).
  void SetBandwidth(double msgs_per_host_round, double bytes_per_host_round,
                    double state_bytes);

  const RecordBatch& batch() const { return batch_; }
  RecordBatch TakeBatch() { return std::move(batch_); }

 private:
  RecordBatch batch_;
};

/// Runs one whole trial to completion, emitting its records through `rec`.
/// Since Driver API v1 this is the escape hatch for protocols whose trial
/// structure fits no shared driver (tag-tree's tree-depth-sized epochs);
/// everything else registers a SwarmFactory and lets a driver own time.
using ProtocolRunner =
    std::function<Status(const TrialContext&, Recorder& rec)>;
/// Builds the environment for one trial.
using EnvironmentFactory =
    std::function<Result<EnvHandle>(const TrialContext&)>;

// ------------------------------------------------------- Driver API v1 ---

/// A swarm protocol's optional abilities, one per optional SwarmHandle
/// hook. Each is derived once from the swarm type (scenario/swarm_handle.h),
/// so the handle's hooks and the registered ProtocolDef::capabilities
/// cannot disagree.
enum class Capability : uint8_t {
  kTrace,        // group_truths: `driver = trace`
  kThreads,      // set_threads: `intra_round_threads > 1`
  kAsync,        // async_tick / async_deliver: `driver = async`
  kJoin,         // on_join: `churn.*` keys
  kGossipBytes,  // gossip_bytes >= 0: `record = gossip_bytes`
  kMetered,      // set_meter: `record = bandwidth` (rounds driver)
  kValueBacked,  // failure_values: `failure.kind = kill_top_fraction`
};

/// A set of Capability values.
class Capabilities {
 public:
  constexpr Capabilities& Add(Capability c) {
    bits_ |= Bit(c);
    return *this;
  }
  constexpr bool Has(Capability c) const { return (bits_ & Bit(c)) != 0; }

 private:
  static constexpr uint32_t Bit(Capability c) {
    return uint32_t{1} << static_cast<int>(c);
  }
  uint32_t bits_ = 0;
};

/// `caps` as a ", "-joined list of names in declaration order (trace,
/// threads, async, join, gossip_bytes, metered, value-backed), or "—" when
/// empty: `dynagg_run --list` and the docs' protocol catalog.
std::string DescribeCapabilities(Capabilities caps);

/// One trial's constructed protocol instance, type-erased: how the swarm
/// exchanges state each round plus the hooks a driver needs to measure it.
/// MakeSwarmHandle (scenario/swarm_handle.h) derives every hook from the
/// swarm type, bundles the swarm and its backing storage into `keepalive`
/// and captures raw pointers into it from the callbacks. Each optional
/// hook backs one Capability.
struct SwarmHandle {
  /// Executes one gossip round (required).
  std::function<void(const Environment&, const Population&, Rng&)> run_round;
  /// Per-host estimate of the aggregate (required).
  std::function<double(HostId)> estimate;
  /// Network-wide truth over the alive population (required; the rounds
  /// driver evaluates it, with `rms_deviation`, after every round some
  /// requested error metric reads — see RoundIsRead in scenario/config.h).
  std::function<double(const Population&)> truth;
  /// RMS deviation of every alive host's estimate from `truth`: the same
  /// value as RmsDeviationOverAlive(pop, truth, estimate), with the box's
  /// Estimate inlined into the id-order scan instead of one std::function
  /// call per host (required). The per-round records read it.
  std::function<double(const Population&, double truth)> rms_deviation;
  /// Per-group truth for group-relative (trace) error: given the current
  /// component labelling and per-group member counts, the truth of each
  /// group (index = group id). Null = no `driver = trace` support
  /// (Capability::kTrace).
  std::function<std::vector<double>(const std::vector<int>& labels,
                                    const std::vector<int>& sizes)>
      group_truths;
  /// Estimate in group-truth units. Null = use `estimate`; the counting
  /// sketches divide by their per-host multiplicity here so estimates are
  /// comparable to group sizes.
  std::function<double(HostId)> group_estimate;
  /// Per-host scalar values backing failure.kind = kill_top_fraction; null
  /// for protocols without per-host scalar inputs (Capability::kValueBacked).
  const std::vector<double>* failure_values = nullptr;
  /// Per-host state footprint reported by the bandwidth record.
  double state_bytes = 0.0;
  /// Modelled per-host per-round gossip payload in bytes (the analytic
  /// bandwidth model behind `record = gossip_bytes`, e.g. the
  /// Invert-Average attribute-scaling argument); < 0 = not modelled, and
  /// the drivers reject the selector (Capability::kGossipBytes).
  double gossip_bytes = -1.0;
  /// Attaches a traffic meter for the bandwidth metric; null = the
  /// protocol cannot measure traffic (Capability::kMetered).
  std::function<void(TrafficMeter*)> set_meter;
  /// Sets the round kernel's intra-round thread count (the
  /// top-level `intra_round_threads` key); null = the protocol has no
  /// data-parallel apply phase, and the drivers reject values > 1
  /// (Capability::kThreads).
  std::function<void(int)> set_threads;
  /// Initializes the state of host `id` when a churn plan activates it —
  /// first arrivals and rebirths with ID reuse both land here, and the
  /// reset must touch only the joining host's own slots (no RNG, no
  /// shared state) so existing hosts' streams and the byte-identity
  /// contract are untouched. Null = the protocol cannot admit hosts, and
  /// `--dry-run` rejects churn.* keys (Capability::kJoin).
  std::function<void(HostId)> on_join;
  /// Message-level gossip (`driver = async`): plans one gossip tick,
  /// appending the messages each alive initiator would send to `out`
  /// without delivering anything. The async driver runs them through the
  /// network model and calls `async_deliver` when (and if) each arrives.
  /// Null = the protocol cannot run message-level (Capability::kAsync).
  std::function<void(const Environment&, const Population&, Rng&,
                     std::vector<net::Message>*)>
      async_tick;
  /// Applies one delivered message to the receiver's state (required
  /// together with async_tick). Contract: a delivery reads and writes only
  /// the state of `m.dst`. The in-flight queue relies on it to deliver each
  /// drain host-major, in (dst, due, send order): deliveries to different
  /// hosts then commute and each host still sees its messages in (due,
  /// send order), so the output is bit-identical to a (due, send order)
  /// drain (tests/agg/async_delivery_order_test.cc).
  std::function<void(const net::Message&)> async_deliver;
  /// Over-the-air bytes of one async message (metered at send time, so
  /// dropped messages still count as sent bandwidth).
  double message_bytes = 0.0;
  /// Post-loop hook emitting the protocol's own metrics (rounds driver
  /// only; the selectors and record.* keys it handles are read by the
  /// protocol's parse, which `--dry-run` runs through ProtocolDef::validate).
  std::function<Status(const TrialContext&, Recorder&)> finish;
  /// Owns the swarm and whatever storage the callbacks point into.
  std::shared_ptr<void> keepalive;
};

/// Builds the swarm for one trial. The driver has already instantiated the
/// environment (sized populations, trace playback state).
using SwarmFactory =
    std::function<Result<SwarmHandle>(const TrialContext&, EnvHandle& env)>;

/// A registered protocol: either a SwarmFactory driven by any TrialDriver,
/// or (rarely) a custom whole-trial runner.
struct ProtocolDef {
  /// Null if and only if `run_custom` is set.
  SwarmFactory make_swarm;
  /// Whole-trial protocols that own their own time loop; executed by the
  /// rounds driver, rejected by the trace and async drivers.
  ProtocolRunner run_custom;
  /// What the built swarm can do beyond the rounds driver's basics, derived
  /// from the swarm type by the registration helper (SwarmProtocol in
  /// scenario/swarm_handle.h) from the same traits that set the handle's
  /// hooks. Static so `--dry-run` can reject capability mismatches without
  /// building swarms. Empty for custom runners.
  Capabilities capabilities;
  /// Whether the protocol instantiates the spec's environment. False only
  /// for whole-trial runners with no gossip topology (fm-accuracy), whose
  /// specs skip the environment's parse; their env.* keys are then read by
  /// nothing and fail validation.
  bool uses_environment = true;
  /// Spec-only validation: on the cell's context, the one parse the
  /// factory or runner also runs (protocol.* keys with their ranges, the
  /// workload.* and seeds.* streams it derives), so `--dry-run` rejects
  /// exactly what execution would. It reads the selectors and record.*
  /// keys its `finish` hook records (count-sketch-reset's cdf(counter), the
  /// stream sketches' hh_*) into `records`; the driver's validate decides
  /// whether those reads count.
  std::function<Status(const TrialContext&, RecordReader& records)> validate =
      [](const TrialContext&, RecordReader&) { return Status::OK(); };
};

/// Advances simulated time for one trial: builds the environment, obtains
/// the swarm from the protocol definition, runs the loop, and records the
/// spec's metrics. RunExperiment calls it only with a cell spec that
/// ValidateExperiment accepted, so a driver repeats no spec-only check.
using TrialDriver =
    std::function<Status(const TrialContext&, const ProtocolDef&, Recorder&)>;

struct EnvironmentDef;

/// A registered trial driver (`driver = ...` in the spec).
struct DriverDef {
  TrialDriver run;
  /// Spec-only validation of one sweep cell: on the cell's context,
  /// exactly the parses `run` runs (the record parse into `records`, the
  /// plan, network and seeds.* parses, and the protocol's validate, into
  /// `records` only if `run` runs the finish hook) plus the capability and
  /// environment checks. `env_hosts` is the size the environment's parse
  /// reports (spec.hosts when only building it tells). A key no parse of
  /// the cell reads fails CheckKeysRead (scenario/config.h) after it.
  std::function<Status(const TrialContext&, const ProtocolDef&,
                       const EnvironmentDef&, int env_hosts,
                       RecordReader& records)>
      validate;
};

/// A registered environment.
struct EnvironmentDef {
  EnvironmentFactory make;
  /// Whether EnvHandle::trace is populated (required by `driver = trace`).
  bool provides_trace = false;
  /// Spec-only parse of the environment's env.* keys (ranges, the keys
  /// read are the allowlist, hosts/degree consistency), returning the
  /// number of hosts it will build — 0 when only building it tells (a
  /// trace file's device count). It wraps the same parse `make` consumes,
  /// so `--dry-run` rejects exactly the env mismatches execution would.
  std::function<Result<int>(const ScenarioSpec&)> validate;
};

/// Global registries, with the builtin catalog (push-sum, push-sum-revert,
/// epoch-push-sum, full-transfer, extremes, count-sketch,
/// count-sketch-reset, node-aggregator, tag-tree / uniform, spatial,
/// random-graph, haggle / rounds, trace) plus the stream sketch family
/// (count-min, count-sketch-freq; src/stream/) registered on first use.
Registry<ProtocolDef>& ProtocolRegistry();
Registry<EnvironmentDef>& EnvironmentRegistry();
Registry<DriverDef>& DriverRegistry();

/// One row of the record-type catalog (`dynagg_run --list`).
struct RecordTypeInfo {
  const char* name;
  const char* summary;
};

/// The Recorder's typed record families with one-line summaries — the
/// shapes a `record = ...` selector can produce.
const std::vector<RecordTypeInfo>& RecordTypeCatalog();

/// Per-trial root seed: trial 0 replays the experiment's base seed exactly
/// (so a 1-trial scenario is bit-identical to the legacy bench binary it
/// replaces); later trials get decorrelated derived streams.
inline uint64_t TrialSeed(uint64_t base_seed, int trial) {
  return trial == 0
             ? base_seed
             : DeriveSeed(base_seed, 0x74726961ull /* "tria" */ + trial);
}

/// Instantiates ctx.spec's environment via the registry (the entry's
/// parse reads its env.* keys; a built size that differs from a nonzero
/// spec.hosts is an error).
Result<EnvHandle> MakeEnvironment(const TrialContext& ctx);

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_TRIAL_H_
