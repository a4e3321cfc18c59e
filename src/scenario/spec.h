// Declarative experiment specifications.
//
// A scenario file describes a whole experiment — protocol, environment,
// population, rounds, failure plan, seeds, sweeps, trials, output — in a
// simple key = value text format, replacing the hand-rolled main() of each
// bench harness. One file holds one or more experiments: keys before the
// first [section] are shared defaults; each [section] inherits them and
// overrides what it needs. Example:
//
//     # Compare two gossip modes on the same population.
//     name = my_experiment
//     hosts = 1000
//     rounds = 60
//     seed = 42
//     trials = 5
//     sweep = protocol.lambda: 0, 0.01, 0.1
//     sweep2 = rounds: 30, 60
//     record = rms, bandwidth, cdf(final_error)
//     aggregate = mean, stddev
//
//     [push]
//     protocol = push-sum-revert
//     protocol.mode = push
//
//     [pushpull]
//     protocol = push-sum-revert
//     protocol.mode = pushpull
//
// Top-level keys are strictly validated (a typo is an error); namespaced
// keys (protocol.*, env.*, failure.*, record.*, seeds.*, workload.*,
// net.*, churn.*) are collected into a parameter map and parsed once per
// consumer: each registry entry's parse function (scenario/protocols.cc,
// scenario/environments.cc, stream/stream_protocols.cc, the config parsers
// of scenario/config.h) reads every key it uses with a ParamReader, which
// states the key's default and range in the line that reads it and
// rejects any key under the parse's prefix that no read touched. The
// `record = ...` selectors and the record.* keys go through a RecordReader
// in the same way: the driver's and the protocol's record parses share one
// per sweep cell. Every typed read also marks its key in the thread's
// KeyReads, so a key no parse of a cell reads fails validation.

#ifndef DYNAGG_SCENARIO_SPEC_H_
#define DYNAGG_SCENARIO_SPEC_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace dynagg {
namespace scenario {

/// The int ceiling of a ranged integer read whose value is narrowed to int.
inline constexpr int64_t kIntMax = std::numeric_limits<int>::max();
/// The ceiling of a ranged integer read that admits any int64, such as a
/// seed-stream id.
inline constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
/// The ceiling of a ranged double read that admits any finite value.
inline constexpr double kFiniteMax = std::numeric_limits<double>::max();

/// One end of a declared numeric range: inclusive, or exclusive when made
/// with Open(). Implicit from double so closed bounds read as numbers:
/// ParamDouble(key, 0.05, Open(0.0), 0.5) is (0, 0.5].
struct Bound {
  constexpr Bound(double v, bool open = false)  // NOLINT(runtime/explicit)
      : value(v), open(open) {}
  double value;
  bool open;
};
constexpr Bound Open(double v) { return Bound(v, true); }

/// Strict numeric/boolean parsers ("12x" is an error, unlike std::stoll).
Result<int64_t> ParseInt64(std::string_view text);
Result<double> ParseDouble(std::string_view text);
Result<bool> ParseBool(std::string_view text);

/// Parses `text`, the value of `key`, as an integer in [lo, hi], checked
/// as int64 before any narrowing. A value equal to `def` passes too, so a
/// default outside the range is a sentinel that may also be written out
/// (churn.initial = -1 means every host). The error names the key, the
/// value and the range.
Result<int64_t> ParseIntIn(const std::string& key, std::string_view text,
                           int64_t def, int64_t lo, int64_t hi);

/// Checks that `seconds`, the value of time key `key`, becomes a tick of
/// the microsecond SimTime clock: a number, inside SimTime's range, and
/// not a positive value below 1 µs (which FromSeconds would turn into 0).
/// The diagnostic names the key.
Status CheckTickSeconds(const std::string& key, double seconds);

struct ScenarioSpec;

/// The keys the parses of one sweep cell read: while one is alive, every
/// typed ScenarioSpec read on its thread (so every ParamReader and seeds.*
/// resolver) marks its key in the innermost one; HasParam marks nothing.
class KeyReads {
 public:
  KeyReads();
  ~KeyReads();
  KeyReads(const KeyReads&) = delete;
  KeyReads& operator=(const KeyReads&) = delete;

  /// Marks `key` in the thread's innermost live KeyReads, if any.
  static void Mark(const std::string& key);
  bool Read(const std::string& key) const { return keys_.count(key) != 0; }

 private:
  std::set<std::string> keys_;
  KeyReads* outer_;
};

/// One entry of the `record =` metric list: a metric name plus an optional
/// parenthesised argument — `rms`, `bandwidth`, `cdf(final_error)`. Which
/// selectors exist is decided by the parses that read them through a
/// RecordReader; the spec layer only carries the grammar.
struct MetricSpec {
  std::string name;
  std::string arg;  // "" when no (...) argument was given

  /// "name" or "name(arg)" — the canonical selector spelling.
  std::string ToString() const {
    return arg.empty() ? name : name + "(" + arg + ")";
  }
  bool operator==(const MetricSpec& other) const {
    return name == other.name && arg == other.arg;
  }
};

/// One experiment: a protocol x environment x failure-plan configuration,
/// optionally swept over one parameter and replicated over trials.
struct ScenarioSpec {
  /// Experiment name; "<scenario name>/<section>" for sectioned files.
  std::string name = "scenario";
  /// Protocol registry key (see scenario/trial.h). Required.
  std::string protocol;
  /// Environment registry key.
  std::string environment = "uniform";
  /// Trial driver registry key: how simulated time advances. "rounds" is
  /// the paper's synchronous round loop; "trace" replays the environment's
  /// contact trace in a time loop of gossip ticks and sample instants;
  /// "async" ticks the same way with messages in flight between ticks.
  std::string driver = "rounds";
  /// Trace and async drivers: seconds of simulated time between gossip
  /// ticks (default 30, the paper's cadence). 0 = unset; setting it under
  /// the rounds driver is a validation error.
  double gossip_period = 0.0;
  /// Trace driver: seconds between metric samples (default 3600, the
  /// paper's hourly reporting). 0 = unset; same validation rule.
  double sample_period = 0.0;
  /// Worker threads for the round kernel's push-mode apply (push deposit
  /// loop or gather; see sim/round_kernel.h). Output is bit-identical
  /// at any value — this is purely a wall-clock knob for big single trials.
  /// Protocols that cannot use it reject values > 1.
  int intra_round_threads = 1;
  /// Population size. 0 means "derive from the environment" (allowed for
  /// environments with intrinsic size, e.g. spatial grids and traces).
  int hosts = 0;
  /// Gossip rounds per trial.
  int rounds = 200;
  /// Whether `rounds =` was written explicitly (the parser sets this).
  /// The trace driver ignores rounds — the trace horizon governs the
  /// length — so validation rejects an explicit value there instead of
  /// silently running a different length than declared.
  bool rounds_set = false;
  /// Independent repetitions. Trial 0 replays the base seed exactly (legacy
  /// bench parity); trial t > 0 uses a derived, decorrelated seed.
  int trials = 1;
  /// Base RNG seed for the whole experiment.
  uint64_t seed = 1;
  /// Swept parameter ("" = no sweep). May be "hosts", "rounds", or any
  /// namespaced key; one full run is executed per value in sweep_values.
  std::string sweep_key;
  std::vector<double> sweep_values;
  /// Optional second sweep axis (`sweep2 = key: v1, v2, ...`): the
  /// experiment runs the full cross product sweep x sweep2 x trials. Only
  /// valid together with `sweep`, and must name a different key.
  std::string sweep2_key;
  std::vector<double> sweep2_values;
  /// Metrics recorded in one pass per trial (`record = rms, bandwidth,
  /// cdf(final_error)`). A selector that neither the driver's nor the
  /// protocol's record parse reads is an error. Defaults to the paper's
  /// per-round RMS-deviation series.
  std::vector<MetricSpec> metrics = {{"rms", ""}};
  /// Cross-trial aggregation (`aggregate = mean, stddev`): when non-empty,
  /// the executor collapses the trial axis and reports, per metric column,
  /// one column per listed statistic (mean, stddev, min, max). Histogram
  /// records are pooled (bucket counts summed) instead. Requires
  /// trials >= 2 — a one-trial stddev would silently read 0.
  std::vector<std::string> aggregates;
  /// Telemetry mode: "" / "off" (default) collects nothing; "summary"
  /// accumulates per-trial phase timings and engine counters, reported as a
  /// per-sweep-point table; "profile" additionally keeps the raw span
  /// stream for the Chrome trace-event export (dynagg_run
  /// --telemetry-out). Telemetry is a pure side channel: the experiment's
  /// metric tables are byte-identical with it on or off.
  std::string telemetry;
  /// Output destination: "-" for stdout or a file path.
  std::string output = "-";
  /// Output format: "csv" or "jsonl".
  std::string format = "csv";
  /// Namespaced parameters (protocol.*, env.*, failure.*, record.*,
  /// seeds.*, workload.*, net.*, churn.*), read by their consumers' parses.
  std::map<std::string, std::string> params;

  bool HasParam(const std::string& key) const {
    return params.count(key) != 0;
  }
  /// Typed parameter accessors; the default is returned when the key is
  /// absent, a bad value is an InvalidArgument naming the key.
  Result<std::string> ParamString(const std::string& key,
                                  std::string def) const;
  Result<bool> ParamBool(const std::string& key, bool def) const;
  /// Ranged numeric reads with ParseIntIn's rules; an absent key reads as
  /// `def`. An int is narrowed to T after the int64 check, so [lo, hi] and
  /// `def` must fit T. A double is never NaN, and +-inf passes only where
  /// that bound is +-inf.
  template <typename T = int64_t>
  Result<T> ParamInt(const std::string& key, int64_t def, int64_t lo,
                     int64_t hi) const {
    KeyReads::Mark(key);
    const auto it = params.find(key);
    if (it == params.end()) return static_cast<T>(def);
    Result<int64_t> v = ParseIntIn(key, it->second, def, lo, hi);
    if (!v.ok()) return v.status();
    return static_cast<T>(*v);
  }
  Result<double> ParamDouble(const std::string& key, double def, Bound lo,
                             Bound hi) const;
  /// Unranged integer read, for tools outside the engine that re-read a
  /// key the engine's own parse has already range-checked.
  Result<int64_t> ParamInt(const std::string& key, int64_t def) const {
    return ParamInt(key, def, std::numeric_limits<int64_t>::min(), kInt64Max);
  }

  /// Rejects any parameter under `prefix` (e.g. "protocol.") whose suffix
  /// is not in `allowed`: a ParamReader's Finish, against the keys read.
  Status CheckParams(const std::string& prefix,
                     const std::vector<std::string>& allowed) const;
};

/// One parse's reader of the parameters under `prefix` ("protocol.",
/// "env.", ...). Each read states its key's default and range (see the
/// ScenarioSpec accessors) and records the key; Finish() then rejects every
/// key under the prefix that no read touched, so the allowlist is exactly
/// the set of keys the parse reads. Read conditional keys unconditionally
/// and check them after the read. Keys outside the prefix are read but not
/// recorded. A local object per parse: executor threads parse one shared
/// cell spec at the same time.
class ParamReader {
 public:
  ParamReader(const ScenarioSpec& spec, std::string prefix)
      : spec_(spec), prefix_(std::move(prefix)) {}

  Result<std::string> String(const std::string& key, std::string def);
  Result<bool> Bool(const std::string& key, bool def);
  template <typename T = int64_t>
  Result<T> Int(const std::string& key, int64_t def, int64_t lo, int64_t hi) {
    Note(key);
    return spec_.ParamInt<T>(key, def, lo, hi);
  }
  Result<double> Double(const std::string& key, double def, Bound lo,
                        Bound hi);

  /// CheckParams against the keys read: "unknown parameter '<key>'
  /// (allowed: <the keys read>)" for the first unread key under the
  /// prefix.
  Status Finish() const { return spec_.CheckParams(prefix_, read_); }
  /// The first key read under the prefix that the spec sets, "" if none.
  std::string FirstSet() const;

 private:
  void Note(const std::string& key);

  const ScenarioSpec& spec_;
  std::string prefix_;
  std::vector<std::string> read_;  // suffixes, in first-read order
};

/// One cell's reader of the `record = ...` selectors and the record.*
/// keys, a ParamReader over "record." that also reads selectors: the
/// parses that record something ask for their selectors (Want for exact
/// ones, Family for parametrized ones) and read their record.* keys with
/// their ranges; Finish() then rejects the first selector and the first
/// record.* key no read touched, so the selectors and keys read are the
/// allowlist. ValidateExperiment runs the driver's record parse and the
/// protocol's parse into one reader per cell and calls Finish(); a driver
/// or factory that re-parses at run time uses a local reader and skips it.
class RecordReader : public ParamReader {
 public:
  explicit RecordReader(const ScenarioSpec& spec)
      : ParamReader(spec, "record."), spec_(spec) {}

  /// Whether the spec lists exact selector `selector`, in its canonical
  /// spelling ("rms", "cdf(counter)").
  bool Want(const std::string& selector);
  /// The spec's selectors named `name`, whatever their argument
  /// (quantile(final_error, 0.5), rms_at(25)), in spec order.
  std::vector<MetricSpec> Family(const std::string& name);

  /// "protocol '<p>' under driver = <d> does not record metric '<m>'
  /// (allowed: <the selectors read>)" for the first unread selector, then
  /// ParamReader::Finish over the record.* keys.
  Status Finish() const;

 private:
  const ScenarioSpec& spec_;
  std::vector<std::string> selectors_;  // exact selectors, first-read order
  std::vector<std::string> families_;   // family names, first-read order
};

/// The trace and async drivers' gossip tick: gossip_period, or the
/// paper's 30 s when unset.
SimTime GossipPeriod(const ScenarioSpec& spec);

/// Validates a metric list (non-empty names, no duplicate selectors) and an
/// aggregate list (known statistics, no duplicates). Shared by the file
/// parser and the executor preflight so file-parsed and hand-built specs
/// agree on validity.
Status ValidateMetricList(const std::vector<MetricSpec>& metrics);
Status ValidateAggregateList(const std::vector<std::string>& aggregates);

/// Parses a scenario file into one spec per [section] (or a single spec for
/// a sectionless file). `default_name` seeds ScenarioSpec::name when the
/// file sets none (callers pass the file stem). Errors carry line numbers.
/// Cross-field rules (sweep2 axis sanity, aggregate/trials interplay) are
/// enforced by the executor's ValidateExperiment preflight, not here.
Result<std::vector<ScenarioSpec>> ParseScenarioFile(
    std::string_view text, const std::string& default_name = "scenario");

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_SPEC_H_
