// Parallel trial executor.
//
// An experiment expands into independent units — one per (sweep value,
// sweep2 value, trial) triple — that are sharded across std::thread
// workers. Every unit derives all of its randomness from
// TrialSeed(spec.seed, trial), so the assembled tables are a pure function
// of the spec: running with 1 worker or N workers produces byte-identical
// output (executor_test asserts this).
//
// Each unit emits a typed RecordBatch (scenario/trial.h); the executor
// merges the batches deterministically, in sweep-major unit order, into one
// table per record group:
//   - a summary table (scalars + bandwidth), one row per unit;
//   - one series table (all series share an x axis), one row per x;
//   - one table per histogram record, one row per bucket.
// With `aggregate = ...` the trial axis is collapsed instead: scalar,
// bandwidth and series columns become one column per requested statistic,
// and histogram bucket counts are pooled before the CDF is computed.

#ifndef DYNAGG_SCENARIO_EXECUTOR_H_
#define DYNAGG_SCENARIO_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/telemetry.h"
#include "scenario/result.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {

/// Validation without executing a trial: registry lookups (protocol,
/// environment, driver) and the experiment-level checks (rounds/trials
/// bounds, metric/aggregate grammar, sweep axis sanity, telemetry mode,
/// keys the protocol or driver never reads), then every per-spec check on
/// each cell of the sweep grid, on the exact spec and sweep context its
/// units run: protocol and environment knobs, churn, driver compatibility
/// and the driver's spec-only checks, and the seeds.* stream expressions.
/// This is the whole preflight of RunExperiment, so every cell is
/// validated before any unit runs, and the backing of
/// `dynagg_run --dry-run`.
Status ValidateExperiment(const ScenarioSpec& spec);

/// Execution knobs beyond the spec itself.
struct RunOptions {
  /// Worker threads for the unit shard loop (clamped to [1, num units]).
  int threads = 1;
  /// Telemetry override: "" defers to spec.telemetry; "off" / "summary" /
  /// "profile" force a mode (dynagg_run --telemetry). Collection also
  /// requires a non-null telemetry out-param on RunExperiment.
  std::string telemetry;
  /// Completion ticker: invoked after every finished unit, serialized
  /// under an executor-internal mutex, with (units done, total units).
  /// Backs dynagg_run --progress.
  std::function<void(int done, int total)> on_unit_done;
};

/// Telemetry collected by one RunExperiment call (modes summary/profile).
struct ExperimentTelemetry {
  std::string experiment;
  /// Per-sweep-point phase timings and counters: one "telemetry" table
  /// with one row per cell — mean per-trial phase milliseconds, summed
  /// engine counters, and the fraction of trial wall-clock covered by
  /// spans. A vector (of one) so it feeds RenderTables/WriteTables
  /// directly and stays empty until a run collects telemetry.
  std::vector<ResultTable> summary;
  /// Per-unit raw telemetry. Span events are populated in profile mode
  /// only; counters and accumulated timings are always present.
  std::vector<obs::TrialTelemetry> units;
};

/// Runs every (sweep value, sweep2 value, trial) unit of `spec` on up to
/// `threads` workers and assembles the result tables. Axis columns come
/// first in every table: the sweep column (named after the swept key's
/// last path segment), the sweep2 column, then a trial column when
/// trials > 1 and no aggregation collapses it. Unit order in the tables is
/// sweep-major, then sweep2, then trial, and thread-count independent.
Result<std::vector<ResultTable>> RunExperiment(const ScenarioSpec& spec,
                                               int threads = 1);

/// RunExperiment with execution options and telemetry collection. When the
/// effective telemetry mode (options override, else spec key) is summary
/// or profile and `telemetry` is non-null, per-trial spans/counters are
/// collected and assembled into `*telemetry`. The experiment's own result
/// tables are byte-identical whether telemetry is collected or not.
Result<std::vector<ResultTable>> RunExperiment(const ScenarioSpec& spec,
                                               const RunOptions& options,
                                               ExperimentTelemetry* telemetry);

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_EXECUTOR_H_
