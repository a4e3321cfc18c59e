#include "scenario/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/async_driver.h"
#include "scenario/config.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {

namespace {

/// Applies one sweep override for `key` to `out`. Doubles are stored with
/// %.17g so the runner parses back the exact swept value.
Status ApplySweepKey(const std::string& key, double value, ScenarioSpec* out) {
  if (key == "hosts" || key == "rounds" || key == "intra_round_threads") {
    // Range-check the double before the cast: a value past int's range
    // would otherwise wrap (hosts 4294967328 would run 32 hosts).
    if (!(value >= 1.0 && value <= std::numeric_limits<int>::max()) ||
        value != std::floor(value)) {
      return Status::InvalidArgument(
          "sweep over " + key +
          " requires integer values in [1, 2147483647]");
    }
    const int v = static_cast<int>(value);
    if (key == "hosts") out->hosts = v;
    if (key == "rounds") out->rounds = v;
    if (key == "intra_round_threads") out->intra_round_threads = v;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out->params[key] = buf;
  }
  return Status::OK();
}

/// Column header for a sweep: the last path segment of the swept key
/// ("protocol.lambda" -> "lambda"), matching the legacy bench tables.
std::string SweepColumnName(const std::string& sweep_key) {
  const size_t dot = sweep_key.rfind('.');
  return dot == std::string::npos ? sweep_key : sweep_key.substr(dot + 1);
}

/// How units map onto the (sweep, sweep2, trial) axes and which axis
/// columns the assembled tables carry.
struct AxisLayout {
  bool has_sweep = false;
  bool has_sweep2 = false;
  bool has_trial = false;  // trial column present (trials > 1, no aggregate)
  int num_sweep = 1;
  int num_sweep2 = 1;
  int trials = 1;

  explicit AxisLayout(const ScenarioSpec& spec)
      : has_sweep(!spec.sweep_key.empty()),
        has_sweep2(!spec.sweep2_key.empty()),
        has_trial(spec.trials > 1 && spec.aggregates.empty()),
        num_sweep(has_sweep ? static_cast<int>(spec.sweep_values.size()) : 1),
        num_sweep2(has_sweep2 ? static_cast<int>(spec.sweep2_values.size())
                              : 1),
        trials(spec.trials) {}

  int num_units() const { return num_sweep * num_sweep2 * trials; }
  int num_cells() const { return num_sweep * num_sweep2; }
  int cell(int unit) const { return unit / trials; }
  int sweep_index(int cell_index) const { return cell_index / num_sweep2; }
  int sweep2_index(int cell_index) const { return cell_index % num_sweep2; }
  int trial(int unit) const { return unit % trials; }

  std::vector<std::string> ColumnNames(const ScenarioSpec& spec) const {
    std::vector<std::string> columns;
    if (has_sweep) columns.push_back(SweepColumnName(spec.sweep_key));
    if (has_sweep2) {
      std::string name = SweepColumnName(spec.sweep2_key);
      // "protocol.lambda" vs "env.lambda" would collide; disambiguate.
      if (has_sweep && name == columns.back()) name += "2";
      columns.push_back(name);
    }
    if (has_trial) columns.push_back("trial");
    return columns;
  }

  /// Axis values of `unit` (cell axes only when `with_trial` is false).
  std::vector<double> Values(const ScenarioSpec& spec, int unit,
                             bool with_trial) const {
    std::vector<double> values;
    if (has_sweep) {
      values.push_back(spec.sweep_values[sweep_index(cell(unit))]);
    }
    if (has_sweep2) {
      values.push_back(spec.sweep2_values[sweep2_index(cell(unit))]);
    }
    if (has_trial && with_trial) {
      values.push_back(static_cast<double>(trial(unit)));
    }
    return values;
  }
};

/// Builds the spec that cell `cell` of the sweep grid runs, the base spec
/// with the cell's sweep and sweep2 values applied, and sets the cell's
/// axis fields of `ctx` (the trial fields are the caller's).
/// ValidateExperiment checks exactly this spec, and every unit of the cell
/// runs it.
Result<ScenarioSpec> BuildCell(const ScenarioSpec& spec,
                               const AxisLayout& axes, int cell,
                               TrialContext* ctx) {
  ScenarioSpec out = spec;
  if (axes.has_sweep) {
    ctx->sweep_index = axes.sweep_index(cell);
    ctx->sweep_value = spec.sweep_values[ctx->sweep_index];
    DYNAGG_RETURN_IF_ERROR(
        ApplySweepKey(spec.sweep_key, ctx->sweep_value, &out));
  }
  if (axes.has_sweep2) {
    ctx->sweep2_index = axes.sweep2_index(cell);
    ctx->sweep2_value = spec.sweep2_values[ctx->sweep2_index];
    DYNAGG_RETURN_IF_ERROR(
        ApplySweepKey(spec.sweep2_key, ctx->sweep2_value, &out));
  }
  return out;
}

std::string UnitError(const ScenarioSpec& spec, int unit,
                      const std::string& what) {
  return "experiment '" + spec.name + "' unit " + std::to_string(unit) +
         ": " + what;
}

/// Verifies that `batch` has the same record structure as `proto` (same
/// names, same order, same metadata) — the record-level analogue of the old
/// "trials reported inconsistent column sets" check.
Status CheckSameStructure(const ScenarioSpec& spec, const RecordBatch& proto,
                          const RecordBatch& batch, int unit) {
  const auto mismatch = [&](const std::string& what) {
    return Status::InvalidArgument(
        UnitError(spec, unit, "inconsistent record structure (" + what +
                                  ") across trials"));
  };
  if (batch.scalars.size() != proto.scalars.size()) {
    return mismatch("scalar count");
  }
  for (size_t i = 0; i < proto.scalars.size(); ++i) {
    if (batch.scalars[i].name != proto.scalars[i].name) {
      return mismatch("scalar '" + batch.scalars[i].name + "'");
    }
  }
  if (batch.quantiles.size() != proto.quantiles.size()) {
    return mismatch("quantile count");
  }
  for (size_t i = 0; i < proto.quantiles.size(); ++i) {
    if (batch.quantiles[i].name != proto.quantiles[i].name ||
        batch.quantiles[i].q != proto.quantiles[i].q) {
      return mismatch("quantile '" + batch.quantiles[i].name + "'");
    }
  }
  if (batch.series.size() != proto.series.size()) {
    return mismatch("series count");
  }
  for (size_t i = 0; i < proto.series.size(); ++i) {
    if (batch.series[i].name != proto.series[i].name ||
        batch.series[i].x_name != proto.series[i].x_name ||
        batch.series[i].key_name != proto.series[i].key_name ||
        batch.series[i].key != proto.series[i].key) {
      return mismatch("series '" + batch.series[i].name + "'");
    }
  }
  if (batch.histograms.size() != proto.histograms.size()) {
    return mismatch("histogram count");
  }
  for (size_t i = 0; i < proto.histograms.size(); ++i) {
    const HistogramRecord& a = proto.histograms[i];
    const HistogramRecord& b = batch.histograms[i];
    // min_key_total is deliberately NOT compared here: it may scale with a
    // swept parameter (fig06's n/100 + 1 under a hosts sweep) and only has
    // to agree across the trials of one cell (checked in
    // AssembleHistogram).
    if (a.label != b.label || a.key_name != b.key_name ||
        a.bucket_name != b.bucket_name || a.value_name != b.value_name ||
        a.cumulative != b.cumulative) {
      return mismatch("histogram '" + b.label + "'");
    }
  }
  if (batch.has_bandwidth != proto.has_bandwidth) {
    return mismatch("bandwidth record");
  }
  return Status::OK();
}

double StatValue(const RunningStat& stat, const std::string& aggregate) {
  if (aggregate == "mean") return stat.mean();
  // Sample stddev: the conventional trial-to-trial spread estimate.
  if (aggregate == "stddev") return std::sqrt(stat.sample_variance());
  if (aggregate == "min") return stat.min();
  return stat.max();
}

/// Column name of a quantile record: <metric>_p<100q> with %g formatting
/// (q = 0.5 -> final_error_p50, q = 0.999 -> final_error_p99.9).
std::string QuantileColumnName(const QuantileRecord& record) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", record.q * 100.0);
  return record.name + "_p" + buf;
}

/// Flattens a batch's summary values: scalars, then quantiles, then
/// bandwidth columns.
std::vector<double> SummaryValues(const RecordBatch& batch) {
  std::vector<double> values;
  values.reserve(batch.scalars.size() + batch.quantiles.size() +
                 (batch.has_bandwidth ? 3 : 0));
  for (const ScalarRecord& s : batch.scalars) values.push_back(s.value);
  for (const QuantileRecord& r : batch.quantiles) values.push_back(r.value);
  if (batch.has_bandwidth) {
    values.push_back(batch.bandwidth.msgs_per_host_round);
    values.push_back(batch.bandwidth.bytes_per_host_round);
    values.push_back(batch.bandwidth.state_bytes);
  }
  return values;
}

std::vector<std::string> SummaryColumns(const RecordBatch& batch) {
  std::vector<std::string> columns;
  for (const ScalarRecord& s : batch.scalars) columns.push_back(s.name);
  for (const QuantileRecord& r : batch.quantiles) {
    columns.push_back(QuantileColumnName(r));
  }
  if (batch.has_bandwidth) {
    columns.push_back("msgs_per_host_round");
    columns.push_back("bytes_per_host_round");
    columns.push_back("state_bytes");
  }
  return columns;
}

/// Assembles the summary table (scalars + bandwidth), one row per unit, or
/// one row per cell with aggregate columns.
Result<ResultTable> AssembleSummary(const ScenarioSpec& spec,
                                    const AxisLayout& axes,
                                    const std::vector<RecordBatch>& batches) {
  const std::vector<std::string> value_columns = SummaryColumns(batches[0]);
  std::vector<std::string> columns = axes.ColumnNames(spec);
  if (spec.aggregates.empty()) {
    columns.insert(columns.end(), value_columns.begin(), value_columns.end());
    CsvTable table(columns);
    for (int unit = 0; unit < axes.num_units(); ++unit) {
      std::vector<double> row = axes.Values(spec, unit, /*with_trial=*/true);
      const std::vector<double> values = SummaryValues(batches[unit]);
      row.insert(row.end(), values.begin(), values.end());
      table.AddRow(row);
    }
    return ResultTable{"summary", std::move(table)};
  }
  for (const std::string& col : value_columns) {
    for (const std::string& agg : spec.aggregates) {
      columns.push_back(col + "_" + agg);
    }
  }
  CsvTable table(columns);
  for (int cell = 0; cell < axes.num_cells(); ++cell) {
    const int base = cell * axes.trials;
    std::vector<RunningStat> stats(value_columns.size());
    for (int t = 0; t < axes.trials; ++t) {
      const std::vector<double> values = SummaryValues(batches[base + t]);
      for (size_t c = 0; c < values.size(); ++c) stats[c].Add(values[c]);
    }
    std::vector<double> row = axes.Values(spec, base, /*with_trial=*/false);
    for (const RunningStat& stat : stats) {
      for (const std::string& agg : spec.aggregates) {
        row.push_back(StatValue(stat, agg));
      }
    }
    table.AddRow(row);
  }
  return ResultTable{"summary", std::move(table)};
}

/// Assembles the series table: one row per (unit, x) — or per (cell, x)
/// with aggregation, matching points by x position across trials. Keyed
/// series (one series per lambda/panel group) add a leading key column and
/// one row block per key group, in first-creation order; group structure
/// was already checked identical across units, so keyed tables assemble
/// deterministically under sweeps and aggregation alike.
Result<ResultTable> AssembleSeries(const ScenarioSpec& spec,
                                   const AxisLayout& axes,
                                   const std::vector<RecordBatch>& batches) {
  const std::vector<SeriesRecord>& proto = batches[0].series;
  const std::string& x_name = proto[0].x_name;
  const std::string& key_name = proto[0].key_name;
  for (const SeriesRecord& s : proto) {
    if (s.x_name != x_name) {
      return Status::InvalidArgument(
          "experiment '" + spec.name + "': series '" + s.name +
          "' uses x axis '" + s.x_name + "' but '" + proto[0].name +
          "' uses '" + x_name + "' (one series table per experiment)");
    }
    if (s.key_name != key_name) {
      return Status::InvalidArgument(
          "experiment '" + spec.name + "': series '" + s.name +
          "' uses key column '" + s.key_name + "' but '" + proto[0].name +
          "' uses '" + key_name +
          "' (all series must share one key column)");
    }
  }

  // Key groups and value columns, both in first-appearance order. An
  // unkeyed batch is one group holding every series.
  std::vector<double> keys;
  std::vector<std::string> names;
  if (key_name.empty()) {
    keys.push_back(0.0);
  } else {
    for (const SeriesRecord& s : proto) {
      if (std::find(keys.begin(), keys.end(), s.key) == keys.end()) {
        keys.push_back(s.key);
      }
    }
  }
  for (const SeriesRecord& s : proto) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  // Index of (key group, value column) in the batch series list; -1 when
  // the grid is incomplete.
  const auto series_index = [&](double key, const std::string& name) -> int {
    for (size_t i = 0; i < proto.size(); ++i) {
      if ((key_name.empty() || proto[i].key == key) &&
          proto[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  std::vector<std::vector<int>> index(keys.size(),
                                      std::vector<int>(names.size(), -1));
  for (size_t k = 0; k < keys.size(); ++k) {
    for (size_t c = 0; c < names.size(); ++c) {
      index[k][c] = series_index(keys[k], names[c]);
      if (index[k][c] < 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", keys[k]);
        return Status::InvalidArgument(
            "experiment '" + spec.name + "': keyed series form an "
            "incomplete grid (no series '" + names[c] + "' for " +
            key_name + " = " + buf + ")");
      }
    }
  }

  // Within one unit, every series of a key group must sample the same x
  // values (they are emitted from the same loop).
  const auto check_unit_spine = [&](const RecordBatch& batch,
                                    int unit) -> Status {
    for (size_t k = 0; k < keys.size(); ++k) {
      const std::vector<SeriesRecord::Point>& spine =
          batch.series[index[k][0]].points;
      for (size_t c = 1; c < names.size(); ++c) {
        const SeriesRecord& s = batch.series[index[k][c]];
        if (s.points.size() != spine.size()) {
          return Status::InvalidArgument(UnitError(
              spec, unit, "series '" + s.name + "' has a different length"));
        }
        for (size_t p = 0; p < spine.size(); ++p) {
          if (s.points[p].x != spine[p].x) {
            return Status::InvalidArgument(
                UnitError(spec, unit, "series '" + s.name +
                                          "' has mismatched x values"));
          }
        }
      }
    }
    return Status::OK();
  };
  for (int unit = 0; unit < axes.num_units(); ++unit) {
    DYNAGG_RETURN_IF_ERROR(check_unit_spine(batches[unit], unit));
  }

  std::vector<std::string> columns = axes.ColumnNames(spec);
  if (!key_name.empty()) columns.push_back(key_name);
  columns.push_back(x_name);
  if (spec.aggregates.empty()) {
    columns.insert(columns.end(), names.begin(), names.end());
    CsvTable table(columns);
    for (int unit = 0; unit < axes.num_units(); ++unit) {
      const RecordBatch& batch = batches[unit];
      const std::vector<double> axis_values =
          axes.Values(spec, unit, /*with_trial=*/true);
      for (size_t k = 0; k < keys.size(); ++k) {
        const std::vector<SeriesRecord::Point>& spine =
            batch.series[index[k][0]].points;
        for (size_t p = 0; p < spine.size(); ++p) {
          std::vector<double> row = axis_values;
          if (!key_name.empty()) row.push_back(keys[k]);
          row.push_back(spine[p].x);
          for (size_t c = 0; c < names.size(); ++c) {
            row.push_back(batch.series[index[k][c]].points[p].value);
          }
          table.AddRow(row);
        }
      }
    }
    return ResultTable{"series", std::move(table)};
  }
  for (const std::string& name : names) {
    for (const std::string& agg : spec.aggregates) {
      columns.push_back(name + "_" + agg);
    }
  }
  CsvTable table(columns);
  for (int cell = 0; cell < axes.num_cells(); ++cell) {
    const int base = cell * axes.trials;
    const std::vector<double> axis_values =
        axes.Values(spec, base, /*with_trial=*/false);
    for (size_t k = 0; k < keys.size(); ++k) {
      // Aggregation matches points by x across a cell's trials, so every
      // trial must have recorded the identical x spine.
      const std::vector<SeriesRecord::Point>& spine =
          batches[base].series[index[k][0]].points;
      for (int t = 1; t < axes.trials; ++t) {
        const std::vector<SeriesRecord::Point>& other =
            batches[base + t].series[index[k][0]].points;
        if (other.size() != spine.size()) {
          return Status::InvalidArgument(UnitError(
              spec, base + t,
              "series length differs across trials; cannot aggregate"));
        }
        for (size_t p = 0; p < spine.size(); ++p) {
          if (other[p].x != spine[p].x) {
            return Status::InvalidArgument(UnitError(
                spec, base + t,
                "series x values differ across trials; cannot aggregate"));
          }
        }
      }
      for (size_t p = 0; p < spine.size(); ++p) {
        std::vector<double> row = axis_values;
        if (!key_name.empty()) row.push_back(keys[k]);
        row.push_back(spine[p].x);
        for (size_t c = 0; c < names.size(); ++c) {
          RunningStat stat;
          for (int t = 0; t < axes.trials; ++t) {
            stat.Add(batches[base + t].series[index[k][c]].points[p].value);
          }
          for (const std::string& agg : spec.aggregates) {
            row.push_back(StatValue(stat, agg));
          }
        }
        table.AddRow(row);
      }
    }
  }
  return ResultTable{"series", std::move(table)};
}

/// Emits one histogram's rows for a bucket sequence: cumulative fraction
/// (or raw count) per bucket, grouped by key. Key groups whose total stays
/// below meta.min_key_total are suppressed here — after any cross-trial
/// pooling — so runners can emit a structurally fixed bucket layout and
/// still skip effectively-empty groups (fig06's sparse counter levels).
void EmitHistogramRows(const HistogramRecord& meta,
                       const std::vector<HistogramRecord::Bucket>& buckets,
                       const std::vector<double>& axis_values,
                       CsvTable* table) {
  std::map<double, int64_t> totals;
  for (const HistogramRecord::Bucket& b : buckets) totals[b.key] += b.count;
  std::map<double, int64_t> running;
  for (const HistogramRecord::Bucket& b : buckets) {
    if (totals[b.key] < meta.min_key_total) continue;
    double value;
    if (meta.cumulative) {
      const int64_t cumulative = (running[b.key] += b.count);
      const int64_t total = totals[b.key];
      value = total > 0 ? static_cast<double>(cumulative) /
                              static_cast<double>(total)
                        : 0.0;
    } else {
      value = static_cast<double>(b.count);
    }
    std::vector<double> row = axis_values;
    if (!meta.key_name.empty()) row.push_back(b.key);
    row.push_back(b.upper);
    row.push_back(value);
    table->AddRow(row);
  }
}

/// Assembles histogram record `index` into its own table; under aggregation
/// the bucket counts of a cell's trials are pooled.
Result<ResultTable> AssembleHistogram(const ScenarioSpec& spec,
                                      const AxisLayout& axes,
                                      const std::vector<RecordBatch>& batches,
                                      size_t index) {
  const HistogramRecord& meta = batches[0].histograms[index];
  std::vector<std::string> columns = axes.ColumnNames(spec);
  if (!meta.key_name.empty()) columns.push_back(meta.key_name);
  columns.push_back(meta.bucket_name);
  columns.push_back(meta.value_name);
  CsvTable table(columns);

  if (spec.aggregates.empty()) {
    for (int unit = 0; unit < axes.num_units(); ++unit) {
      // The unit's own metadata carries its min_key_total (which may scale
      // with a swept parameter); names were checked identical already.
      EmitHistogramRows(batches[unit].histograms[index],
                        batches[unit].histograms[index].buckets,
                        axes.Values(spec, unit, /*with_trial=*/true), &table);
    }
    return ResultTable{meta.label, std::move(table)};
  }
  for (int cell = 0; cell < axes.num_cells(); ++cell) {
    const int base = cell * axes.trials;
    // Pool counts across the cell's trials; bucket sequences (and the
    // suppression threshold) must align within the cell.
    const HistogramRecord& cell_meta = batches[base].histograms[index];
    std::vector<HistogramRecord::Bucket> pooled = cell_meta.buckets;
    for (int t = 1; t < axes.trials; ++t) {
      const HistogramRecord& other = batches[base + t].histograms[index];
      if (other.buckets.size() != pooled.size() ||
          other.min_key_total != cell_meta.min_key_total) {
        return Status::InvalidArgument(UnitError(
            spec, base + t, "histogram '" + meta.label +
                                "' buckets differ across trials"));
      }
      for (size_t b = 0; b < pooled.size(); ++b) {
        if (other.buckets[b].key != pooled[b].key ||
            other.buckets[b].upper != pooled[b].upper) {
          return Status::InvalidArgument(UnitError(
              spec, base + t, "histogram '" + meta.label +
                                  "' buckets differ across trials"));
        }
        pooled[b].count += other.buckets[b].count;
      }
    }
    EmitHistogramRows(cell_meta, pooled,
                      axes.Values(spec, base, /*with_trial=*/false), &table);
  }
  return ResultTable{meta.label, std::move(table)};
}

/// Assembles the per-sweep-point telemetry table: one row per cell with
/// the mean per-trial wall-clock and phase times (milliseconds), the
/// fraction of trial time covered by phase spans, and the cell's summed
/// engine counters. Counters and rounds are exact sums and thus
/// thread-count independent; the timing columns are wall-clock and vary
/// run to run (the table is a side channel, never part of the experiment's
/// own output).
ResultTable AssembleTelemetrySummary(
    const ScenarioSpec& spec, const AxisLayout& axes,
    const std::vector<obs::TrialTelemetry>& units) {
  std::vector<std::string> columns;
  if (axes.has_sweep) columns.push_back(SweepColumnName(spec.sweep_key));
  if (axes.has_sweep2) {
    std::string name = SweepColumnName(spec.sweep2_key);
    if (axes.has_sweep && name == columns.back()) name += "2";
    columns.push_back(name);
  }
  columns.push_back("trials");
  columns.push_back("rounds");
  columns.push_back("trial_ms");
  for (int p = 0; p < obs::kNumPhases; ++p) {
    columns.push_back(std::string(obs::PhaseName(static_cast<obs::Phase>(p))) +
                      "_ms");
  }
  columns.push_back("span_cover_pct");
  for (int c = 0; c < obs::kNumCounters; ++c) {
    columns.push_back(obs::CounterName(static_cast<obs::Counter>(c)));
  }

  CsvTable table(columns);
  for (int cell = 0; cell < axes.num_cells(); ++cell) {
    const int base = cell * axes.trials;
    int64_t rounds = 0;
    int64_t trial_ns = 0;
    int64_t phase_ns[obs::kNumPhases] = {};
    int64_t counters[obs::kNumCounters] = {};
    for (int t = 0; t < axes.trials; ++t) {
      const obs::TrialTelemetry& unit = units[base + t];
      rounds += unit.rounds;
      trial_ns += unit.trial_dur_ns;
      for (int p = 0; p < obs::kNumPhases; ++p) {
        phase_ns[p] += unit.phase_ns[p];
      }
      for (int c = 0; c < obs::kNumCounters; ++c) {
        counters[c] += unit.counters[c];
      }
    }
    int64_t covered_ns = 0;
    for (int p = 0; p < obs::kNumPhases; ++p) covered_ns += phase_ns[p];

    std::vector<double> row = axes.Values(spec, base, /*with_trial=*/false);
    const double trials = static_cast<double>(axes.trials);
    row.push_back(trials);
    row.push_back(static_cast<double>(rounds));
    row.push_back(static_cast<double>(trial_ns) / trials / 1e6);
    for (int p = 0; p < obs::kNumPhases; ++p) {
      row.push_back(static_cast<double>(phase_ns[p]) / trials / 1e6);
    }
    row.push_back(trial_ns > 0 ? 100.0 * static_cast<double>(covered_ns) /
                                     static_cast<double>(trial_ns)
                               : 0.0);
    for (int c = 0; c < obs::kNumCounters; ++c) {
      row.push_back(static_cast<double>(counters[c]));
    }
    table.AddRow(row);
  }
  return ResultTable{"telemetry", std::move(table)};
}

/// Whether `spec` declares any churn.* key (parameter or sweep axis).
bool SpecUsesChurn(const ScenarioSpec& spec) {
  for (const auto& [key, value] : spec.params) {
    if (key.rfind("churn.", 0) == 0) return true;
  }
  return spec.sweep_key.rfind("churn.", 0) == 0 ||
         spec.sweep2_key.rfind("churn.", 0) == 0;
}

/// Spec-only validation of the churn.* plan family: churn runs only under
/// the rounds driver on join-capable swarm protocols, cannot be combined
/// with failure.kind, and its knob ranges (incl. initial/max_alive against
/// `env_hosts`, the size the cell's environment reports; 0 = known only
/// once built) must hold.
Status ValidateChurnSpec(const ScenarioSpec& spec, const ProtocolDef& protocol,
                         const DriverDef& driver, int env_hosts) {
  const auto invalid = [&](const std::string& what) {
    return Status::InvalidArgument("experiment '" + spec.name + "': " + what);
  };
  if (!SpecUsesChurn(spec)) return Status::OK();
  if (driver.kind != DriverKind::kRounds) {
    return invalid(
        "churn.* plans are round-indexed and only the rounds driver "
        "executes them; driver = " +
        spec.driver +
        (driver.kind == DriverKind::kMessages
             ? " needs event-indexed membership plans, which are not "
               "implemented yet (see docs/spec_reference.md)"
             : " has no rounds"));
  }
  if (!protocol.make_swarm) {
    return invalid("protocol '" + spec.protocol +
                   "' owns its whole trial loop and does not execute "
                   "churn.* plans");
  }
  if (!protocol.capabilities.Has(Capability::kJoin)) {
    return invalid("protocol '" + spec.protocol +
                   "' cannot admit hosts (no on_join reset hook); churn.* "
                   "keys require a join-capable protocol — see `dynagg_run "
                   "--list`");
  }
  DYNAGG_ASSIGN_OR_RETURN(const ChurnConfig churn, ParseChurnConfig(spec));
  if (churn.enabled) {
    DYNAGG_ASSIGN_OR_RETURN(const FailureConfig fail,
                            ParseFailureConfig(spec));
    if (fail.kind != FailureConfig::Kind::kNone) {
      return invalid(
          "churn.* and failure.kind cannot be combined: churn plans cover "
          "deaths via churn.death_prob (and their rebirths RESET host "
          "state, unlike failure churn's silent revives)");
    }
    // initial, max_alive and arrival_rate are bounded by the universe.
    // Arrivals beyond it are clamped anyway, but each one costs a Poisson
    // uniform: an unbounded rate never finishes its draw.
    const bool sized = churn.initial != -1 || churn.max_alive != -1 ||
                       churn.arrival_rate > 0;
    if (sized && env_hosts == 0) {
      return invalid("churn.initial, churn.max_alive and churn.arrival_rate "
                     "are bounded by the population, and environment '" +
                     spec.environment +
                     "' knows its size only once its trace file is read; "
                     "set hosts to the trace's device count");
    }
    const std::string universe =
        "hosts = " + std::to_string(env_hosts) +
        (spec.hosts == 0 ? " (environment '" + spec.environment + "')"
                         : "");
    if (churn.initial > env_hosts) {
      return invalid("churn.initial = " + std::to_string(churn.initial) +
                     " exceeds " + universe);
    }
    if (churn.arrival_rate > env_hosts) {
      return invalid("churn.arrival_rate exceeds " + universe +
                     " (arrivals per round beyond the universe only cost "
                     "draws)");
    }
    if (churn.max_alive > env_hosts) {
      return invalid(
          "churn.max_alive = " + std::to_string(churn.max_alive) +
          " exceeds " + universe +
          " (the universe is fixed; raise hosts to leave room for growth)");
    }
  }
  return Status::OK();
}

/// record.relative divides every evaluated rms by the live truth, which is
/// 0 once no host is alive, so DriveRounds fails at that round. Two plans
/// leave nobody alive by construction (only failure.pin_alive revives):
/// a kill_* plan whose kill count rounds to every host, from failure.round
/// on, and churn with failure.death_prob = 1, after failure.start. Reject
/// them up front. With an environment-derived size (hosts = 0) only
/// fraction = 1 is certain to kill every host.
Status CheckRelativeSurvivors(const ScenarioSpec& spec,
                              const MetricFlags& metrics,
                              const RecordConfig& cfg,
                              const FailureConfig& fail) {
  if (!cfg.relative || !metrics.NeedsRoundEvaluation() ||
      fail.pin_alive != kInvalidHost) {
    return Status::OK();
  }
  int empty_round = -1;  // the first round after which no host is alive
  std::string knob;
  switch (fail.kind) {
    case FailureConfig::Kind::kKillRandomFraction:
    case FailureConfig::Kind::kKillTopFraction: {
      // The kill count of FailurePlan::KillRandomFraction / KillTopFraction.
      const bool kills_all =
          spec.hosts > 0
              ? static_cast<size_t>(fail.fraction * spec.hosts + 0.5) >=
                    static_cast<size_t>(spec.hosts)
              : fail.fraction >= 1.0;
      if (kills_all) empty_round = fail.round;
      knob = "failure.fraction";
      break;
    }
    case FailureConfig::Kind::kChurn: {
      const int end = fail.end >= 0 ? fail.end : spec.rounds;
      if (fail.death_prob >= 1.0 && fail.start < end) {
        empty_round = fail.start;
      }
      knob = "failure.death_prob";
      break;
    }
    case FailureConfig::Kind::kNone:
      break;
  }
  if (empty_round < 0 || empty_round >= spec.rounds) return Status::OK();
  return Status::InvalidArgument(
      "experiment '" + spec.name + "': record.relative: " + knob +
      " leaves no host alive after round " + std::to_string(empty_round) +
      ", where the truth is 0 and the relative error is undefined (set "
      "failure.pin_alive to keep one host alive, lower " +
      knob + ", or drop record.relative)");
}

/// Spec-only preflight of the plain rounds driver: its seeds.* allowlist,
/// metric catalog, record.* knobs, failure plan and metric windows, so
/// DriveRounds itself only parses them.
Status ValidateRoundsDriverSpec(const ScenarioSpec& spec,
                                const ProtocolDef& protocol) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "seeds.",
      {"round_stream", "failure_stream", "workload_stream", "churn_stream"}));
  DYNAGG_ASSIGN_OR_RETURN(const MetricFlags metrics,
                          ClassifyDriverMetrics(spec, protocol.extra_metrics));
  if (metrics.gossip_bytes &&
      !protocol.capabilities.Has(Capability::kGossipBytes)) {
    return Status::InvalidArgument(
        "experiment '" + spec.name + "': protocol '" + spec.protocol +
        "' does not model the gossip_bytes metric");
  }
  DYNAGG_RETURN_IF_ERROR(
      CheckMetered(spec, protocol.capabilities.Has(Capability::kMetered)));
  DYNAGG_ASSIGN_OR_RETURN(
      const RecordConfig cfg,
      ParseRecordConfig(spec, protocol.extra_record_keys));
  DYNAGG_ASSIGN_OR_RETURN(const FailureConfig fail, ParseFailureConfig(spec));
  DYNAGG_RETURN_IF_ERROR(CheckValueBacked(
      fail, protocol.capabilities.Has(Capability::kValueBacked)));
  DYNAGG_RETURN_IF_ERROR(CheckRecordWindows(spec, metrics, cfg));
  return CheckRelativeSurvivors(spec, metrics, cfg, fail);
}

/// The per-spec checks, run on the exact spec and context one cell of the
/// sweep grid executes: everything that reads a value a sweep axis can
/// write (hosts, rounds, intra_round_threads, any namespaced knob).
Status ValidateCell(const TrialContext& ctx, const ProtocolDef& protocol,
                    const EnvironmentDef& environment,
                    const DriverDef& driver) {
  const ScenarioSpec& spec = *ctx.spec;
  const auto invalid = [&](const std::string& what) {
    return Status::InvalidArgument("experiment '" + spec.name + "': " + what);
  };
  // Environment knobs (env.* ranges and allowlist, hosts/degree
  // consistency) are spec-only, and so is the size the environment will
  // build, except a trace file's. Skipped for the rare protocols that
  // never build an environment.
  int env_hosts = spec.hosts;
  if (environment.validate && protocol.uses_environment) {
    DYNAGG_ASSIGN_OR_RETURN(const int built, environment.validate(spec));
    if (built > 0 && spec.hosts > 0 && built != spec.hosts) {
      return invalid("hosts = " + std::to_string(spec.hosts) +
                     " does not match the " + std::to_string(built) +
                     " hosts of environment '" + spec.environment +
                     "' (set hosts = 0 to derive it)");
    }
    if (built > 0) env_hosts = built;
  }
  if (spec.intra_round_threads < 1) {
    return invalid("intra_round_threads must be >= 1");
  }
  if (spec.intra_round_threads > 1 &&
      !protocol.capabilities.Has(Capability::kThreads)) {
    return invalid("protocol '" + spec.protocol +
                   "' does not support intra_round_threads (no "
                   "data-parallel apply phase)");
  }
  DYNAGG_RETURN_IF_ERROR(ValidateChurnSpec(spec, protocol, driver, env_hosts));
  if (driver.kind == DriverKind::kMessages) {
    DYNAGG_RETURN_IF_ERROR(ValidateAsyncSpec(spec, protocol));
  } else if (driver.kind == DriverKind::kTrace) {
    if (!environment.provides_trace) {
      return invalid("driver = " + spec.driver +
                     " replays a contact trace, but environment '" +
                     spec.environment +
                     "' does not provide one (use haggle or another trace "
                     "environment)");
    }
    DYNAGG_RETURN_IF_ERROR(ValidateTraceSpec(spec, protocol));
  } else if (spec.gossip_period > 0 || spec.sample_period > 0) {
    return invalid(
        "gossip_period / sample_period configure the event-driven drivers "
        "(trace, async); driver = " +
        spec.driver + " advances in rounds");
  } else if (protocol.make_swarm) {
    DYNAGG_RETURN_IF_ERROR(ValidateRoundsDriverSpec(spec, protocol));
  }
  if (protocol.validate) DYNAGG_RETURN_IF_ERROR(protocol.validate(spec));
  // Each seeds.* stream expression resolves against this cell's axes,
  // with the `hosts` term at the cell's size (the drivers use the built
  // environment's, which only differs when hosts = 0 derives it). The
  // failure stream is a plain integer.
  for (const auto stream :
       {RoundStream, WorkloadStream, MessageStream, ChurnStream}) {
    DYNAGG_RETURN_IF_ERROR(stream(spec, ctx, spec.hosts).status());
  }
  return FailureStream(spec, FailureConfig()).status();
}

}  // namespace

Status ValidateExperiment(const ScenarioSpec& spec) {
  const auto invalid = [&](const std::string& what) {
    return Status::InvalidArgument("experiment '" + spec.name + "': " + what);
  };
  if (spec.protocol.empty()) return invalid("no protocol configured");
  if (spec.rounds < 1 || spec.trials < 1) {
    return invalid("rounds and trials must be >= 1");
  }
  DYNAGG_ASSIGN_OR_RETURN(const ProtocolDef protocol,
                          ProtocolRegistry().Find(spec.protocol));
  DYNAGG_ASSIGN_OR_RETURN(const EnvironmentDef environment,
                          EnvironmentRegistry().Find(spec.environment));
  DYNAGG_ASSIGN_OR_RETURN(const DriverDef driver,
                          DriverRegistry().Find(spec.driver));
  // A swept thread count must be usable at every value, not just the base.
  if (!protocol.capabilities.Has(Capability::kThreads)) {
    for (const std::string& key : {spec.sweep_key, spec.sweep2_key}) {
      if (key == "intra_round_threads") {
        return invalid("protocol '" + spec.protocol +
                       "' does not support intra_round_threads (no "
                       "data-parallel apply phase); it cannot be swept");
      }
    }
  }
  if (!spec.telemetry.empty() && spec.telemetry != "off" &&
      spec.telemetry != "summary" && spec.telemetry != "profile") {
    return invalid("telemetry must be off, summary or profile, got '" +
                   spec.telemetry + "'");
  }
  // Keyed stream workloads feed the stream sketch protocols only; a
  // workload key on any other protocol would be silently ignored. The
  // reverse direction — a consuming protocol without a workload.kind — is
  // rejected by the protocol's own validate hook.
  if (!protocol.consumes_workload) {
    for (const auto& [key, value] : spec.params) {
      if (key.rfind("workload.", 0) == 0 || key == "seeds.workload_stream") {
        return invalid(
            "'" + key + "' does not apply to protocol '" + spec.protocol +
            "' (keyed stream workloads feed the stream sketch protocols "
            "only, e.g. count-min / count-sketch-freq — see `dynagg_run "
            "--list`)");
      }
    }
    for (const std::string& key : {spec.sweep_key, spec.sweep2_key}) {
      if (key.rfind("workload.", 0) == 0) {
        return invalid(
            "sweep key '" + key + "' does not apply to protocol '" +
            spec.protocol +
            "' (keyed stream workloads feed the stream sketch protocols "
            "only, e.g. count-min / count-sketch-freq)");
      }
    }
  }
  // The net.* keys and the per-message seed stream configure the async
  // driver's network model; on any other driver they would be silently
  // ignored. Mirrors the workload rejection above.
  if (driver.kind != DriverKind::kMessages) {
    for (const auto& [key, value] : spec.params) {
      if (key.rfind("net.", 0) == 0 || key == "seeds.message_stream") {
        return invalid("'" + key +
                       "' configures the async driver's network model and "
                       "does not apply to driver = " +
                       spec.driver + " (use driver = async)");
      }
    }
    for (const std::string& key : {spec.sweep_key, spec.sweep2_key}) {
      if (key.rfind("net.", 0) == 0) {
        return invalid("sweep key '" + key +
                       "' configures the async driver's network model and "
                       "does not apply to driver = " +
                       spec.driver + " (use driver = async)");
      }
    }
  }
  DYNAGG_RETURN_IF_ERROR(ValidateMetricList(spec.metrics));
  DYNAGG_RETURN_IF_ERROR(ValidateAggregateList(spec.aggregates));
  if (!spec.aggregates.empty() && spec.trials < 2) {
    // A one-trial stddev would silently read 0, faking perfect
    // reproducibility.
    return invalid("aggregate requires trials >= 2");
  }
  if (!spec.sweep_key.empty() && spec.sweep_values.empty()) {
    return invalid("sweep over '" + spec.sweep_key + "' has no values");
  }
  if (spec.sweep_key.empty() && !spec.sweep_values.empty()) {
    return invalid("sweep values set without a sweep key");
  }
  if (spec.sweep2_key.empty() && !spec.sweep2_values.empty()) {
    return invalid("sweep2 values set without a sweep2 key");
  }
  if (!spec.sweep2_key.empty()) {
    if (spec.sweep_key.empty()) {
      return invalid("sweep2 requires a primary sweep");
    }
    if (spec.sweep2_key == spec.sweep_key) {
      return invalid("sweep2 key '" + spec.sweep2_key +
                     "' duplicates the sweep key");
    }
    if (spec.sweep2_values.empty()) {
      return invalid("sweep2 over '" + spec.sweep2_key + "' has no values");
    }
  }
  // Every cell of the sweep grid is validated before any unit runs, on
  // the spec its units execute: a fractional hosts sweep, a swept value
  // out of a knob's range, or a combination of both axes (churn.initial
  // above a swept hosts) fails --dry-run, not halfway through a long run.
  const AxisLayout axes(spec);
  for (int cell = 0; cell < axes.num_cells(); ++cell) {
    TrialContext ctx;
    DYNAGG_ASSIGN_OR_RETURN(const ScenarioSpec cell_spec,
                            BuildCell(spec, axes, cell, &ctx));
    ctx.spec = &cell_spec;
    DYNAGG_RETURN_IF_ERROR(ValidateCell(ctx, protocol, environment, driver));
  }
  return Status::OK();
}

Result<std::vector<ResultTable>> RunExperiment(const ScenarioSpec& spec,
                                               int threads) {
  RunOptions options;
  options.threads = threads;
  return RunExperiment(spec, options, /*telemetry=*/nullptr);
}

Result<std::vector<ResultTable>> RunExperiment(
    const ScenarioSpec& spec, const RunOptions& options,
    ExperimentTelemetry* telemetry) {
  int threads = options.threads;
  DYNAGG_RETURN_IF_ERROR(ValidateExperiment(spec));
  // The effective mode: the options override (dynagg_run --telemetry) wins
  // over the spec key; collection also needs somewhere to put the result.
  const std::string& mode =
      options.telemetry.empty() ? spec.telemetry : options.telemetry;
  const bool collect =
      telemetry != nullptr && (mode == "summary" || mode == "profile");
  DYNAGG_ASSIGN_OR_RETURN(const ProtocolDef protocol,
                          ProtocolRegistry().Find(spec.protocol));
  DYNAGG_ASSIGN_OR_RETURN(const DriverDef driver,
                          DriverRegistry().Find(spec.driver));

  const AxisLayout axes(spec);
  const int num_units = axes.num_units();

  std::vector<std::optional<Result<RecordBatch>>> slots(num_units);
  std::vector<obs::TrialTelemetry> unit_telemetry(collect ? num_units : 0);
  std::mutex done_mutex;
  int done_units = 0;
  std::atomic<int> next_unit{0};
  const auto worker = [&](int worker_id) {
    for (;;) {
      const int unit = next_unit.fetch_add(1);
      if (unit >= num_units) return;

      TrialContext ctx;
      ctx.trial = axes.trial(unit);
      ctx.trial_seed = TrialSeed(spec.seed, ctx.trial);
      // ValidateExperiment built this cell's spec with the same call and
      // accepted it, so the build cannot fail here.
      const ScenarioSpec unit_spec =
          BuildCell(spec, axes, axes.cell(unit), &ctx).value();
      ctx.spec = &unit_spec;
      // Install the unit's telemetry sink (null = all hooks no-op) for
      // exactly the driver call: spans and counters land per unit, on the
      // worker that ran it.
      obs::TrialTelemetry* sink = nullptr;
      if (collect) {
        sink = &unit_telemetry[unit];
        sink->unit = unit;
        sink->worker = worker_id;
        sink->trial = ctx.trial;
        sink->profile = mode == "profile";
      }
      {
        obs::ScopedTrial scope(sink);
        Recorder rec;
        const Status st = driver.run(ctx, protocol, rec);
        if (st.ok()) {
          slots[unit].emplace(rec.TakeBatch());
        } else {
          slots[unit].emplace(st);
        }
      }
      if (options.on_unit_done) {
        std::lock_guard<std::mutex> lock(done_mutex);
        options.on_unit_done(++done_units, num_units);
      }
    }
  };

  if (threads < 1) threads = 1;
  if (threads > num_units) threads = num_units;
  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
  }

  if (collect) {
    telemetry->experiment = spec.name;
    telemetry->summary.clear();
    telemetry->summary.push_back(
        AssembleTelemetrySummary(spec, axes, unit_telemetry));
    telemetry->units = std::move(unit_telemetry);
  }

  std::vector<RecordBatch> batches;
  batches.reserve(num_units);
  for (int unit = 0; unit < num_units; ++unit) {
    Result<RecordBatch>& result = *slots[unit];
    if (!result.ok()) {
      return Status::InvalidArgument(
          UnitError(spec, unit, result.status().ToString()));
    }
    batches.push_back(std::move(*result));
  }
  for (int unit = 1; unit < num_units; ++unit) {
    DYNAGG_RETURN_IF_ERROR(
        CheckSameStructure(spec, batches[0], batches[unit], unit));
  }
  const RecordBatch& proto = batches[0];
  if (proto.scalars.empty() && proto.quantiles.empty() &&
      proto.series.empty() && proto.histograms.empty() &&
      !proto.has_bandwidth) {
    return Status::InvalidArgument("experiment '" + spec.name +
                                   "': trials recorded nothing");
  }

  // Deterministic merge, in sweep-major unit order throughout.
  std::vector<ResultTable> out;
  if (!proto.scalars.empty() || !proto.quantiles.empty() ||
      proto.has_bandwidth) {
    DYNAGG_ASSIGN_OR_RETURN(ResultTable table,
                            AssembleSummary(spec, axes, batches));
    out.push_back(std::move(table));
  }
  if (!proto.series.empty()) {
    DYNAGG_ASSIGN_OR_RETURN(ResultTable table,
                            AssembleSeries(spec, axes, batches));
    out.push_back(std::move(table));
  }
  for (size_t h = 0; h < proto.histograms.size(); ++h) {
    DYNAGG_ASSIGN_OR_RETURN(ResultTable table,
                            AssembleHistogram(spec, axes, batches, h));
    out.push_back(std::move(table));
  }
  return out;
}

}  // namespace scenario
}  // namespace dynagg
