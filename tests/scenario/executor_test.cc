// Executor tests: thread-count determinism (including multi-metric,
// aggregated, 2-D-swept experiments), table assembly and error surfacing.
// The ports of the retired bench mains are pinned by the
// bench_ports_small golden (bench/scenarios/golden/).

#include "scenario/executor.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "scenario/sink.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

std::vector<ResultTable> MustRunAll(const std::string& text, int threads) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 1u);
  Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], threads);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  return std::move(tables).value();
}

CsvTable MustRun(const std::string& text, int threads) {
  std::vector<ResultTable> tables = MustRunAll(text, threads);
  EXPECT_EQ(tables.size(), 1u);
  return std::move(tables[0].table);
}

/// Renders all tables of an experiment (determinism comparisons).
std::string MustRender(const std::string& text, int threads,
                       const std::string& format) {
  const std::vector<ResultTable> tables = MustRunAll(text, threads);
  Result<std::string> out = RenderTables(tables, "det", format);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return *out;
}

// ------------------------------------------------------------ determinism ---

TEST(ExecutorTest, ParallelExecutionIsDeterministic) {
  const char* text =
      "name = det\n"
      "protocol = push-sum-revert\n"
      "hosts = 128\n"
      "rounds = 30\n"
      "trials = 3\n"
      "seed = 99\n"
      "sweep = protocol.lambda: 0, 0.01, 0.1\n"
      "failure.kind = churn\n"
      "failure.death_prob = 0.01\n"
      "record = rms\n";
  const CsvTable serial = MustRun(text, 1);
  const CsvTable parallel = MustRun(text, 8);
  EXPECT_EQ(serial.ToCsv(), parallel.ToCsv());
  // 3 sweep values x 3 trials x 30 recorded rounds.
  EXPECT_EQ(serial.num_rows(), 3 * 3 * 30);
}

// The acceptance bar of the Recorder redesign: a multi-metric experiment
// with cross-trial aggregation and a second sweep axis must stay a pure
// function of the spec — byte-identical rendered output at 1 and N
// executor threads, in both formats.
TEST(ExecutorTest, MultiMetricAggregateSweep2IsByteIdenticalAcrossThreads) {
  const char* text =
      "name = det2d\n"
      "protocol = push-sum-revert\n"
      "hosts = 96\n"
      "trials = 3\n"
      "seed = 777\n"
      "sweep = protocol.lambda: 0.01, 0.1\n"
      "sweep2 = rounds: 10, 20\n"
      "failure.kind = churn\n"
      "failure.death_prob = 0.02\n"
      "record = rms, rms_tail_mean, bandwidth, cdf(final_error)\n"
      "record.cdf_hi = 60\n"
      "record.cdf_buckets = 6\n"
      "aggregate = mean, stddev\n";
  const std::string csv1 = MustRender(text, 1, "csv");
  const std::string csv8 = MustRender(text, 8, "csv");
  EXPECT_EQ(csv1, csv8);
  const std::string jsonl1 = MustRender(text, 1, "jsonl");
  const std::string jsonl8 = MustRender(text, 8, "jsonl");
  EXPECT_EQ(jsonl1, jsonl8);
  EXPECT_NE(csv1.find("# record: summary"), std::string::npos);
  EXPECT_NE(csv1.find("# record: series"), std::string::npos);
  EXPECT_NE(csv1.find("# record: final_error_cdf"), std::string::npos);
}

// Regression: a unit whose recording window is empty (record.from >= its
// rounds under a rounds sweep) must still carry the rms series so batches
// stay structurally identical — it contributes zero rows, not a failure.
TEST(ExecutorTest, EmptyRecordingWindowContributesZeroSeriesRows) {
  const CsvTable table = MustRun(
      "name = empty_window\n"
      "protocol = push-sum-revert\n"
      "hosts = 32\n"
      "seed = 4\n"
      "sweep = protocol.lambda: 0, 0.01\n"
      "sweep2 = rounds: 5, 20\n"
      "record = rms\n"
      "record.from = 10\n",
      2);
  // Only the rounds=20 units produce points (rounds 11..20).
  ASSERT_EQ(table.num_rows(), 2 * 10);
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    EXPECT_EQ(table.row(i)[1], 20.0) << "row " << i;  // rounds axis
  }
}

TEST(ExecutorTest, TrialsAreDecorrelatedButTrialZeroReplaysBaseSeed) {
  const char* text =
      "name = trials\n"
      "protocol = push-sum\n"
      "hosts = 64\n"
      "rounds = 5\n"
      "trials = 2\n"
      "seed = 1234\n";
  const CsvTable table = MustRun(text, 2);
  // Columns: trial, round, rms. Trial 0 and 1 see different populations,
  // so their round-1 deviations differ.
  ASSERT_EQ(table.num_rows(), 2 * 5);
  EXPECT_EQ(table.columns()[0], "trial");
  EXPECT_NE(table.row(0)[2], table.row(5)[2]);
}

// ---------------------------------------------------- multi-metric merge ---

TEST(ExecutorTest, MultiMetricSingleTrialProducesSummaryAndSeries) {
  const std::vector<ResultTable> tables = MustRunAll(
      "name = multi\n"
      "protocol = push-sum\n"
      "hosts = 64\n"
      "rounds = 8\n"
      "seed = 5\n"
      "record = rms, rms_tail_mean, bandwidth\n",
      2);
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].label, "summary");
  const CsvTable& summary = tables[0].table;
  ASSERT_EQ(summary.columns().size(), 4u);
  EXPECT_EQ(summary.columns()[0], "rms_tail_mean");
  EXPECT_EQ(summary.columns()[1], "msgs_per_host_round");
  EXPECT_EQ(summary.columns()[2], "bytes_per_host_round");
  EXPECT_EQ(summary.columns()[3], "state_bytes");
  ASSERT_EQ(summary.num_rows(), 1);
  // Push/pull gossip: every host initiates one exchange of 2 mass
  // messages, 16 bytes each.
  EXPECT_EQ(summary.row(0)[1], 2.0);
  EXPECT_EQ(summary.row(0)[2], 32.0);
  EXPECT_EQ(summary.row(0)[3], 16.0);

  EXPECT_EQ(tables[1].label, "series");
  const CsvTable& series = tables[1].table;
  ASSERT_EQ(series.columns().size(), 2u);
  EXPECT_EQ(series.columns()[0], "round");
  EXPECT_EQ(series.columns()[1], "rms");
  EXPECT_EQ(series.num_rows(), 8);
}

TEST(ExecutorTest, AggregateCollapsesTrialsIntoStatisticsColumns) {
  const CsvTable table = MustRun(
      "name = agg\n"
      "protocol = push-sum\n"
      "hosts = 64\n"
      "rounds = 6\n"
      "trials = 4\n"
      "seed = 31\n"
      "record = rms_tail_mean\n"
      "record.from = 3\n"
      "aggregate = mean, stddev, min, max\n",
      3);
  ASSERT_EQ(table.columns().size(), 4u);
  EXPECT_EQ(table.columns()[0], "rms_tail_mean_mean");
  EXPECT_EQ(table.columns()[1], "rms_tail_mean_stddev");
  EXPECT_EQ(table.columns()[2], "rms_tail_mean_min");
  EXPECT_EQ(table.columns()[3], "rms_tail_mean_max");
  ASSERT_EQ(table.num_rows(), 1);
  const std::vector<double>& row = table.row(0);
  EXPECT_GE(row[3], row[2]);              // max >= min
  EXPECT_GE(row[0], row[2]);              // mean within [min, max]
  EXPECT_LE(row[0], row[3]);
  EXPECT_GE(row[1], 0.0);                 // stddev >= 0

  // Cross-check against running the trials unaggregated.
  const CsvTable raw = MustRun(
      "name = agg\n"
      "protocol = push-sum\n"
      "hosts = 64\n"
      "rounds = 6\n"
      "trials = 4\n"
      "seed = 31\n"
      "record = rms_tail_mean\n"
      "record.from = 3\n",
      3);
  ASSERT_EQ(raw.num_rows(), 4);
  RunningStat stat;
  for (int64_t i = 0; i < raw.num_rows(); ++i) stat.Add(raw.row(i)[1]);
  EXPECT_EQ(row[0], stat.mean());
  EXPECT_EQ(row[1], std::sqrt(stat.sample_variance()));
  EXPECT_EQ(row[2], stat.min());
  EXPECT_EQ(row[3], stat.max());
}

TEST(ExecutorTest, Sweep2ProducesCrossProductInSweepMajorOrder) {
  const CsvTable table = MustRun(
      "name = grid\n"
      "protocol = push-sum-revert\n"
      "hosts = 32\n"
      "seed = 9\n"
      "sweep = protocol.lambda: 0.01, 0.1\n"
      "sweep2 = rounds: 2, 3\n"
      "record = rms_tail_mean\n",
      4);
  ASSERT_EQ(table.columns().size(), 3u);
  EXPECT_EQ(table.columns()[0], "lambda");
  EXPECT_EQ(table.columns()[1], "rounds");
  EXPECT_EQ(table.columns()[2], "rms_tail_mean");
  ASSERT_EQ(table.num_rows(), 4);
  // Sweep-major, sweep2 inner.
  EXPECT_EQ(table.row(0)[0], 0.01);
  EXPECT_EQ(table.row(0)[1], 2.0);
  EXPECT_EQ(table.row(1)[0], 0.01);
  EXPECT_EQ(table.row(1)[1], 3.0);
  EXPECT_EQ(table.row(2)[0], 0.1);
  EXPECT_EQ(table.row(2)[1], 2.0);
  EXPECT_EQ(table.row(3)[0], 0.1);
  EXPECT_EQ(table.row(3)[1], 3.0);
}

// ------------------------------------------------------------- errors ---

TEST(ExecutorTest, BadProtocolParamSurfacesKeyInError) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum-revert\n"
      "hosts = 16\n"
      "protocol.lambda = not_a_number\n");
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("protocol.lambda"),
            std::string::npos);
}

TEST(ExecutorTest, UnknownParamSuffixSurfacesInError) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "protocol.lamda = 0.5\n");  // typo
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("protocol.lamda"),
            std::string::npos);
}

TEST(ExecutorTest, UnsupportedMetricSurfacesSelectorInError) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "record = rms, cdf(counter)\n");  // CSR-only selector
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("cdf(counter)"),
            std::string::npos);
}

TEST(ExecutorTest, LegacyRecordKindGetsMigrationHint) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "record.kind = per_round\n");
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("record.kind"),
            std::string::npos);
  EXPECT_NE(tables.status().message().find("record = rms"),
            std::string::npos);
}

TEST(ExecutorTest, NeverConvergedTrialCannotBeAggregated) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "rounds = 3\n"
      "trials = 2\n"
      "record = rounds_to_converge\n"
      "record.threshold = 0\n"  // rms < 0 never holds
      "aggregate = mean\n");
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("cannot be aggregated"),
            std::string::npos);
  // Without aggregation the -1 sentinel is reported as-is.
  const auto raw = ParseScenarioFile(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "rounds = 3\n"
      "record = rounds_to_converge\n"
      "record.threshold = 0\n");
  ASSERT_TRUE(raw.ok());
  const Result<std::vector<ResultTable>> raw_tables =
      RunExperiment((*raw)[0], 1);
  ASSERT_TRUE(raw_tables.ok()) << raw_tables.status().ToString();
  EXPECT_EQ((*raw_tables)[0].table.row(0)[0], -1.0);
}

TEST(ExecutorTest, TailMeanWithEmptyWindowIsError) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "rounds = 10\n"
      "record = rms_tail_mean\n"
      "record.from = 10\n");
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("record.from"),
            std::string::npos);
}

TEST(ExecutorTest, FinalErrorCdfRequiresBucketRange) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "rounds = 5\n"
      "record = cdf(final_error)\n");  // no record.cdf_hi
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("record.cdf_hi"),
            std::string::npos);
}

TEST(ExecutorTest, BandwidthOnMeterlessProtocolIsError) {
  const auto specs = ParseScenarioFile(
      "protocol = epoch-push-sum\n"
      "hosts = 16\n"
      "rounds = 5\n"
      "record = bandwidth\n");
  ASSERT_TRUE(specs.ok());
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("bandwidth"), std::string::npos);
}

TEST(ExecutorTest, MissingHostsForUniformEnvIsError) {
  const auto specs = ParseScenarioFile("protocol = push-sum\n");
  ASSERT_TRUE(specs.ok());
  EXPECT_FALSE(RunExperiment((*specs)[0], 1).ok());
}

TEST(ExecutorTest, ValidateExperimentCatchesStructuralErrors) {
  ScenarioSpec spec;
  spec.protocol = "push-sum";
  spec.hosts = 16;
  EXPECT_TRUE(ValidateExperiment(spec).ok());

  ScenarioSpec bad_protocol = spec;
  bad_protocol.protocol = "no-such-protocol";
  EXPECT_FALSE(ValidateExperiment(bad_protocol).ok());

  ScenarioSpec bad_metric = spec;
  bad_metric.metrics.clear();
  EXPECT_FALSE(ValidateExperiment(bad_metric).ok());

  ScenarioSpec bad_sweep2 = spec;
  bad_sweep2.sweep2_key = "rounds";
  bad_sweep2.sweep2_values = {10};
  EXPECT_FALSE(ValidateExperiment(bad_sweep2).ok());  // no primary sweep

  ScenarioSpec dup_sweep2 = spec;
  dup_sweep2.sweep_key = "rounds";
  dup_sweep2.sweep_values = {10, 20};
  dup_sweep2.sweep2_key = "rounds";
  dup_sweep2.sweep2_values = {30};
  EXPECT_FALSE(ValidateExperiment(dup_sweep2).ok());  // duplicate key

  ScenarioSpec bad_hosts_sweep = spec;
  bad_hosts_sweep.sweep_key = "hosts";
  bad_hosts_sweep.sweep_values = {10.5};  // not an integer
  EXPECT_FALSE(ValidateExperiment(bad_hosts_sweep).ok());

  // Values without a key would silently drop the intended sweep.
  ScenarioSpec keyless_sweep = spec;
  keyless_sweep.sweep_values = {1, 2};
  EXPECT_FALSE(ValidateExperiment(keyless_sweep).ok());

  ScenarioSpec bad_aggregate = spec;
  bad_aggregate.aggregates = {"median"};
  bad_aggregate.trials = 3;
  EXPECT_FALSE(ValidateExperiment(bad_aggregate).ok());

  // A one-trial stddev would silently read 0 — rejected up front.
  ScenarioSpec single_trial_aggregate = spec;
  single_trial_aggregate.aggregates = {"mean", "stddev"};
  EXPECT_FALSE(ValidateExperiment(single_trial_aggregate).ok());
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
