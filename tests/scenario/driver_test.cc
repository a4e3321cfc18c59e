// Driver API v1 tests: spec-level driver validation (the --dry-run
// contract), trace execution determinism across thread counts, the trace
// driver's tick/sample timeline on the checked-in CRAWDAD fixture, and
// keyed (per-group) series assembly. The fig10/fig11 ports and the
// fixture's hourly series are pinned by the bench_ports_small golden
// (bench/scenarios/golden/).

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "env/crawdad.h"
#include "env/trace_env.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {
namespace {

std::vector<ScenarioSpec> MustParse(const std::string& text) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  return *specs;
}

CsvTable MustRunSpec(const ScenarioSpec& spec, int threads) {
  Result<std::vector<ResultTable>> tables = RunExperiment(spec, threads);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(tables->size(), 1u);
  return std::move((*tables)[0].table);
}

CsvTable MustRun(const std::string& text, int threads) {
  const std::vector<ScenarioSpec> specs = MustParse(text);
  EXPECT_EQ(specs.size(), 1u);
  return MustRunSpec(specs[0], threads);
}

void ExpectValidateFails(const std::string& text,
                         const std::string& needle) {
  const std::vector<ScenarioSpec> specs = MustParse(text);
  ASSERT_EQ(specs.size(), 1u);
  const Status st = ValidateExperiment(specs[0]);
  ASSERT_FALSE(st.ok()) << "spec unexpectedly valid:\n" << text;
  EXPECT_NE(st.message().find(needle), std::string::npos)
      << "message '" << st.message() << "' lacks '" << needle << "'";
}

// -------------------------------------------- spec-level validation ---

TEST(DriverValidationTest, UnknownDriverListsRegisteredDrivers) {
  ExpectValidateFails(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "driver = warp\n",
      "warp");
  ExpectValidateFails(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "driver = warp\n",
      "rounds");
}

TEST(DriverValidationTest, TraceDriverRequiresTraceEnvironment) {
  ExpectValidateFails(
      "protocol = push-sum-revert\n"
      "hosts = 16\n"
      "driver = trace\n",  // environment defaults to uniform
      "does not provide one");
  ExpectValidateFails(
      "protocol = push-sum-revert\n"
      "hosts = 16\n"
      "driver = trace\n"
      "environment = spatial\n"
      "env.width = 4\n"
      "env.height = 4\n",
      "spatial");
}

TEST(DriverValidationTest, GossipPeriodOnRoundsDriverIsError) {
  ExpectValidateFails(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "gossip_period = 30\n",
      "event-driven drivers (trace, async)");
  ExpectValidateFails(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "sample_period = 3600\n",
      "event-driven drivers (trace, async)");
}

TEST(DriverValidationTest, TraceDriverRejectsWholeTrialProtocols) {
  ExpectValidateFails(
      "protocol = tag-tree\n"
      "driver = trace\n"
      "environment = haggle\n",
      "tag-tree");
}

TEST(DriverValidationTest, TraceDriverRejectsTraceIncapableSwarms) {
  ExpectValidateFails(
      "protocol = node-aggregator\n"
      "driver = trace\n"
      "environment = haggle\n",
      "node-aggregator");
}

TEST(DriverValidationTest, TraceDriverRejectsExplicitRounds) {
  // The trace horizon governs the run length; a declared rounds count
  // would silently run a different length than written.
  ExpectValidateFails(
      "protocol = push-sum-revert\n"
      "driver = trace\n"
      "environment = haggle\n"
      "rounds = 100\n",
      "trace horizon");
  ExpectValidateFails(
      "protocol = push-sum-revert\n"
      "driver = trace\n"
      "environment = haggle\n"
      "sweep = rounds: 10, 20\n",
      "trace horizon");
}

TEST(DriverValidationTest, TraceDriverRejectsEnvGossipSeconds) {
  const std::vector<ScenarioSpec> specs = MustParse(
      "protocol = push-sum-revert\n"
      "driver = trace\n"
      "environment = haggle\n"
      "env.hours = 1\n"
      "env.gossip_seconds = 60\n");  // dead under trace: gossip_period rules
  ASSERT_EQ(specs.size(), 1u);
  const Result<std::vector<ResultTable>> tables =
      RunExperiment(specs[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("gossip_period"),
            std::string::npos);
}

TEST(DriverValidationTest, TraceDriverRejectsZeroMultiplicity) {
  const std::vector<ScenarioSpec> specs = MustParse(
      "protocol = count-sketch-reset\n"
      "protocol.multiplicity = 0\n"
      "driver = trace\n"
      "environment = haggle\n"
      "env.hours = 1\n");
  ASSERT_EQ(specs.size(), 1u);
  const Result<std::vector<ResultTable>> tables =
      RunExperiment(specs[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("multiplicity"),
            std::string::npos);
}

TEST(DriverValidationTest, SweepRoundStreamRequiresSweep) {
  const std::vector<ScenarioSpec> specs = MustParse(
      "protocol = push-sum\n"
      "hosts = 16\n"
      "rounds = 3\n"
      "seeds.round_stream = sweep+10\n");
  ASSERT_EQ(specs.size(), 1u);
  const Result<std::vector<ResultTable>> tables =
      RunExperiment(specs[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("requires a sweep"),
            std::string::npos);
}

TEST(DriverValidationTest, TraceDriverRejectsFailurePlans) {
  const std::vector<ScenarioSpec> specs = MustParse(
      "protocol = push-sum-revert\n"
      "driver = trace\n"
      "environment = haggle\n"
      "env.hours = 1\n"
      "failure.kind = churn\n"
      "failure.death_prob = 0.1\n");
  ASSERT_EQ(specs.size(), 1u);
  const Result<std::vector<ResultTable>> tables =
      RunExperiment(specs[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("failure."), std::string::npos);
}

TEST(DriverValidationTest, TraceDriverRejectsRoundsMetrics) {
  const std::vector<ScenarioSpec> specs = MustParse(
      "protocol = push-sum-revert\n"
      "driver = trace\n"
      "environment = haggle\n"
      "env.hours = 1\n"
      "record = bandwidth\n");
  ASSERT_EQ(specs.size(), 1u);
  const Result<std::vector<ResultTable>> tables =
      RunExperiment(specs[0], 1);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("bandwidth"), std::string::npos);
  EXPECT_NE(tables.status().message().find("avg_group_size"),
            std::string::npos);
}

// ------------------------------------------- trace determinism ---

TEST(DriverDeterminismTest, TraceDriverIsByteIdenticalAcrossThreadCounts) {
  const char* text =
      "name = trace_det\n"
      "driver = trace\n"
      "protocol = push-sum-revert\n"
      "protocol.lambda = 0.01\n"
      "environment = haggle\n"
      "env.dataset = 1\n"
      "env.hours = 3\n"
      "trials = 2\n"
      "sweep = protocol.lambda: 0, 0.01\n"
      "seed = 99\n"
      "record = rms, avg_group_size\n";
  const auto render = [&](int threads) {
    const std::vector<ScenarioSpec> specs = MustParse(text);
    EXPECT_EQ(specs.size(), 1u);
    Result<std::vector<ResultTable>> tables =
        RunExperiment(specs[0], threads);
    EXPECT_TRUE(tables.ok()) << tables.status().ToString();
    Result<std::string> out = RenderTables(*tables, "trace_det", "csv");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *out;
  };
  const std::string serial = render(1);
  const std::string parallel = render(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("rms"), std::string::npos);
}

// Trials with derived (non-preset) trace seeds see different traces.
TEST(DriverDeterminismTest, DerivedTraceSeedsDecorrelateTrials) {
  // 24 trace hours: the synthetic gathering process is nocturnal-quiet
  // (day starts at hour 8), so the window must reach daytime for group
  // sizes to move at all.
  const CsvTable table = MustRun(
      "name = trace_trials\n"
      "driver = trace\n"
      "protocol = push-sum-revert\n"
      "environment = haggle\n"
      "env.dataset = 1\n"
      "env.hours = 24\n"
      "trials = 2\n"
      "seed = 5\n"
      "record = avg_group_size\n",
      2);
  // Columns: trial, hour, avg_group_size. Different traces make some
  // hourly group-size sample differ between the trials.
  ASSERT_EQ(table.columns().size(), 3u);
  ASSERT_EQ(table.num_rows() % 2, 0);
  const int64_t half = table.num_rows() / 2;
  bool any_diff = false;
  for (int64_t i = 0; i < half; ++i) {
    any_diff = any_diff || table.row(i)[2] != table.row(half + i)[2];
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------ trace timeline ---

// The checked-in CRAWDAD fixture ends at exactly 7200 s, so every 600 s
// sample instant coincides with a 30 s gossip tick and the last sample
// sits on the trace's horizon.
std::string CrawdadFixturePath() {
  return std::string(DYNAGG_SOURCE_DIR) +
         "/bench/data/crawdad_fixture.contacts";
}

/// Runs the fixture under the trace driver with the given gossip period
/// and 600 s samples; returns the table and the gossip rounds it ran.
std::pair<CsvTable, int> RunCrawdadTimeline(const std::string& period) {
  const std::vector<ScenarioSpec> specs = MustParse(
      "name = crawdad_timeline\n"
      "driver = trace\n"
      "environment = crawdad\n"
      "env.trace_file = " + CrawdadFixturePath() + "\n"
      "protocol = push-sum-revert\n"
      "protocol.lambda = 0.1\n"
      "gossip_period = " + period + "\n"
      "sample_period = 600\n"
      "seed = 20090411\n"
      "record = rms, avg_group_size\n");
  EXPECT_EQ(specs.size(), 1u);
  ExperimentTelemetry telemetry;
  Result<std::vector<ResultTable>> tables =
      RunExperiment(specs[0], RunOptions{1, "summary", nullptr}, &telemetry);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(tables->size(), 1u);
  EXPECT_EQ(telemetry.units.size(), 1u);
  return {std::move((*tables)[0].table), telemetry.units[0].rounds};
}

ContactTrace LoadCrawdadFixture() {
  std::ifstream in(CrawdadFixturePath(), std::ios::binary);
  EXPECT_TRUE(in.good()) << CrawdadFixturePath();
  std::ostringstream text;
  text << in.rdbuf();
  Result<ContactTrace> trace = ParseCrawdadContacts(text.str());
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return std::move(*trace);
}

TEST(TraceDriverTest, RunsOneRoundPerGossipPeriod) {
  // 7200 s / 30 s and 7200 s / 45 s: the tick on the horizon runs too.
  EXPECT_EQ(RunCrawdadTimeline("30").second, 240);
  EXPECT_EQ(RunCrawdadTimeline("45").second, 160);
}

TEST(TraceDriverTest, SamplesFireAtTheirPeriodThroughTheHorizon) {
  const CsvTable table = RunCrawdadTimeline("30").first;
  // Columns: hour, rms, avg_group_size; one row per 600 s from 1/6 h to
  // the horizon at 2 h.
  ASSERT_EQ(table.columns().size(), 3u);
  ASSERT_EQ(table.num_rows(), 12);
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(table.row(i)[0], static_cast<double>(i + 1) / 6.0)
        << "row " << i;
  }
  EXPECT_EQ(table.row(11)[0], 2.0);
}

TEST(TraceDriverTest, NoTickRunsWhenTheFirstFallsPastTheTrace) {
  // The first tick would fire at 10000 s, past the 7200 s trace; the
  // samples still run.
  const auto [table, rounds] = RunCrawdadTimeline("10000");
  EXPECT_EQ(rounds, 0);
  EXPECT_EQ(table.num_rows(), 12);
}

TEST(TraceDriverTest, TraceIsAdvancedBeforeEachSample) {
  // With no tick to advance it, each sample must advance the trace to its
  // own instant before reading the groups.
  const CsvTable table = RunCrawdadTimeline("10000").first;
  ASSERT_EQ(table.num_rows(), 12);
  const ContactTrace trace = LoadCrawdadFixture();
  TraceEnvironment env(trace, FromMinutes(10));
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    env.AdvanceTo(FromSeconds(600.0 * static_cast<double>(i + 1)));
    EXPECT_EQ(table.row(i)[2], env.AverageGroupSize()) << "row " << i;
  }
}

// --------------------------------------------- keyed series assembly ---

void RegisterKeyedTestProtocol() {
  static bool registered = false;
  if (registered) return;
  registered = true;
  ProtocolDef def;
  def.run_custom = [](const TrialContext& ctx, Recorder& rec) -> Status {
    // Two key groups x two value columns x three points, deterministic in
    // the trial seed so aggregation is checkable.
    const double bump = static_cast<double>(ctx.trial_seed % 7);
    for (const double key : {0.25, 0.5}) {
      for (int x = 1; x <= 3; ++x) {
        rec.AddKeyedSeriesPoint("round", "rms", "lam", key, x,
                                key * x + bump);
        rec.AddKeyedSeriesPoint("round", "size", "lam", key, x, key + x);
      }
    }
    return Status::OK();
  };
  ASSERT_TRUE(ProtocolRegistry().Register("test-keyed-series", def).ok());
}

TEST(KeyedSeriesTest, GroupsRenderKeyMajorWithKeyColumn) {
  RegisterKeyedTestProtocol();
  const CsvTable table = MustRun(
      "name = keyed\n"
      "protocol = test-keyed-series\n"
      "hosts = 1\n"
      "seed = 3\n",
      1);
  // Columns: lam, round, rms, size; rows key-major then x.
  ASSERT_EQ(table.columns().size(), 4u);
  EXPECT_EQ(table.columns()[0], "lam");
  EXPECT_EQ(table.columns()[1], "round");
  EXPECT_EQ(table.columns()[2], "rms");
  EXPECT_EQ(table.columns()[3], "size");
  ASSERT_EQ(table.num_rows(), 6);
  const double bump = 3 % 7;  // trial 0 replays the base seed
  int64_t row = 0;
  for (const double key : {0.25, 0.5}) {
    for (int x = 1; x <= 3; ++x, ++row) {
      EXPECT_EQ(table.row(row)[0], key);
      EXPECT_EQ(table.row(row)[1], static_cast<double>(x));
      EXPECT_EQ(table.row(row)[2], key * x + bump);
      EXPECT_EQ(table.row(row)[3], key + x);
    }
  }
}

TEST(KeyedSeriesTest, AggregationMatchesGroupsAcrossTrials) {
  RegisterKeyedTestProtocol();
  const char* text =
      "name = keyed_agg\n"
      "protocol = test-keyed-series\n"
      "hosts = 1\n"
      "trials = 3\n"
      "seed = 11\n"
      "aggregate = mean, min\n";
  const CsvTable table = MustRun(text, 3);
  // Columns: lam, round, rms_mean, rms_min, size_mean, size_min.
  ASSERT_EQ(table.columns().size(), 6u);
  EXPECT_EQ(table.columns()[2], "rms_mean");
  EXPECT_EQ(table.columns()[5], "size_min");
  ASSERT_EQ(table.num_rows(), 6);
  // The size column is trial-independent, so mean == min exactly.
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    EXPECT_EQ(table.row(i)[4], table.row(i)[5]);
  }
  // Cross-check one aggregated cell against the raw per-trial values.
  RunningStat stat;
  for (const int t : {0, 1, 2}) {
    const uint64_t trial_seed = TrialSeed(11, t);
    stat.Add(0.25 * 1 + static_cast<double>(trial_seed % 7));
  }
  EXPECT_EQ(table.row(0)[2], stat.mean());
  EXPECT_EQ(table.row(0)[3], stat.min());
}

TEST(KeyedSeriesTest, KeyedAssemblyIsDeterministicAcrossThreads) {
  RegisterKeyedTestProtocol();
  const char* text =
      "name = keyed_det\n"
      "protocol = test-keyed-series\n"
      "hosts = 1\n"
      "trials = 4\n"
      "seed = 17\n";
  const CsvTable serial = MustRun(text, 1);
  const CsvTable parallel = MustRun(text, 4);
  EXPECT_EQ(serial.ToCsv(), parallel.ToCsv());
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
