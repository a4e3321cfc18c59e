// Telemetry integration tests: collecting telemetry (summary or profile)
// must leave every experiment result table byte-identical — at any
// executor thread count — and the telemetry summary's counters must be
// exact sums, independent of how units were sharded across workers.
// Also covers the telemetry/sweep validation paths.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "sim/worker_pool.h"

namespace dynagg {
namespace scenario {
namespace {

// Two sweep points x two trials with churn and multi-metric recording:
// enough units to shard unevenly across 4 workers.
constexpr const char* kSpec = R"(name = tel
protocol = push-sum-revert
hosts = 48
rounds = 8
trials = 2
seed = 99
sweep = protocol.lambda: 0, 0.05
failure.kind = churn
failure.death_prob = 0.02
record = rms, rms_tail_mean
record.from = 4
)";

ScenarioSpec MustParse(const std::string& text) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 1u);
  return (*specs)[0];
}

std::string MustRenderRun(const ScenarioSpec& spec, const RunOptions& options,
                          ExperimentTelemetry* telemetry) {
  Result<std::vector<ResultTable>> tables =
      RunExperiment(spec, options, telemetry);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  Result<std::string> out = RenderTables(*tables, spec.name, "csv");
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(out).value();
}

std::vector<double> Column(const CsvTable& table, const std::string& name) {
  const auto& cols = table.columns();
  const auto it = std::find(cols.begin(), cols.end(), name);
  EXPECT_NE(it, cols.end()) << "missing column " << name;
  std::vector<double> out;
  if (it == cols.end()) return out;
  const size_t idx = static_cast<size_t>(it - cols.begin());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    out.push_back(table.row(r)[idx]);
  }
  return out;
}

TEST(TelemetryRunTest, CollectionDoesNotPerturbResults) {
  const ScenarioSpec spec = MustParse(kSpec);
  const std::string baseline =
      MustRenderRun(spec, RunOptions{1, "off", nullptr}, nullptr);
  for (const char* mode : {"summary", "profile"}) {
    for (const int threads : {1, 4}) {
      ExperimentTelemetry telemetry;
      const std::string got =
          MustRenderRun(spec, RunOptions{threads, mode, nullptr}, &telemetry);
      EXPECT_EQ(got, baseline) << "mode=" << mode << " threads=" << threads;
      EXPECT_FALSE(telemetry.summary.empty());
    }
  }
}

TEST(TelemetryRunTest, CountersAreThreadCountIndependent) {
  const ScenarioSpec spec = MustParse(kSpec);
  ExperimentTelemetry tel1, tel4;
  MustRenderRun(spec, RunOptions{1, "summary", nullptr}, &tel1);
  MustRenderRun(spec, RunOptions{4, "summary", nullptr}, &tel4);
  ASSERT_EQ(tel1.summary.size(), 1u);
  ASSERT_EQ(tel4.summary.size(), 1u);
  const CsvTable& t1 = tel1.summary[0].table;
  const CsvTable& t4 = tel4.summary[0].table;
  EXPECT_EQ(t1.columns(), t4.columns());
  EXPECT_EQ(t1.num_rows(), 2);  // one per sweep point
  // Everything except wall-clock timings is an exact, deterministic count.
  for (const char* col :
       {"lambda", "trials", "rounds", "plan_cache_hits", "plan_cache_rebuilds",
        "alive_bitmap_rebuilds", "rng_draws", "gossip_exchanges",
        "deposit_bytes", "early_stop_rounds"}) {
    EXPECT_EQ(Column(t1, col), Column(t4, col)) << "column " << col;
  }
  EXPECT_GT(Column(t1, "rng_draws")[0], 0);
  EXPECT_GT(Column(t1, "gossip_exchanges")[0], 0);
}

TEST(TelemetryRunTest, UnitsCarrySpansOnlyInProfileMode) {
  const ScenarioSpec spec = MustParse(kSpec);
  ExperimentTelemetry summary_tel, profile_tel;
  MustRenderRun(spec, RunOptions{2, "summary", nullptr}, &summary_tel);
  MustRenderRun(spec, RunOptions{2, "profile", nullptr}, &profile_tel);
  ASSERT_EQ(summary_tel.units.size(), 4u);  // 2 sweep x 2 trials
  ASSERT_EQ(profile_tel.units.size(), 4u);
  for (const auto& unit : summary_tel.units) {
    EXPECT_EQ(unit.rounds, 8);
    EXPECT_TRUE(unit.events.empty());
  }
  for (const auto& unit : profile_tel.units) {
    EXPECT_EQ(unit.rounds, 8);
    EXPECT_FALSE(unit.events.empty());
  }
}

TEST(TelemetryRunTest, OffModeCollectsNothing) {
  const ScenarioSpec spec = MustParse(kSpec);
  ExperimentTelemetry telemetry;
  MustRenderRun(spec, RunOptions{1, "", nullptr}, &telemetry);  // spec: off
  EXPECT_TRUE(telemetry.summary.empty());
  EXPECT_TRUE(telemetry.units.empty());
}

TEST(TelemetryRunTest, ProgressTickerReportsEveryUnit) {
  const ScenarioSpec spec = MustParse(kSpec);
  std::vector<int> done;
  int total = 0;
  RunOptions options;
  options.threads = 2;
  options.on_unit_done = [&](int d, int t) {
    done.push_back(d);
    total = t;
  };
  MustRenderRun(spec, options, nullptr);
  EXPECT_EQ(total, 4);
  ASSERT_EQ(done.size(), 4u);
  // Serialized under the executor mutex: monotonically increasing.
  EXPECT_TRUE(std::is_sorted(done.begin(), done.end()));
  EXPECT_EQ(done.back(), 4);
}

TEST(TelemetryValidationTest, RejectsBadTelemetryValue) {
  const auto specs = ParseScenarioFile("name = t\nprotocol = push-sum\n"
                                       "hosts = 16\ntelemetry = verbose\n");
  EXPECT_FALSE(specs.ok());
  EXPECT_NE(specs.status().message().find("telemetry"), std::string::npos);
}

TEST(TelemetryValidationTest, AcceptsTelemetryModes) {
  for (const char* mode : {"off", "summary", "profile"}) {
    const ScenarioSpec spec = MustParse(
        std::string("name = t\nprotocol = push-sum\nhosts = 16\n") +
        "telemetry = " + mode + "\n");
    EXPECT_EQ(spec.telemetry, mode);
    EXPECT_TRUE(ValidateExperiment(spec).ok());
  }
}

TEST(TelemetryValidationTest, SweptThreadsNeedThreadsCapableProtocol) {
  const std::string sweep = "sweep = intra_round_threads: 1, 2\n";
  const ScenarioSpec ok = MustParse(
      "name = t\nprotocol = push-sum\nprotocol.mode = push\nhosts = 16\n" +
      sweep);
  EXPECT_TRUE(ValidateExperiment(ok).ok());
  const ScenarioSpec bad = MustParse(
      "name = t\nprotocol = epoch-push-sum\nhosts = 16\n" + sweep);
  const Status st = ValidateExperiment(bad);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("intra_round_threads"), std::string::npos);
}

TEST(TelemetryValidationTest, SweptThreadsDoNotChangeMetrics) {
  // The kernel clamps intra_round_threads to the visible CPUs; force them
  // so the 2-thread point really splits the push loop on any host.
  WorkerPool::OverrideVisibleCpusForTest(4);
  // 5000 hosts: above the kernel's 4096-slot gate for a threaded round.
  const ScenarioSpec spec = MustParse(
      "name = t\nprotocol = push-sum\nprotocol.mode = push\nhosts = 5000\n"
      "rounds = 6\nseed = 7\nsweep = intra_round_threads: 1, 2\n"
      "record = rms_tail_mean\nrecord.from = 3\n");
  ExperimentTelemetry telemetry;
  Result<std::vector<ResultTable>> tables =
      RunExperiment(spec, RunOptions{1, "summary", nullptr}, &telemetry);
  WorkerPool::OverrideVisibleCpusForTest(0);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.num_rows(), 2);
  // Push-loop parallelism must be invisible in the recorded metric...
  EXPECT_EQ(Column(table, "rms_tail_mean")[0],
            Column(table, "rms_tail_mean")[1]);
  // ...and in the work counters: one payload per slot at any thread count.
  ASSERT_EQ(telemetry.summary.size(), 1u);
  const std::vector<double> deposit_bytes =
      Column(telemetry.summary[0].table, "deposit_bytes");
  ASSERT_EQ(deposit_bytes.size(), 2u);
  EXPECT_GT(deposit_bytes[0], 0);
  EXPECT_EQ(deposit_bytes[0], deposit_bytes[1]);
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
