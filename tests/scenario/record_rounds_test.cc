// Which rounds the drivers evaluate: RoundIsRead's per-selector windows,
// the rounds driver and the async sampler skipping every unread round
// (visible as fewer kRecord spans, invisible in the recorded values), and
// the dry-run rejection of record.relative plans that leave no host alive.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "obs/telemetry.h"
#include "scenario/config.h"
#include "scenario/executor.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

ScenarioSpec MustParse(const std::string& text) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 1u);
  return (*specs)[0];
}

/// The rounds of a `rounds`-round run that RoundIsRead marks as read.
std::vector<int> ReadRounds(const MetricFlags& metrics,
                            const RecordConfig& cfg, int rounds) {
  std::vector<int> out;
  for (int r = 0; r < rounds; ++r) {
    if (RoundIsRead(metrics, cfg, rounds, r)) out.push_back(r);
  }
  return out;
}

std::vector<int> AllRounds(int rounds) {
  std::vector<int> out;
  for (int r = 0; r < rounds; ++r) out.push_back(r);
  return out;
}

TEST(RoundIsReadTest, EachSelectorReadsItsWindow) {
  constexpr int kRounds = 12;
  RecordConfig cfg;
  cfg.from = 4;
  cfg.every = 3;
  cfg.recovery_from = 9;

  MetricFlags rms;
  rms.rms = true;
  EXPECT_EQ(ReadRounds(rms, cfg, kRounds), (std::vector<int>{4, 7, 10}));

  MetricFlags tail;
  tail.tail_mean = true;
  EXPECT_EQ(ReadRounds(tail, cfg, kRounds),
            (std::vector<int>{4, 5, 6, 7, 8, 9, 10, 11}));

  MetricFlags final_rms;
  final_rms.final_rms = true;
  EXPECT_EQ(ReadRounds(final_rms, cfg, kRounds), (std::vector<int>{11}));

  MetricFlags rms_at;
  rms_at.rms_at = {1.0, 6.0};  // 1-based series x: rounds 0 and 5
  EXPECT_EQ(ReadRounds(rms_at, cfg, kRounds), (std::vector<int>{0, 5}));

  MetricFlags recovery;
  recovery.recovery = true;
  EXPECT_EQ(ReadRounds(recovery, cfg, kRounds),
            (std::vector<int>{9, 10, 11}));

  // Selectors read the union of their windows.
  MetricFlags both;
  both.rms = true;
  both.final_rms = true;
  EXPECT_EQ(ReadRounds(both, cfg, kRounds), (std::vector<int>{4, 7, 10, 11}));
}

TEST(RoundIsReadTest, ConvergenceRoundsBelowAndRelativeReadEveryRound) {
  constexpr int kRounds = 12;
  RecordConfig cfg;
  cfg.from = 8;

  MetricFlags convergence;
  convergence.convergence = true;
  EXPECT_EQ(ReadRounds(convergence, cfg, kRounds), AllRounds(kRounds));

  MetricFlags below;
  below.rounds_below = {0.5};
  EXPECT_EQ(ReadRounds(below, cfg, kRounds), AllRounds(kRounds));

  // record.relative widens even a narrow window to every round, so its
  // "truth is 0" check fires on the round the truth vanishes.
  MetricFlags final_rms;
  final_rms.final_rms = true;
  RecordConfig relative = cfg;
  relative.relative = true;
  EXPECT_EQ(ReadRounds(final_rms, relative, kRounds), AllRounds(kRounds));
}

TEST(RoundIsReadTest, NoRoundMetricReadsNoRound) {
  constexpr int kRounds = 6;
  MetricFlags none;
  none.bandwidth = true;
  none.final_error_cdf = true;
  none.gossip_bytes = true;
  none.rel_error_hosts = {0};
  none.final_error_quantiles = {0.5};
  RecordConfig relative;
  relative.relative = true;
  EXPECT_TRUE(ReadRounds(none, RecordConfig(), kRounds).empty());
  EXPECT_TRUE(ReadRounds(none, relative, kRounds).empty());
}

// ----------------------------------------------------- skip is exact ---

// A downsized push_1m: push-mode push-sum, the tail window over the last
// four of 40 rounds.
constexpr const char* kPushSpec = R"(name = skip
protocol = push-sum
protocol.mode = push
environment = uniform
hosts = 3000
rounds = 40
seed = 11
telemetry = summary
)";

int64_t RecordCalls(const ExperimentTelemetry& telemetry) {
  EXPECT_EQ(telemetry.units.size(), 1u);
  if (telemetry.units.empty()) return -1;
  return telemetry.units[0]
      .phase_calls[static_cast<int>(obs::Phase::kRecord)];
}

const CsvTable* FindTable(const std::vector<ResultTable>& tables,
                          const std::string& column) {
  for (const ResultTable& t : tables) {
    for (const std::string& c : t.table.columns()) {
      if (c == column) return &t.table;
    }
  }
  return nullptr;
}

TEST(RecordSkipTest, RoundsDriverEvaluatesOnlyTheTailWindow) {
  const ScenarioSpec tail_spec = MustParse(
      std::string(kPushSpec) + "record = rms_tail_mean\nrecord.from = 36\n");
  ExperimentTelemetry tail_tel;
  const auto tail_tables =
      RunExperiment(tail_spec, RunOptions{1, "", nullptr}, &tail_tel);
  ASSERT_TRUE(tail_tables.ok()) << tail_tables.status().ToString();
  // Four in-loop evaluations (rounds 36..39) plus the finalization span,
  // not one per round.
  EXPECT_EQ(RecordCalls(tail_tel), 4 + 1);

  const ScenarioSpec series_spec =
      MustParse(std::string(kPushSpec) + "record = rms\n");
  ExperimentTelemetry series_tel;
  const auto series_tables =
      RunExperiment(series_spec, RunOptions{1, "", nullptr}, &series_tel);
  ASSERT_TRUE(series_tables.ok()) << series_tables.status().ToString();
  EXPECT_EQ(RecordCalls(series_tel), 40 + 1);

  // The tail mean is bit-equal to the mean of the full series' rows from
  // round 37 (x = round index + 1) on, accumulated in the same order.
  const CsvTable* series = FindTable(*series_tables, "rms");
  const CsvTable* scalar = FindTable(*tail_tables, "rms_tail_mean");
  ASSERT_NE(series, nullptr);
  ASSERT_NE(scalar, nullptr);
  ASSERT_EQ(series->num_rows(), 40);
  ASSERT_EQ(scalar->num_rows(), 1);
  RunningStat expected;
  for (int64_t r = 0; r < series->num_rows(); ++r) {
    if (series->row(r)[0] >= 37.0) expected.Add(series->row(r)[1]);
  }
  EXPECT_EQ(expected.count(), 4);
  const std::vector<std::string>& cols = scalar->columns();
  const size_t idx = static_cast<size_t>(
      std::find(cols.begin(), cols.end(), "rms_tail_mean") - cols.begin());
  EXPECT_EQ(scalar->row(0)[idx], expected.mean());
}

TEST(RecordSkipTest, AsyncSamplerEvaluatesOnlyStridedSamples) {
  const ScenarioSpec spec = MustParse(R"(name = async_skip
driver = async
protocol = push-flow
hosts = 64
rounds = 40
seed = 99
gossip_period = 30
telemetry = summary
record = rms
record.every = 8
)");
  ExperimentTelemetry telemetry;
  const auto tables = RunExperiment(spec, RunOptions{1, "", nullptr},
                                    &telemetry);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  // Samples 0, 8, 16, 24, 32 plus the finalization span.
  EXPECT_EQ(RecordCalls(telemetry), 5 + 1);
  const CsvTable* series = FindTable(*tables, "rms");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->num_rows(), 5);
}

// ------------------------------------- relative plans with no survivor ---

constexpr const char* kKillAllSpec = R"(name = kill_all
protocol = push-sum
hosts = 200
rounds = 8
seed = 3
record = rms
record.relative = true
failure.kind = kill_random_fraction
failure.round = 3
)";

void ExpectNoSurvivorRejected(const std::string& text) {
  const Status st = ValidateExperiment(MustParse(text));
  EXPECT_FALSE(st.ok()) << "spec unexpectedly valid:\n" << text;
  EXPECT_NE(st.message().find("record.relative"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("failure.pin_alive"), std::string::npos)
      << st.message();
}

TEST(RelativeSurvivorTest, DryRunRejectsPlansThatKillEveryHost) {
  ExpectNoSurvivorRejected(std::string(kKillAllSpec) +
                           "failure.fraction = 1\n");
  // 0.998 * 200 + 0.5 rounds to all 200 hosts; 0.997 leaves one alive.
  ExpectNoSurvivorRejected(std::string(kKillAllSpec) +
                           "failure.fraction = 0.998\n");
  EXPECT_TRUE(ValidateExperiment(MustParse(std::string(kKillAllSpec) +
                                           "failure.fraction = 0.997\n"))
                  .ok());
  ExpectNoSurvivorRejected(
      "name = top\nprotocol = push-sum\nhosts = 50\nrounds = 6\n"
      "record = final_rms\nrecord.relative = true\n"
      "failure.kind = kill_top_fraction\nfailure.fraction = 1\n");
  ExpectNoSurvivorRejected(
      "name = churn\nprotocol = push-sum\nhosts = 50\nrounds = 6\n"
      "record = rms\nrecord.relative = true\nfailure.kind = churn\n"
      "failure.death_prob = 1\nfailure.start = 2\n");
  // Judged against the size the environment derives (hosts = 0): 0.996 of
  // the 100-host grid rounds to all 100 hosts.
  ExpectNoSurvivorRejected(
      "name = grid\nprotocol = push-sum\nenvironment = spatial\n"
      "env.width = 10\nenv.height = 10\nhosts = 0\nrounds = 8\n"
      "record = rms\nrecord.relative = true\n"
      "failure.kind = kill_random_fraction\nfailure.fraction = 0.996\n"
      "failure.round = 3\n");
  // Applied per swept variant: the base fraction is harmless.
  ExpectNoSurvivorRejected(std::string(kKillAllSpec) +
                           "failure.fraction = 0.5\n"
                           "sweep = failure.fraction: 0.25, 1\n");
  // A kill round past the last round never fires, and without a per-round
  // metric the truth is never divided by.
  EXPECT_TRUE(
      ValidateExperiment(
          MustParse("name = late\nprotocol = push-sum\nhosts = 50\n"
                    "rounds = 3\nrecord = rms\nrecord.relative = true\n"
                    "failure.kind = kill_random_fraction\n"
                    "failure.round = 3\nfailure.fraction = 1\n"))
          .ok());
  EXPECT_TRUE(
      ValidateExperiment(
          MustParse("name = bw\nprotocol = push-sum\nhosts = 50\n"
                    "record = bandwidth\nrecord.relative = true\n"
                    "failure.kind = kill_random_fraction\n"
                    "failure.fraction = 1\n"))
          .ok());
}

TEST(RelativeSurvivorTest, PinAliveKeepsThePlanValid) {
  const ScenarioSpec spec = MustParse(std::string(kKillAllSpec) +
                                      "failure.fraction = 1\n"
                                      "failure.pin_alive = 0\n");
  EXPECT_TRUE(ValidateExperiment(spec).ok());
  const auto tables = RunExperiment(spec, 1);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
}

TEST(RelativeSurvivorTest, RuntimeMessageUnchangedWhenChanceEmptiesThePlan) {
  // Churn on four hosts with no returns dies out by chance, which no
  // spec-only check can see: RunExperiment still reports the driver's own
  // round-numbered error.
  const ScenarioSpec spec = MustParse(
      "name = dies_out\nprotocol = push-sum\nhosts = 4\nrounds = 30\n"
      "seed = 5\nrecord = rms\nrecord.relative = true\n"
      "failure.kind = churn\nfailure.death_prob = 0.5\n"
      "failure.return_prob = 0\n");
  ASSERT_TRUE(ValidateExperiment(spec).ok());
  const auto tables = RunExperiment(spec, 1);
  ASSERT_FALSE(tables.ok());
  const std::string msg = tables.status().message();
  EXPECT_NE(msg.find("record.relative: the truth is 0 after round "),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find(", the relative error is undefined"), std::string::npos)
      << msg;
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
