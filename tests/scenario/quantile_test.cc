// quantile(metric, q) record tests: spec grammar (paren-aware record
// lists), rounds-driver computation, executor merge (sweeps, trials,
// aggregation, thread-count determinism), sink rendering, and the
// intra_round_threads spec key's validation + determinism.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/push_sum_revert.h"
#include "common/stats.h"
#include "env/uniform_env.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/worker_pool.h"
#include "sim/workload.h"

namespace dynagg {
namespace scenario {
namespace {

Result<std::vector<ResultTable>> RunScenario(const std::string& text, int threads) {
  const auto specs = ParseScenarioFile(text);
  if (!specs.ok()) return specs.status();
  EXPECT_EQ(specs->size(), 1u);
  return RunExperiment((*specs)[0], threads);
}

// ------------------------------------------------------------ grammar ---

TEST(QuantileSpecTest, RecordListSplitsOnTopLevelCommasOnly) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "record = rms, quantile(final_error, 0.5), quantile(final_error,0.99)\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const auto& metrics = (*specs)[0].metrics;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].ToString(), "rms");
  // Argument spelling is normalized (spaces dropped) so duplicate
  // detection is whitespace-insensitive.
  EXPECT_EQ(metrics[1].ToString(), "quantile(final_error,0.5)");
  EXPECT_EQ(metrics[2].ToString(), "quantile(final_error,0.99)");
}

TEST(QuantileSpecTest, NormalizationCatchesSpacedDuplicates) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "record = quantile(final_error,0.5), quantile(final_error, 0.5)\n");
  EXPECT_FALSE(specs.ok());
}

TEST(QuantileSpecTest, UnmatchedParenIsAnError) {
  EXPECT_FALSE(ParseScenarioFile("protocol = push-sum\n"
                                 "record = quantile(final_error, 0.5\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = push-sum\n"
                                 "record = rms), cdf\n")
                   .ok());
}

TEST(QuantileSpecTest, BadQuantileArgsFailAtExecution) {
  for (const char* record :
       {"quantile(final_error)",          // missing q
        "quantile(rms, 0.5)",             // unsupported sample metric
        "quantile(final_error, 1.5)",     // q out of range
        "quantile(final_error, x)",       // not a number
        "quantile(final_error, nan)",     // strtod accepts it; we must not
        "quantile(final_error, 0.5, 1)",  // too many arguments
        // same quantile spelled differently: selector dedup cannot catch
        // it, the driver's parsed-q dedup must (as an error, not a crash)
        "quantile(final_error, 0.5), quantile(final_error, 0.50)"}
  ) {
    const auto result = RunScenario(std::string("protocol = push-sum\n"
                                        "hosts = 20\nrounds = 2\nrecord = ") +
                                record + "\n",
                            1);
    EXPECT_FALSE(result.ok()) << record;
  }
}

// -------------------------------------------------------- computation ---

TEST(QuantileRecordTest, MatchesHandRolledLoop) {
  const int n = 200;
  const int rounds = 15;
  const uint64_t seed = 321;

  // Hand-rolled replica of the rounds driver's trial.
  const std::vector<double> values = UniformWorkloadValues(n, seed);
  PushSumRevertSwarm swarm(values, PsrParams{.lambda = 0.01});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(DeriveSeed(seed, 1));
  for (int round = 0; round < rounds; ++round) {
    swarm.RunRound(env, pop, rng);
  }
  const double truth = TrueAverage(values, pop);
  std::vector<double> errors;
  for (HostId id = 0; id < n; ++id) {
    errors.push_back(std::abs(swarm.Estimate(id) - truth));
  }
  std::sort(errors.begin(), errors.end());

  const auto tables = RunScenario(
      "name = qparity\n"
      "protocol = push-sum-revert\n"
      "hosts = 200\n"
      "rounds = 15\n"
      "seed = 321\n"
      "record = quantile(final_error, 0.5), quantile(final_error, 0.9)\n",
      1);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.columns().size(), 2u);
  EXPECT_EQ(table.columns()[0], "final_error_p50");
  EXPECT_EQ(table.columns()[1], "final_error_p90");
  ASSERT_EQ(table.num_rows(), 1);
  EXPECT_EQ(table.row(0)[0], QuantileFromSorted(errors, 0.5));
  EXPECT_EQ(table.row(0)[1], QuantileFromSorted(errors, 0.9));
}

TEST(QuantileRecordTest, AggregatesAcrossTrialsAndSweeps) {
  const std::string text =
      "name = qagg\n"
      "protocol = push-sum-revert\n"
      "hosts = 60\n"
      "rounds = 8\n"
      "seed = 5\n"
      "trials = 3\n"
      "sweep = protocol.lambda: 0.01, 0.1\n"
      "record = quantile(final_error, 0.5)\n"
      "aggregate = mean, stddev\n";
  const auto tables = RunScenario(text, 1);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  const CsvTable& table = (*tables)[0].table;
  // lambda axis + p50 mean/stddev, one row per sweep value.
  ASSERT_EQ(table.columns().size(), 3u);
  EXPECT_EQ(table.columns()[0], "lambda");
  EXPECT_EQ(table.columns()[1], "final_error_p50_mean");
  EXPECT_EQ(table.columns()[2], "final_error_p50_stddev");
  ASSERT_EQ(table.num_rows(), 2);
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_GE(table.row(r)[1], 0.0);
    EXPECT_GT(table.row(r)[2], 0.0);  // real trial-to-trial spread
  }
}

TEST(QuantileRecordTest, ThreadCountDeterminism) {
  const std::string text =
      "name = qthreads\n"
      "protocol = push-sum\n"
      "hosts = 50\n"
      "rounds = 6\n"
      "seed = 77\n"
      "trials = 4\n"
      "record = rms, quantile(final_error, 0.25), quantile(final_error, 1)\n";
  const auto one = RunScenario(text, 1);
  const auto four = RunScenario(text, 4);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok());
  const auto csv1 = RenderTables(*one, "qthreads", "csv");
  const auto csv4 = RenderTables(*four, "qthreads", "csv");
  ASSERT_TRUE(csv1.ok());
  ASSERT_TRUE(csv4.ok());
  EXPECT_EQ(*csv1, *csv4);
}

// ---------------------------------------------------------- rendering ---

TEST(QuantileRecordTest, SinkRendersSummaryColumns) {
  const auto tables = RunScenario(
      "name = qsink\n"
      "protocol = push-sum\n"
      "hosts = 30\n"
      "rounds = 4\n"
      "seed = 3\n"
      "record = rms_tail_mean, quantile(final_error, 0.999)\n",
      1);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  const auto csv = RenderTables(*tables, "qsink", "csv");
  ASSERT_TRUE(csv.ok());
  EXPECT_NE(csv->find("rms_tail_mean,final_error_p99.9"), std::string::npos)
      << *csv;
  const auto jsonl = RenderTables(*tables, "qsink", "jsonl");
  ASSERT_TRUE(jsonl.ok());
  EXPECT_NE(jsonl->find("\"final_error_p99.9\""), std::string::npos)
      << *jsonl;
}

// ------------------------------------------------ intra_round_threads ---

TEST(IntraRoundThreadsTest, SpecKeyValidation) {
  EXPECT_FALSE(ParseScenarioFile("protocol = push-sum\n"
                                 "intra_round_threads = 0\n")
                   .ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = push-sum\n"
                                 "intra_round_threads = x\n")
                   .ok());
  const auto specs = ParseScenarioFile("protocol = push-sum\n"
                                       "intra_round_threads = 4\n");
  ASSERT_TRUE(specs.ok());
  EXPECT_EQ((*specs)[0].intra_round_threads, 4);
}

TEST(IntraRoundThreadsTest, CustomProtocolRejectedAtValidation) {
  const auto specs = ParseScenarioFile("protocol = tag-tree\n"
                                       "hosts = 20\n"
                                       "intra_round_threads = 2\n");
  ASSERT_TRUE(specs.ok());
  // tag-tree owns its whole trial loop; --dry-run (ValidateExperiment)
  // must reject the knob, not silently ignore it.
  EXPECT_FALSE(ValidateExperiment((*specs)[0]).ok());
}

TEST(IntraRoundThreadsTest, ExchangeOnlyProtocolRejectedAtValidation) {
  // count-sketch rounds are sequential pairwise merges with no
  // data-parallel apply phase; --dry-run must reject the knob statically
  // (Capability::kThreads), not first at execution.
  const auto specs = ParseScenarioFile("protocol = count-sketch\n"
                                       "hosts = 20\n"
                                       "intra_round_threads = 2\n");
  ASSERT_TRUE(specs.ok());
  EXPECT_FALSE(ValidateExperiment((*specs)[0]).ok());
  // ...while a push-scatter protocol passes.
  const auto ok_specs = ParseScenarioFile("protocol = push-sum\n"
                                          "hosts = 20\n"
                                          "intra_round_threads = 2\n");
  ASSERT_TRUE(ok_specs.ok());
  EXPECT_TRUE(ValidateExperiment((*ok_specs)[0]).ok());
}

/// Forces the sharded scatter on single-CPU CI hosts (the kernel clamps
/// intra_round_threads to the visible CPUs otherwise); restored on scope
/// exit even when an ASSERT bails out of the test early.
class ScopedVisibleCpus {
 public:
  explicit ScopedVisibleCpus(int n) { WorkerPool::OverrideVisibleCpusForTest(n); }
  ~ScopedVisibleCpus() { WorkerPool::OverrideVisibleCpusForTest(0); }
};

TEST(IntraRoundThreadsTest, OutputBitIdenticalToSequential) {
  // This also runs the worker pool nested under the executor's trial
  // threads — the production shape.
  const ScopedVisibleCpus forced(4);
  const std::string base =
      "name = scatter\n"
      "protocol = push-sum-revert\n"
      "protocol.mode = push\n"
      "hosts = 5000\n"  // above the kernel's parallel-slots gate
      "rounds = 5\n"
      "seed = 11\n"
      "record = rms, quantile(final_error, 0.5)\n";
  const auto seq = RunScenario(base + "intra_round_threads = 1\n", 1);
  const auto par = RunScenario(base + "intra_round_threads = 4\n", 1);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  const auto csv_seq = RenderTables(*seq, "scatter", "csv");
  const auto csv_par = RenderTables(*par, "scatter", "csv");
  ASSERT_TRUE(csv_seq.ok());
  ASSERT_TRUE(csv_par.ok());
  EXPECT_EQ(*csv_seq, *csv_par);
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
