// Scenario-level tests of the stream sketch protocols: byte-identical
// output across executor thread counts, telemetry modes and the round
// kernel's intra-round scatter threads; the workload.* dry-run validation
// contract (both directions: workload keys on non-consuming protocols,
// keyed-stream protocols without a workload); and end-to-end accuracy
// sanity — a wide sketch over a skewed stream must recover the true
// heavy hitters.

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

Status DryRun(const std::string& text) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  if (!specs.ok()) return specs.status();
  EXPECT_EQ(specs->size(), 1u);
  return ValidateExperiment((*specs)[0]);
}

void ExpectDryRunError(const std::string& text, const std::string& needle) {
  const Status st = DryRun(text);
  EXPECT_FALSE(st.ok()) << "spec unexpectedly valid:\n" << text;
  if (!st.ok()) {
    EXPECT_NE(st.message().find(needle), std::string::npos)
        << "diagnostic '" << st.message() << "' does not mention '" << needle
        << "'";
  }
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

// Small count-min grid: two skews x two trials, all hh record kinds.
constexpr const char* kCountMinSpec = R"(name = hh
protocol = count-min
hosts = 48
rounds = 10
trials = 2
seed = 7
workload.kind = zipf
workload.keys = 4096
workload.batch = 8
workload.rounds = 5
protocol.width = 32
protocol.depth = 2
sweep = workload.skew: 0.9, 1.3
record = hh_precision(8), hh_recall(8), hh_weighted_err(8), sketch_bytes, hh_frontier
)";

// ------------------------------------------------------- determinism ---

TEST(StreamScenarioTest, OutputIsByteIdenticalAcrossThreadsAndTelemetry) {
  const ScenarioSpec spec = MustParse(kCountMinSpec);
  const std::string baseline =
      MustRenderRun(spec, RunOptions{1, "off", nullptr}, nullptr);
  EXPECT_FALSE(baseline.empty());
  for (const char* mode : {"summary", "profile"}) {
    for (const int threads : {1, 4}) {
      ExperimentTelemetry telemetry;
      const std::string got =
          MustRenderRun(spec, RunOptions{threads, mode, nullptr}, &telemetry);
      EXPECT_EQ(got, baseline) << "mode=" << mode << " threads=" << threads;
    }
  }
}

TEST(StreamScenarioTest, IntraRoundScatterThreadsDoNotChangeOutput) {
  // The destination-sharded gather (each worker pulls the strides of one
  // contiguous host-id range) only engages above the kernel's sequential
  // cutoff (4096 slots), so this one needs a big population; the sketch
  // and key universe are kept tiny to compensate. The kernel also clamps
  // the thread count to the visible CPUs, so force 4 for the test's
  // lifetime to keep the sharded path under test on 1-CPU hosts.
  struct ScopedVisibleCpus {
    explicit ScopedVisibleCpus(int n) {
      WorkerPool::OverrideVisibleCpusForTest(n);
    }
    ~ScopedVisibleCpus() { WorkerPool::OverrideVisibleCpusForTest(0); }
  } forced(4);
  const std::string base = R"(name = hh_par
protocol = count-min
hosts = 6000
rounds = 4
seed = 11
workload.kind = zipf
workload.keys = 512
workload.batch = 4
protocol.width = 16
protocol.depth = 2
record = hh_frontier, hh_precision(4)
)";
  const ScenarioSpec seq = MustParse(base);
  const ScenarioSpec par = MustParse(base + "intra_round_threads = 4\n");
  const std::string a = MustRenderRun(seq, RunOptions{1, "off", nullptr},
                                      nullptr);
  const std::string b = MustRenderRun(par, RunOptions{1, "off", nullptr},
                                      nullptr);
  EXPECT_EQ(a, b);
}

TEST(StreamScenarioTest, TopKRecordsDoNotDependOnOtherSelectors) {
  // Each host ranks only up to the largest requested k; a smaller k in the
  // same spec must score exactly as it does alone.
  const std::string base = R"(name = topk
protocol = count-sketch-freq
hosts = 40
rounds = 8
seed = 21
workload.kind = zipf
workload.keys = 2048
workload.batch = 8
protocol.width = 64
protocol.depth = 3
)";
  const auto run = [&](const std::string& records) {
    const ScenarioSpec spec = MustParse(base + "record = " + records + "\n");
    Result<std::vector<ResultTable>> tables =
        RunExperiment(spec, RunOptions{1, "off", nullptr}, nullptr);
    EXPECT_TRUE(tables.ok()) << tables.status().ToString();
    return tables.ok() ? (*tables)[0].table : CsvTable({});
  };
  const CsvTable both =
      run("hh_precision(3), hh_recall(40), hh_precision(40)");
  const CsvTable small = run("hh_precision(3)");
  const CsvTable large = run("hh_recall(40)");
  EXPECT_EQ(Column(both, "hh_precision_3"), Column(small, "hh_precision_3"));
  EXPECT_EQ(Column(both, "hh_recall_40"), Column(large, "hh_recall_40"));
}

// -------------------------------------------------------- validation ---

TEST(StreamScenarioTest, RejectsHeavyHitterRecordsUnderMembershipChanges) {
  // hh_* records average over every host id, so dead and unborn hosts
  // would be scored too; the diagnostic names the offending key.
  const std::string base =
      "protocol = count-min\nhosts = 400\nworkload.kind = zipf\n";
  const std::string kill =
      "failure.kind = kill_random_fraction\nfailure.fraction = 0.5\n";
  ExpectDryRunError(base + kill + "record = hh_precision(8)\n",
                    "failure.kind");
  ExpectDryRunError(base + kill + "record = hh_frontier\n", "hh_frontier");
  ExpectDryRunError(
      base + "churn.initial = 300\nrecord = hh_weighted_err(4)\n",
      "churn.initial");
  ExpectDryRunError(
      base + "sweep = churn.arrival_rate: 0, 2\nrecord = hh_recall(4)\n",
      "churn.arrival_rate");
  // Host-independent and alive-only records stay valid under churn.
  EXPECT_TRUE(DryRun(base + kill + "record = rms, sketch_bytes\n").ok());
  EXPECT_TRUE(
      DryRun(base + "churn.initial = 300\nrecord = rms, sketch_bytes\n")
          .ok());
}

TEST(StreamScenarioTest, RejectsWorkloadKeysOnNonConsumingProtocol) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nworkload.kind = zipf\n",
      "workload.kind");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nseeds.workload_stream = 3\n",
      "seeds.workload_stream");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nsweep = workload.skew: 1, 2\n",
      "workload.skew");
}

TEST(StreamScenarioTest, RejectsStreamProtocolWithoutWorkloadKind) {
  ExpectDryRunError("protocol = count-min\nhosts = 16\n", "workload.kind");
  ExpectDryRunError("protocol = count-sketch-freq\nhosts = 16\n",
                    "workload.kind");
}

TEST(StreamScenarioTest, RejectsBadWorkloadAndSketchKnobs) {
  const std::string base =
      "protocol = count-min\nhosts = 16\nworkload.kind = zipf\n";
  // skew is a Zipf knob; setting it on a uniform stream is a typo.
  ExpectDryRunError(
      "protocol = count-min\nhosts = 16\nworkload.kind = uniform\n"
      "workload.skew = 1.1\n",
      "workload.skew");
  ExpectDryRunError(base + "protocol.width = 48\n", "power of two");
  ExpectDryRunError(base + "record = hh_precision(0)\n", "hh_precision");
  // Non-canonical top-k spellings would alias scalar column names.
  ExpectDryRunError(base + "record = hh_precision(08)\n", "plain");
  ExpectDryRunError(base + "workload.kind = sawtooth\n", "workload.kind");
  // The happy path validates.
  EXPECT_TRUE(DryRun(base).ok());
  EXPECT_TRUE(DryRun(base + "record = hh_precision(16), sketch_bytes\n").ok());
}

// ----------------------------------------------------------- accuracy ---

TEST(StreamScenarioTest, WideSketchRecoversTrueHeavyHitters) {
  // Wide count-min (near-exact for 2048 keys) + strongly skewed stream +
  // a gossip-only tail: every host's top-8 should align with the truth.
  const std::string spec_text = R"(name = hh_acc
protocol = count-min
hosts = 64
rounds = 24
seed = 5
workload.kind = zipf
workload.keys = 2048
workload.skew = 1.4
workload.batch = 16
workload.rounds = 8
protocol.width = 1024
protocol.depth = 4
record = hh_precision(8), hh_recall(8), hh_weighted_err(8)
)";
  const ScenarioSpec spec = MustParse(spec_text);
  Result<std::vector<ResultTable>> tables =
      RunExperiment(spec, RunOptions{1, "off", nullptr}, nullptr);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.num_rows(), 1);
  EXPECT_GE(Column(table, "hh_precision_8")[0], 0.9);
  EXPECT_GE(Column(table, "hh_recall_8")[0], 0.9);
  EXPECT_LE(Column(table, "hh_weighted_err_8")[0], 0.2);
}

TEST(StreamScenarioTest, CountSketchFreqRunsEndToEnd) {
  const std::string spec_text = R"(name = cs
protocol = count-sketch-freq
hosts = 32
rounds = 8
seed = 13
workload.kind = zipf
workload.keys = 1024
workload.batch = 8
protocol.width = 256
protocol.depth = 3
record = hh_precision(4), sketch_bytes, hh_frontier
)";
  const ScenarioSpec spec = MustParse(spec_text);
  Result<std::vector<ResultTable>> tables =
      RunExperiment(spec, RunOptions{2, "off", nullptr}, nullptr);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.num_rows(), 1);
  EXPECT_EQ(Column(table, "sketch_bytes")[0], 3 * 256 * 8.0);
  EXPECT_GE(Column(table, "hh_precision_4")[0], 0.0);
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
