// Recorder tests: the counter CDF pools across trials under aggregation,
// and the node-aggregator protocol drives the serialized facade correctly.
// The fig06, fig09 and tab_bandwidth ports are pinned by the
// bench_ports_small golden (bench/scenarios/golden/).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

CsvTable MustRun(const std::string& text, int threads) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ(specs->size(), 1u);
  Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], threads);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  EXPECT_EQ(tables->size(), 1u);
  return std::move((*tables)[0].table);
}

// Regression: the counter-CDF bucket structure must be seed-independent —
// the sparse-level skip rule is applied at assembly (to pooled counts under
// aggregation), so multi-trial aggregated runs cannot fail on borderline
// levels that only some trials would have kept.
TEST(RecorderParityTest, CounterCdfPoolsAcrossTrialsUnderAggregation) {
  const CsvTable table = MustRun(
      "name = fig06_agg\n"
      "protocol = count-sketch-reset\n"
      "protocol.cutoff_enabled = false\n"
      "hosts = 200\n"
      "rounds = 6\n"
      "trials = 3\n"
      "seed = 77\n"
      "record = cdf(counter)\n"
      "record.max_counter = 6\n"
      "aggregate = mean\n",
      3);
  ASSERT_GT(table.num_rows(), 0);
  // Pooled CDF per bit: monotone within each key group, 1 at the top.
  double prev = 0.0;
  double prev_bit = -1.0;
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    const double bit = table.row(i)[0];
    if (bit != prev_bit) {
      if (i > 0) {
        EXPECT_EQ(prev, 1.0) << "bit " << prev_bit;
      }
      prev = 0.0;
      prev_bit = bit;
    }
    EXPECT_GE(table.row(i)[2], prev);
    prev = table.row(i)[2];
  }
  EXPECT_EQ(prev, 1.0);
}

// ------------------------------------------- node-aggregator facade ---

TEST(NodeAggregatorProtocolTest, AverageConvergesOverWirePath) {
  const CsvTable table = MustRun(
      "name = facade\n"
      "protocol = node-aggregator\n"
      "protocol.lambda = 0.05\n"
      "protocol.bins = 16\n"
      "protocol.levels = 12\n"
      "hosts = 64\n"
      "rounds = 40\n"
      "seed = 7\n"
      "record = rms\n",
      1);
  ASSERT_EQ(table.num_rows(), 40);
  // The serialized exchanges must actually average: the RMS deviation from
  // the true average collapses by at least 5x over the run (reversion
  // leaves a lambda-dependent floor, so demand contraction, not zero).
  const double first = table.row(0)[1];
  const double last = table.row(table.num_rows() - 1)[1];
  EXPECT_LT(last, first / 5.0);
}

TEST(NodeAggregatorProtocolTest, CountAndSumMetricsTrackTruth) {
  const CsvTable count = MustRun(
      "name = facade_count\n"
      "protocol = node-aggregator\n"
      "protocol.metric = count\n"
      "hosts = 50\n"
      "rounds = 40\n"
      "seed = 11\n"
      "record = rms\n",
      1);
  // FM-sketch counting is coarse (64 bins ~ 10% expected error); the
  // final deviation must at least be well inside the trivial n-sized error.
  EXPECT_LT(count.row(count.num_rows() - 1)[1], 25.0);

  const CsvTable sum = MustRun(
      "name = facade_sum\n"
      "protocol = node-aggregator\n"
      "protocol.metric = sum\n"
      "hosts = 50\n"
      "rounds = 40\n"
      "seed = 11\n"
      "record = rms_tail_mean\n"
      "record.from = 30\n",
      1);
  ASSERT_EQ(sum.num_rows(), 1);
  EXPECT_GT(sum.row(0)[0], 0.0);
}

TEST(NodeAggregatorProtocolTest, BandwidthMeasuresSerializedPayloads) {
  const CsvTable table = MustRun(
      "name = facade_bw\n"
      "protocol = node-aggregator\n"
      "protocol.bins = 16\n"
      "protocol.levels = 12\n"
      "hosts = 32\n"
      "rounds = 6\n"
      "seed = 3\n"
      "record = bandwidth\n",
      1);
  ASSERT_EQ(table.num_rows(), 1);
  // Uniform full connectivity: every alive initiator completes one
  // request/reply exchange per round.
  EXPECT_EQ(table.row(0)[0], 2.0);
  // Each payload carries the 3-byte header, the 16-byte mass and the
  // serialized 16x12 counter array (plus its geometry framing), so the
  // per-host traffic must exceed 2 x 192 bytes and stay in the same order
  // of magnitude.
  EXPECT_GT(table.row(0)[1], 2.0 * 16 * 12);
  EXPECT_LT(table.row(0)[1], 4.0 * (16 * 12 + 64));
  // state_bytes: PSR mass (3 doubles) + counter array.
  EXPECT_EQ(table.row(0)[2], 3.0 * sizeof(double) + 16.0 * 12.0);
}

TEST(NodeAggregatorProtocolTest, DeterministicAcrossThreadCounts) {
  const char* text =
      "name = facade_det\n"
      "protocol = node-aggregator\n"
      "hosts = 40\n"
      "rounds = 10\n"
      "trials = 3\n"
      "seed = 21\n"
      "failure.kind = churn\n"
      "failure.death_prob = 0.02\n"
      "record = rms\n";
  const CsvTable serial = MustRun(text, 1);
  const CsvTable parallel = MustRun(text, 6);
  EXPECT_EQ(serial.ToCsv(), parallel.ToCsv());
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
