// Recorder-era parity tests: the scenario ports of the retired bench
// binaries (fig06_counter_cdf, fig09_counting_failure, tab_bandwidth) must
// reproduce the legacy loops bit-identically, and the node-aggregator
// protocol must drive the serialized facade correctly. The replicas below
// are the exact code of the retired mains at reduced scale (same RNG
// streams, same call order).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/count_sketch.h"
#include "agg/count_sketch_reset.h"
#include "agg/full_transfer.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "common/stats.h"
#include "env/uniform_env.h"
#include "scenario/executor.h"
#include "scenario/spec.h"
#include "sim/bandwidth.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/round_driver.h"
#include "sim/workload.h"

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

// --------------------------------------- parity: fig06 counter CDF ---

TEST(RecorderParityTest, CounterCdfMatchesLegacyFig06Loop) {
  const int n = 300;
  const int rounds = 10;
  const int max_counter = 8;
  const uint64_t seed = 20090404;

  // Hand-rolled replica of bench/fig06_counter_cdf.cc RunOneSize().
  const std::vector<int64_t> ones(n, 1);
  CsrParams params;
  params.cutoff_enabled = false;
  CsrSwarm swarm(ones, params);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(DeriveSeed(seed, n));  // legacy: per-size round stream
  for (int round = 0; round < rounds; ++round) {
    swarm.RunRound(env, pop, rng);
  }
  const int levels = params.levels;
  std::vector<std::vector<int64_t>> histograms(
      levels, std::vector<int64_t>(max_counter + 1, 0));
  std::vector<int64_t> finite_totals(levels, 0);
  for (HostId id = 0; id < n; ++id) {
    for (int b = 0; b < params.bins; ++b) {
      for (int k = 0; k < levels; ++k) {
        const uint8_t c = swarm.counter(id, b, k);
        if (c == kCsrInfinity) continue;
        ++histograms[k][c <= max_counter ? c : max_counter];
        ++finite_totals[k];
      }
    }
  }
  std::vector<std::vector<double>> expected;  // bit, counter_value, cdf
  for (int k = 0; k < levels; ++k) {
    if (finite_totals[k] < n / 100 + 1) continue;
    int64_t cumulative = 0;
    for (int c = 0; c <= max_counter; ++c) {
      cumulative += histograms[k][c];
      expected.push_back({static_cast<double>(k), static_cast<double>(c),
                          static_cast<double>(cumulative) /
                              static_cast<double>(finite_totals[k])});
    }
  }
  ASSERT_FALSE(expected.empty());

  const CsvTable table = MustRun(
      "name = fig06_small\n"
      "protocol = count-sketch-reset\n"
      "protocol.cutoff_enabled = false\n"
      "hosts = 300\n"
      "rounds = 10\n"
      "seed = 20090404\n"
      "seeds.round_stream = hosts\n"
      "record = cdf(counter)\n"
      "record.max_counter = 8\n",
      1);
  ASSERT_EQ(table.columns().size(), 3u);
  EXPECT_EQ(table.columns()[0], "bit");
  EXPECT_EQ(table.columns()[1], "counter_value");
  EXPECT_EQ(table.columns()[2], "cdf");
  ASSERT_EQ(table.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    EXPECT_EQ(table.row(i)[0], expected[i][0]) << "row " << i;
    EXPECT_EQ(table.row(i)[1], expected[i][1]) << "row " << i;
    // Bit-identical: same pooling, same clamping, same division.
    EXPECT_EQ(table.row(i)[2], expected[i][2]) << "row " << i;
  }
}

// --------------------------------- parity: fig09 counting failure ---

TEST(RecorderParityTest, CountingUnderFailureMatchesLegacyFig09Loop) {
  const int n = 400;
  const int rounds = 12;
  const int fail_round = 5;
  const uint64_t seed = 20090403;

  // Hand-rolled replica of bench/fig09_counting_failure.cc Run().
  std::vector<std::vector<double>> expected;  // limiting, round, rms
  const std::vector<int64_t> ones(n, 1);
  for (const bool limiting : {true, false}) {
    CsrParams params;
    params.cutoff_enabled = limiting;
    CsrSwarm swarm(ones, params);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(DeriveSeed(seed, 1));
    Rng fail_rng(DeriveSeed(seed, 2));
    const FailurePlan failures =
        FailurePlan::KillRandomFraction(n, fail_round, 0.5, fail_rng);
    RunRounds(swarm, env, pop, failures, rounds, rng, [&](int round) {
      const double truth = pop.num_alive();
      const double rms = RmsDeviationOverAlive(
          pop, truth, [&](HostId id) { return swarm.EstimateCount(id); });
      expected.push_back(
          {limiting ? 1.0 : 0.0, static_cast<double>(round + 1), rms});
    });
  }

  const CsvTable table = MustRun(
      "name = fig09_small\n"
      "protocol = count-sketch-reset\n"
      "hosts = 400\n"
      "rounds = 12\n"
      "seed = 20090403\n"
      "sweep = protocol.cutoff_enabled: 1, 0\n"
      "failure.kind = kill_random_fraction\n"
      "failure.round = 5\n"
      "failure.fraction = 0.5\n"
      "record = rms\n",
      4);
  ASSERT_EQ(table.num_rows(), static_cast<int64_t>(expected.size()));
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    ASSERT_EQ(table.row(i).size(), 3u);
    EXPECT_EQ(table.row(i)[0], expected[i][0]) << "row " << i;
    EXPECT_EQ(table.row(i)[1], expected[i][1]) << "row " << i;
    EXPECT_EQ(table.row(i)[2], expected[i][2]) << "row " << i;
  }
}

// ------------------------------------- parity: bandwidth table ---

struct LegacyBandwidthRow {
  double msgs_per_host_round;
  double bytes_per_host_round;
  double state_bytes;
};

template <typename Swarm>
LegacyBandwidthRow LegacyMeasure(Swarm& swarm, int n, int rounds,
                                 double state, uint64_t seed) {
  // Hand-rolled replica of bench/tab_bandwidth.cc Measure().
  TrafficMeter meter;
  swarm.set_traffic_meter(&meter);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(DeriveSeed(seed, 1));
  for (int round = 0; round < rounds; ++round) {
    swarm.RunRound(env, pop, rng);
  }
  const double denom = static_cast<double>(n) * rounds;
  return {meter.total().messages / denom, meter.total().bytes / denom,
          state};
}

void ExpectBandwidthParity(const std::string& protocol_key,
                           const LegacyBandwidthRow& expected, int n,
                           int rounds, uint64_t seed) {
  const CsvTable table = MustRun(
      "name = bw\n"
      "protocol = " + protocol_key + "\n" +
      "hosts = " + std::to_string(n) + "\n" +
      "rounds = " + std::to_string(rounds) + "\n" +
      "seed = " + std::to_string(seed) + "\n" +
      "record = bandwidth\n",
      1);
  ASSERT_EQ(table.num_rows(), 1) << protocol_key;
  EXPECT_EQ(table.row(0)[0], expected.msgs_per_host_round) << protocol_key;
  EXPECT_EQ(table.row(0)[1], expected.bytes_per_host_round) << protocol_key;
  EXPECT_EQ(table.row(0)[2], expected.state_bytes) << protocol_key;
}

TEST(RecorderParityTest, BandwidthMatchesLegacyTabBandwidthLoop) {
  const int n = 200;
  const int rounds = 5;
  const uint64_t seed = 20090416;
  const std::vector<double> values = UniformWorkloadValues(n, seed);
  const std::vector<int64_t> ones(n, 1);

  {
    PushSumSwarm swarm(values, GossipMode::kPushPull);
    ExpectBandwidthParity(
        "push-sum",
        LegacyMeasure(swarm, n, rounds, 2.0 * sizeof(double), seed), n,
        rounds, seed);
  }
  {
    PushSumRevertSwarm swarm(
        values, {.lambda = 0.01, .mode = GossipMode::kPushPull});
    ExpectBandwidthParity(
        "push-sum-revert",
        LegacyMeasure(swarm, n, rounds, 3.0 * sizeof(double), seed), n,
        rounds, seed);
  }
  {
    FullTransferSwarm swarm(values,
                            {.lambda = 0.1, .parcels = 4, .window = 3});
    ExpectBandwidthParity(
        "full-transfer",
        LegacyMeasure(swarm, n, rounds, (2.0 + 2.0 * 3) * sizeof(double),
                      seed),
        n, rounds, seed);
  }
  {
    CountSketchSwarm swarm(ones, CountSketchParams{});
    ExpectBandwidthParity(
        "count-sketch",
        LegacyMeasure(swarm, n, rounds, 64.0 * sizeof(uint64_t), seed), n,
        rounds, seed);
  }
  {
    CsrSwarm swarm(ones, CsrParams{});
    ExpectBandwidthParity("count-sketch-reset",
                          LegacyMeasure(swarm, n, rounds, 64.0 * 24.0, seed),
                          n, rounds, seed);
  }
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
