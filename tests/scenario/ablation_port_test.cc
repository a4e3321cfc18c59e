// Parity tests for the eight ablation_* scenario ports. Each test
// replicates the exact code of the retired bench/ablation_*.cc main (same
// RNG streams, same call order, same derived statistics) at reduced scale
// and demands bit-identical values from the scenario engine, pinning the
// engine features the ports rely on: the sweepval* round-stream grammar,
// final_rms / rms_at / recovery_rounds / final_rel_error / gossip_bytes /
// counter_quantiles records, record.relative, workload multiplicities,
// random epoch phases, and the invert-average and extreme-recovery
// protocols.

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/count_sketch_reset.h"
#include "agg/epoch_push_sum.h"
#include "agg/extremes.h"
#include "agg/full_transfer.h"
#include "agg/invert_average.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "common/stats.h"
#include "env/spatial_env.h"
#include "env/uniform_env.h"
#include "scenario/executor.h"
#include "scenario/spec.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/round_driver.h"
#include "sim/workload.h"

namespace dynagg {
namespace scenario {
namespace {

// The parity replicas must generate the exact populations the engine does.
std::vector<double> UniformValues(int n, uint64_t seed) {
  return UniformWorkloadValues(n, seed);
}

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

double RmsOfSwarmEstimate(const Population& pop, double truth,
                          const std::function<double(HostId)>& estimate) {
  return RmsDeviationOverAlive(pop, truth, estimate);
}

// --------------------------------------- parity: adaptive reversion ---

TEST(AblationPortTest, AdaptiveLambdaMatchesLegacyLoop) {
  const int n = 1500;
  const int rounds = 60;
  const uint64_t seed = 20090409;
  const std::vector<double> lambdas = {0.01, 0.25};

  // Hand-rolled replica of the retired bench/ablation_adaptive_lambda.cc.
  const std::vector<double> values = UniformValues(n, seed);
  for (const bool adaptive : {false, true}) {
    std::vector<std::vector<double>> expected;  // floor, recovery per lambda
    for (const double lambda : lambdas) {
      PushSumRevertSwarm swarm(
          values,
          {.lambda = lambda,
           .mode = GossipMode::kPush,
           .revert = adaptive ? RevertMode::kAdaptive : RevertMode::kFixed});
      UniformEnvironment env(n);
      Population pop(n);
      Rng rng(DeriveSeed(seed, static_cast<uint64_t>(lambda * 1e4) +
                                   (adaptive ? 1 : 0)));
      const FailurePlan failures =
          FailurePlan::KillTopFraction(values, 20, 0.5);
      std::vector<double> series;
      RunRounds(swarm, env, pop, failures, rounds, rng, [&](int) {
        series.push_back(RmsOfSwarmEstimate(
            pop, TrueAverage(values, pop),
            [&](HostId id) { return swarm.Estimate(id); }));
      });
      const double floor = series.back();
      const std::vector<double> post(series.begin() + 20, series.end());
      const int rec = FirstSustainedBelow(post, 1.5 * floor + 0.25);
      expected.push_back({floor, static_cast<double>(rec)});
    }

    const CsvTable table = MustRun(
        std::string("name = adaptive_lambda_small\n"
                    "protocol = push-sum-revert\n"
                    "protocol.mode = push\n"
                    "hosts = 1500\n"
                    "rounds = 60\n"
                    "seed = 20090409\n"
                    "sweep = protocol.lambda: 0.01, 0.25\n"
                    "failure.kind = kill_top_fraction\n"
                    "failure.round = 20\n"
                    "failure.fraction = 0.5\n"
                    "record = final_rms, recovery_rounds(rms)\n"
                    "record.recovery_from = 20\n"
                    "record.recovery_mult = 1.5\n"
                    "record.recovery_add = 0.25\n") +
            (adaptive ? "protocol.revert = adaptive\n"
                        "seeds.round_stream = sweepval*10000+1\n"
                      : "protocol.revert = fixed\n"
                        "seeds.round_stream = sweepval*10000\n"),
        2);
    ASSERT_EQ(table.columns().size(), 3u);
    EXPECT_EQ(table.columns()[1], "final_rms");
    EXPECT_EQ(table.columns()[2], "recovery_rounds");
    ASSERT_EQ(table.num_rows(), 2);
    for (int64_t r = 0; r < 2; ++r) {
      EXPECT_EQ(table.row(r)[0], lambdas[r]);
      EXPECT_EQ(table.row(r)[1], expected[r][0])
          << "adaptive=" << adaptive << " row " << r;
      EXPECT_EQ(table.row(r)[2], expected[r][1])
          << "adaptive=" << adaptive << " row " << r;
    }
  }
}

// ------------------------------------------------- parity: CSR cutoff ---

TEST(AblationPortTest, CutoffMatchesLegacyLoop) {
  const int n = 1200;
  const int rounds = 50;
  const uint64_t seed = 20090410;
  const std::vector<double> bases = {4.0, 7.0};

  // Hand-rolled replica of the retired bench/ablation_cutoff.cc.
  std::vector<std::vector<double>> expected;  // pre, recovery, post
  const std::vector<int64_t> ones(n, 1);
  for (const double base : bases) {
    CsrParams params;
    params.cutoff_base = base;
    CsrSwarm swarm(ones, params);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(base * 10)));
    Rng fail_rng(DeriveSeed(seed, 999));
    const FailurePlan failures =
        FailurePlan::KillRandomFraction(n, 25, 0.5, fail_rng);
    double pre_error = 0.0;
    std::vector<double> post_series;
    RunRounds(swarm, env, pop, failures, rounds, rng, [&](int round) {
      const double truth = pop.num_alive();
      const double rms = RmsOfSwarmEstimate(
          pop, truth, [&](HostId id) { return swarm.EstimateCount(id); });
      if (round == 24) pre_error = rms / truth;
      if (round >= 25) post_series.push_back(rms / truth);
    });
    const double post_error = post_series.back();
    const int rec =
        FirstSustainedBelow(post_series, std::max(0.25, 2.0 * post_error));
    expected.push_back(
        {pre_error, static_cast<double>(rec), post_error});
  }

  const CsvTable table = MustRun(
      "name = cutoff_small\n"
      "protocol = count-sketch-reset\n"
      "hosts = 1200\n"
      "rounds = 50\n"
      "seed = 20090410\n"
      "sweep = protocol.cutoff_base: 4, 7\n"
      "seeds.round_stream = sweepval*10\n"
      "seeds.failure_stream = 999\n"
      "failure.kind = kill_random_fraction\n"
      "failure.round = 25\n"
      "failure.fraction = 0.5\n"
      "record = rms_at(25), final_rms, recovery_rounds(rms)\n"
      "record.relative = true\n"
      "record.recovery_from = 25\n"
      "record.recovery_mult = 2\n"
      "record.recovery_min = 0.25\n",
      2);
  ASSERT_EQ(table.columns().size(), 4u);
  EXPECT_EQ(table.columns()[1], "final_rms");
  EXPECT_EQ(table.columns()[2], "rms_at_25");
  EXPECT_EQ(table.columns()[3], "recovery_rounds");
  ASSERT_EQ(table.num_rows(), 2);
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(table.row(r)[0], bases[r]);
    EXPECT_EQ(table.row(r)[2], expected[r][0]) << "row " << r;
    EXPECT_EQ(table.row(r)[3], expected[r][1]) << "row " << r;
    EXPECT_EQ(table.row(r)[1], expected[r][2]) << "row " << r;
  }
}

// ----------------------------------------------- parity: epoch resets ---

// Replica of the retired bench/ablation_epoch.cc SteadyError().
template <typename Swarm>
double LegacySteadyError(Swarm& swarm, const std::vector<double>& values,
                         int n, int rounds, uint64_t seed) {
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(DeriveSeed(seed, 3));
  const FailurePlan failures =
      FailurePlan::KillTopFraction(values, rounds / 2, 0.5);
  RunningStat tail;
  RunRounds(swarm, env, pop, failures, rounds, rng, [&](int round) {
    if (round < rounds / 2 + 10) return;
    tail.Add(RmsOfSwarmEstimate(
        pop, TrueAverage(values, pop),
        [&](HostId id) { return swarm.Estimate(id); }));
  });
  return tail.mean();
}

TEST(AblationPortTest, EpochMatchesLegacyLoop) {
  const int n = 800;
  const int rounds = 60;
  const uint64_t seed = 20090413;
  const std::vector<double> epoch_lengths = {4.0, 16.0};
  const std::vector<double> values = UniformValues(n, seed);

  const std::string shared =
      "hosts = 800\n"
      "rounds = 60\n"
      "seed = 20090413\n"
      "seeds.round_stream = 3\n"
      "failure.kind = kill_top_fraction\n"
      "failure.round = 30\n"
      "failure.fraction = 0.5\n"
      "record = rms_tail_mean\n"
      "record.from = 40\n";

  for (const bool skewed : {false, true}) {
    std::vector<double> expected;
    for (const double epoch_length : epoch_lengths) {
      std::vector<int> phases(n, 0);
      if (skewed) {
        Rng prng(DeriveSeed(seed, 4));
        for (auto& p : phases) {
          p = static_cast<int>(
              prng.UniformInt(static_cast<uint64_t>(epoch_length)));
        }
      }
      EpochPushSumSwarm swarm(
          values, {.epoch_length = static_cast<int>(epoch_length)}, phases);
      expected.push_back(LegacySteadyError(swarm, values, n, rounds, seed));
    }
    const CsvTable table = MustRun(
        std::string("name = epoch_small\nprotocol = epoch-push-sum\n") +
            shared + "sweep = protocol.epoch_length: 4, 16\n" +
            (skewed ? "protocol.random_phases = true\n" : ""),
        2);
    ASSERT_EQ(table.num_rows(), 2);
    for (int64_t r = 0; r < 2; ++r) {
      EXPECT_EQ(table.row(r)[0], epoch_lengths[r]);
      EXPECT_EQ(table.row(r)[1], expected[r])
          << "skewed=" << skewed << " row " << r;
    }
  }

  // The Push-Sum-Revert reference points of the legacy table.
  std::vector<double> expected_psr;
  for (const double lambda : {0.01, 0.1}) {
    PushSumRevertSwarm swarm(
        values, {.lambda = lambda, .mode = GossipMode::kPushPull});
    expected_psr.push_back(LegacySteadyError(swarm, values, n, rounds, seed));
  }
  const CsvTable psr = MustRun(
      std::string("name = epoch_psr_small\nprotocol = push-sum-revert\n") +
          shared + "sweep = protocol.lambda: 0.01, 0.1\n",
      2);
  ASSERT_EQ(psr.num_rows(), 2);
  EXPECT_EQ(psr.row(0)[1], expected_psr[0]);
  EXPECT_EQ(psr.row(1)[1], expected_psr[1]);
}

// ------------------------------------------- parity: extreme cutoff ---

TEST(AblationPortTest, ExtremesMatchesLegacyLoop) {
  const int n = 1000;
  const uint64_t seed = 20090417;
  const std::vector<double> cutoffs = {0.0, 8.0, 16.0};

  // Hand-rolled replica of the retired bench/ablation_extremes.cc.
  std::vector<std::vector<double>> expected;  // correct, flicker, recover
  std::vector<double> values = UniformValues(n, seed);
  values[0] = 1000.0;
  const double runner_up = 999.0;
  values[1] = runner_up;
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  for (const double cutoff : cutoffs) {
    ExtremeParams params;
    params.cutoff = static_cast<int>(cutoff);
    DynamicExtremeSwarm swarm(values, keys, params);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(cutoff)));
    int correct = 0;
    int flickers = 0;
    int samples = 0;
    for (int round = 0; round < 40; ++round) {
      swarm.RunRound(env, pop, rng);
      if (round < 15) continue;
      for (HostId id = 0; id < n; id += 97) {
        ++samples;
        if (swarm.Estimate(id) == 1000.0) {
          ++correct;
        } else {
          ++flickers;
        }
      }
    }
    pop.Kill(0);
    int recover = -1;
    for (int round = 0; round < 100; ++round) {
      swarm.RunRound(env, pop, rng);
      int holding = 0;
      for (const HostId id : pop.alive_ids()) {
        if (swarm.Estimate(id) == runner_up) ++holding;
      }
      if (holding >= pop.num_alive() * 95 / 100) {
        recover = round + 1;
        break;
      }
    }
    expected.push_back({100.0 * correct / samples,
                        100.0 * flickers / samples,
                        static_cast<double>(recover)});
  }

  const CsvTable table = MustRun(
      "name = extremes_small\n"
      "protocol = extreme-recovery\n"
      "hosts = 1000\n"
      "seed = 20090417\n"
      "sweep = protocol.cutoff: 0, 8, 16\n"
      "seeds.round_stream = sweepval\n",
      2);
  ASSERT_EQ(table.columns().size(), 4u);
  EXPECT_EQ(table.columns()[1], "steady_correct_pct");
  EXPECT_EQ(table.columns()[2], "flicker_pct");
  EXPECT_EQ(table.columns()[3], "rounds_to_recover");
  ASSERT_EQ(table.num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(table.row(r)[0], cutoffs[r]);
    EXPECT_EQ(table.row(r)[1], expected[r][0]) << "row " << r;
    EXPECT_EQ(table.row(r)[2], expected[r][1]) << "row " << r;
    EXPECT_EQ(table.row(r)[3], expected[r][2]) << "row " << r;
  }
}

// --------------------------------------- parity: full-transfer knobs ---

TEST(AblationPortTest, FullTransferMatchesLegacyLoop) {
  const int n = 1200;
  const int rounds = 60;
  const uint64_t seed = 20090408;
  const std::vector<double> parcel_sweep = {1.0, 4.0};
  const std::vector<double> window_sweep = {3.0, 6.0};

  // Hand-rolled replica of the retired bench/ablation_full_transfer.cc.
  const std::vector<double> values = UniformValues(n, seed);
  std::vector<std::vector<double>> expected;  // floor, recovery per cell
  for (const double parcels : parcel_sweep) {
    for (const double window : window_sweep) {
      FullTransferSwarm swarm(
          values, {.lambda = 0.1,
                   .parcels = static_cast<int>(parcels),
                   .window = static_cast<int>(window)});
      UniformEnvironment env(n);
      Population pop(n);
      Rng rng(DeriveSeed(seed, static_cast<uint64_t>(parcels) * 100 +
                                   static_cast<uint64_t>(window)));
      const FailurePlan failures =
          FailurePlan::KillTopFraction(values, 20, 0.5);
      std::vector<double> series;
      RunRounds(swarm, env, pop, failures, rounds, rng, [&](int) {
        series.push_back(RmsOfSwarmEstimate(
            pop, TrueAverage(values, pop),
            [&](HostId id) { return swarm.Estimate(id); }));
      });
      const double floor = series.back();
      const std::vector<double> post(series.begin() + 20, series.end());
      const int rec = FirstSustainedBelow(post, 2.0 * floor + 0.25);
      expected.push_back({floor, static_cast<double>(rec)});
    }
  }

  const CsvTable table = MustRun(
      "name = full_transfer_small\n"
      "protocol = full-transfer\n"
      "protocol.lambda = 0.1\n"
      "hosts = 1200\n"
      "rounds = 60\n"
      "seed = 20090408\n"
      "sweep = protocol.parcels: 1, 4\n"
      "sweep2 = protocol.window: 3, 6\n"
      "seeds.round_stream = sweepval*100+sweep2val\n"
      "failure.kind = kill_top_fraction\n"
      "failure.round = 20\n"
      "failure.fraction = 0.5\n"
      "record = final_rms, recovery_rounds(rms)\n"
      "record.recovery_from = 20\n"
      "record.recovery_mult = 2\n"
      "record.recovery_add = 0.25\n",
      2);
  ASSERT_EQ(table.columns().size(), 4u);
  ASSERT_EQ(table.num_rows(), 4);
  for (int64_t r = 0; r < 4; ++r) {
    // Sweep-major, sweep2 inner — the legacy loop's nesting order.
    EXPECT_EQ(table.row(r)[0], parcel_sweep[r / 2]);
    EXPECT_EQ(table.row(r)[1], window_sweep[r % 2]);
    EXPECT_EQ(table.row(r)[2], expected[r][0]) << "row " << r;
    EXPECT_EQ(table.row(r)[3], expected[r][1]) << "row " << r;
  }
}

// -------------------------------------- parity: invert-average sums ---

TEST(AblationPortTest, InvertAverageMatchesLegacyLoop) {
  const int n = 800;
  const int rounds = 30;
  const uint64_t seed = 20090415;
  const std::vector<double> attr_sweep = {1.0, 4.0};

  // Hand-rolled replica of the retired bench/ablation_invert_average.cc.
  const std::vector<double> values = UniformValues(n, seed);
  std::vector<double> mi_expected;  // relative error per attribute count
  std::vector<double> ia_expected;
  for (const double attributes : attr_sweep) {
    std::vector<int64_t> mults(n);
    for (int i = 0; i < n; ++i) {
      mults[i] = static_cast<int64_t>(values[i] + 0.5);
    }
    CsrParams mi_params;
    CsrSwarm mi(mults, mi_params);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(attributes)));
    for (int round = 0; round < rounds; ++round) mi.RunRound(env, pop, rng);
    double truth = 0.0;
    for (int i = 0; i < n; ++i) truth += static_cast<double>(mults[i]);
    mi_expected.push_back(std::abs(mi.EstimateCount(0) - truth) / truth);

    InvertAverageParams ia_params;
    ia_params.psr.lambda = 0.01;
    InvertAverageSwarm ia(values, ia_params);
    Population pop2(n);
    Rng rng2(DeriveSeed(seed, 100 + static_cast<uint64_t>(attributes)));
    for (int round = 0; round < rounds; ++round) ia.RunRound(env, pop2, rng2);
    double true_sum = 0.0;
    for (const double v : values) true_sum += v;
    ia_expected.push_back(std::abs(ia.EstimateSum(0) - true_sum) / true_sum);
  }

  const std::string shared =
      "hosts = 800\n"
      "rounds = 30\n"
      "seed = 20090415\n"
      "sweep = protocol.attributes: 1, 4\n"
      "record = final_rel_error(0), gossip_bytes\n";
  const CsvTable mi_table = MustRun(
      std::string("name = mi_small\nprotocol = count-sketch-reset\n"
                  "protocol.multiplicity = workload\n"
                  "seeds.round_stream = sweepval\n") +
          shared,
      2);
  const CsvTable ia_table = MustRun(
      std::string("name = ia_small\nprotocol = invert-average\n"
                  "protocol.lambda = 0.01\n"
                  "seeds.round_stream = sweepval+100\n") +
          shared,
      2);
  ASSERT_EQ(mi_table.columns().size(), 3u);
  EXPECT_EQ(mi_table.columns()[1], "final_rel_error_0");
  EXPECT_EQ(mi_table.columns()[2], "gossip_bytes");
  ASSERT_EQ(mi_table.num_rows(), 2);
  ASSERT_EQ(ia_table.num_rows(), 2);
  for (int64_t r = 0; r < 2; ++r) {
    const double attributes = attr_sweep[r];
    EXPECT_EQ(mi_table.row(r)[1], mi_expected[r]) << "row " << r;
    EXPECT_EQ(ia_table.row(r)[1], ia_expected[r]) << "row " << r;
    // The legacy analytic byte model: one value-range sketch per attribute
    // vs one shared sketch plus two doubles of Push-Sum per attribute.
    const double csr_bytes = 2.0 * (64.0 * 24.0 + 8.0);
    EXPECT_EQ(mi_table.row(r)[2], attributes * csr_bytes) << "row " << r;
    EXPECT_EQ(ia_table.row(r)[2],
              csr_bytes + attributes * 2.0 * (2.0 * sizeof(double)))
        << "row " << r;
  }
}

// ------------------------------------------- parity: push vs pushpull ---

TEST(AblationPortTest, PushPullMatchesLegacyLoop) {
  const int n = 800;
  const uint64_t seed = 20090411;

  // Hand-rolled replicas of the retired bench/ablation_pushpull.cc.
  const std::vector<double> values = UniformValues(n, seed);
  const auto rounds_to_converge = [&](GossipMode mode) {
    PushSumSwarm swarm(values, mode);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(DeriveSeed(seed, 1));
    const double truth = TrueAverage(values, pop);
    for (int round = 0; round < 200; ++round) {
      swarm.RunRound(env, pop, rng);
      const double rms = RmsOfSwarmEstimate(
          pop, truth, [&](HostId id) { return swarm.Estimate(id); });
      if (rms < 1.0) return round + 1;
    }
    return -1;
  };
  const auto rounds_to_recover = [&](GossipMode mode) {
    PushSumRevertSwarm swarm(values, {.lambda = 0.1, .mode = mode});
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(DeriveSeed(seed, 2));
    const FailurePlan failures =
        FailurePlan::KillTopFraction(values, 20, 0.5);
    std::vector<double> post;
    RunRounds(swarm, env, pop, failures, 80, rng, [&](int round) {
      if (round < 20) return;
      post.push_back(RmsOfSwarmEstimate(
          pop, TrueAverage(values, pop),
          [&](HostId id) { return swarm.Estimate(id); }));
    });
    return FirstSustainedBelow(post, 1.5 * post.back() + 0.25);
  };

  for (const bool pushpull : {false, true}) {
    const GossipMode mode =
        pushpull ? GossipMode::kPushPull : GossipMode::kPush;
    const std::string mode_key =
        pushpull ? "protocol.mode = pushpull\n" : "protocol.mode = push\n";
    const CsvTable converge = MustRun(
        std::string("name = pp_converge_small\nprotocol = push-sum\n") +
            mode_key +
            "hosts = 800\n"
            "rounds = 200\n"
            "seed = 20090411\n"
            "seeds.round_stream = 1\n"
            "record = rounds_to_converge\n"
            "record.threshold = 1.0\n",
        1);
    ASSERT_EQ(converge.num_rows(), 1);
    EXPECT_EQ(converge.row(0)[0],
              static_cast<double>(rounds_to_converge(mode)))
        << "pushpull=" << pushpull;

    const CsvTable recover = MustRun(
        std::string("name = pp_recover_small\nprotocol = push-sum-revert\n"
                    "protocol.lambda = 0.1\n") +
            mode_key +
            "hosts = 800\n"
            "rounds = 80\n"
            "seed = 20090411\n"
            "seeds.round_stream = 2\n"
            "failure.kind = kill_top_fraction\n"
            "failure.round = 20\n"
            "failure.fraction = 0.5\n"
            "record = recovery_rounds(rms)\n"
            "record.recovery_from = 20\n"
            "record.recovery_mult = 1.5\n"
            "record.recovery_add = 0.25\n",
        1);
    ASSERT_EQ(recover.num_rows(), 1);
    EXPECT_EQ(recover.row(0)[0],
              static_cast<double>(rounds_to_recover(mode)))
        << "pushpull=" << pushpull;
  }
}

// --------------------------------------- parity: spatial propagation ---

// Replica of the retired bench/ablation_spatial.cc CounterQuantiles().
void LegacyCounterQuantiles(const CsrSwarm& swarm, int n,
                            std::vector<std::vector<double>>* rows) {
  const int levels = swarm.params().levels;
  for (int k = 0; k < levels; ++k) {
    Histogram hist(0, 64, 64);
    int64_t finite = 0;
    for (HostId id = 0; id < n; ++id) {
      for (int b = 0; b < swarm.params().bins; ++b) {
        const uint8_t c = swarm.counter(id, b, k);
        if (c == kCsrInfinity) continue;
        hist.Add(c);
        ++finite;
      }
    }
    if (finite < n / 50 + 1) continue;
    rows->push_back({static_cast<double>(k), hist.Quantile(0.5),
                     hist.Quantile(0.95), hist.Quantile(0.999)});
  }
}

TEST(AblationPortTest, SpatialMatchesLegacyLoop) {
  const int side = 20;
  const int n = side * side;
  const int rounds = 60;
  const uint64_t seed = 20090412;

  const std::vector<int64_t> ones(n, 1);
  CsrParams params;
  params.cutoff_enabled = false;
  std::vector<std::vector<double>> uniform_rows;
  {
    CsrSwarm swarm(ones, params);
    UniformEnvironment env(n);
    Population pop(n);
    Rng rng(DeriveSeed(seed, 1));
    for (int round = 0; round < rounds; ++round) {
      swarm.RunRound(env, pop, rng);
    }
    LegacyCounterQuantiles(swarm, n, &uniform_rows);
  }
  std::vector<std::vector<double>> spatial_rows;
  {
    CsrSwarm swarm(ones, params);
    SpatialGridEnvironment env(side, side);
    Population pop(n);
    Rng rng(DeriveSeed(seed, 2));
    for (int round = 0; round < rounds; ++round) {
      swarm.RunRound(env, pop, rng);
    }
    LegacyCounterQuantiles(swarm, n, &spatial_rows);
  }
  ASSERT_FALSE(uniform_rows.empty());
  ASSERT_FALSE(spatial_rows.empty());

  const std::string shared =
      "protocol = count-sketch-reset\n"
      "protocol.cutoff_enabled = false\n"
      "hosts = 400\n"
      "rounds = 60\n"
      "seed = 20090412\n"
      "record = counter_quantiles(0.5, 0.95, 0.999)\n";
  const CsvTable uniform_table = MustRun(
      std::string("name = spatial_u_small\nenvironment = uniform\n"
                  "seeds.round_stream = 1\n") +
          shared,
      1);
  const CsvTable spatial_table = MustRun(
      std::string("name = spatial_g_small\nenvironment = spatial\n"
                  "env.width = 20\nenv.height = 20\n"
                  "seeds.round_stream = 2\n") +
          shared,
      1);
  for (const bool is_spatial : {false, true}) {
    const CsvTable& table = is_spatial ? spatial_table : uniform_table;
    const std::vector<std::vector<double>>& rows =
        is_spatial ? spatial_rows : uniform_rows;
    ASSERT_EQ(table.columns().size(), 4u);
    EXPECT_EQ(table.columns()[0], "bit");
    EXPECT_EQ(table.columns()[1], "counter_p50");
    EXPECT_EQ(table.columns()[2], "counter_p95");
    EXPECT_EQ(table.columns()[3], "counter_p99.9");
    ASSERT_EQ(table.num_rows(), static_cast<int64_t>(rows.size()));
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      for (size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(table.row(r)[c], rows[r][c])
            << "spatial=" << is_spatial << " row " << r << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
