// The churn.* spec family end to end: --dry-run must reject every
// driver/protocol/knob mismatch with a diagnostic naming the offense, a
// valid churned experiment must validate and run, and the run's output
// must be byte-identical at any executor thread count — the determinism
// contract extended to two-sided membership. The failure RNG stream's
// defaults and the failure.* number checks (no NaN, no int wrap) are
// pinned here too.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/config.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

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
        << "diagnostic '" << st.message() << "' does not mention '"
        << needle << "'";
  }
}

// A minimal valid churned experiment the rejection cases perturb.
constexpr const char* kChurnBase =
    "protocol = push-sum\n"
    "hosts = 32\n"
    "rounds = 20\n"
    "record = rms\n"
    "churn.initial = 16\n"
    "churn.arrival_rate = 1\n"
    "churn.death_prob = 0.02\n"
    "churn.rebirth_prob = 0.1\n";

TEST(ChurnSpecTest, ValidChurnSpecPassesDryRun) {
  const Status st = DryRun(kChurnBase);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// ------------------------------------------- driver/protocol mismatch ---

TEST(ChurnSpecTest, RejectsChurnUnderAsyncDriver) {
  ExpectDryRunError(
      "protocol = push-sum\nprotocol.mode = push\nhosts = 32\n"
      "driver = async\nrecord = final_rms\nchurn.death_prob = 0.02\n",
      "round-indexed");
}

TEST(ChurnSpecTest, RejectsChurnUnderTraceDriver) {
  ExpectDryRunError(
      "protocol = push-sum\ndriver = trace\nenvironment = haggle\n"
      "record = rms\nchurn.death_prob = 0.02\n",
      "rounds driver");
}

TEST(ChurnSpecTest, RejectsChurnOnWholeTrialRunner) {
  ExpectDryRunError(
      "protocol = tag-tree\nhosts = 32\nrecord = rms\n"
      "churn.death_prob = 0.02\n",
      "owns its whole trial loop");
}

TEST(ChurnSpecTest, RejectsChurnOnJoinIncapableProtocol) {
  // node-aggregator has no on_join reset hook; churn must fail loudly
  // instead of gossiping stale state into reborn hosts.
  ExpectDryRunError(
      "protocol = node-aggregator\nhosts = 32\nrecord = rms\n"
      "churn.death_prob = 0.02\n",
      "cannot admit hosts");
}

TEST(ChurnSpecTest, RejectsChurnCombinedWithFailureKind) {
  ExpectDryRunError(std::string(kChurnBase) +
                        "failure.kind = churn\nfailure.death_prob = 0.01\n",
                    "cannot be combined");
}

// --------------------------------------------------------- knob ranges ---

TEST(ChurnSpecTest, RejectsInitialExceedingHosts) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.initial = 33\n",
      "exceeds hosts");
}

TEST(ChurnSpecTest, RejectsMaxAliveExceedingHosts) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.arrival_rate = 1\nchurn.max_alive = 64\n",
      "exceeds hosts");
}

TEST(ChurnSpecTest, RejectsUnknownChurnKey) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.arrivalrate = 1\n",
      "churn.arrivalrate");
}

TEST(ChurnSpecTest, RejectsOutOfRangeProbabilities) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.death_prob = 1.5\n",
      "churn.death_prob");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.rebirth_prob = -0.1\n",
      "churn.rebirth_prob");
}

// NaN passes every range comparison, so each double key must reject it by
// name; an int key must reject what a cast to int would wrap
// (4294967297 = 2^32 + 1 would become 1).
TEST(ChurnSpecTest, RejectsNanDeathProb) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.death_prob = nan\n",
      "churn.death_prob");
}

TEST(ChurnSpecTest, RejectsNanRebirthProb) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.rebirth_prob = nan\n",
      "churn.rebirth_prob");
}

TEST(ChurnSpecTest, RejectsInitialThatWouldWrap) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.initial = 4294967297\n",
      "churn.initial");
}

TEST(ChurnSpecTest, RejectsWindowAndCapThatWouldWrap) {
  for (const std::string key : {"churn.start", "churn.end",
                                "churn.max_alive"}) {
    SCOPED_TRACE(key);
    ExpectDryRunError(std::string(kChurnBase) + key + " = 4294967297\n",
                      key);
  }
}

TEST(FailureSpecTest, RejectsNanKillFraction) {
  // Used to pass --dry-run and then abort the run inside the kill plan.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "failure.kind = kill_random_fraction\nfailure.fraction = nan\n",
      "failure.fraction");
}

TEST(FailureSpecTest, RejectsNanChurnRates) {
  for (const std::string key : {"failure.death_prob", "failure.return_factor",
                                "failure.return_prob"}) {
    SCOPED_TRACE(key);
    ExpectDryRunError(
        "protocol = push-sum\nhosts = 32\nrecord = rms\n"
        "failure.kind = churn\n" + key + " = nan\n",
        key);
  }
}

TEST(FailureSpecTest, RejectsRoundsAndHostThatWouldWrap) {
  for (const std::string key : {"failure.round", "failure.start",
                                "failure.end", "failure.pin_alive"}) {
    SCOPED_TRACE(key);
    ExpectDryRunError(
        "protocol = push-sum\nhosts = 32\nrecord = rms\n"
        "failure.kind = kill_random_fraction\n" +
            key + " = 4294967297\n",
        key);
  }
}

TEST(ChurnSpecTest, RejectsInvertedWindow) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrecord = rms\n"
      "churn.start = 10\nchurn.end = 5\n",
      "churn.end");
}

TEST(ChurnSpecTest, RejectsBadSweptChurnValue) {
  // The base spec validates; the swept value 2.0 lands out of range — the
  // per-variant dry-run pass must catch it.
  ExpectDryRunError(std::string(kChurnBase) +
                        "sweep = churn.death_prob: 0.01, 2.0\n",
                    "churn.death_prob");
}

// ----------------------------- static preflight of the rounds driver ---

TEST(ChurnSpecTest, RejectsUnknownSeedStreamStatically) {
  ExpectDryRunError(std::string(kChurnBase) + "seeds.bogus_stream = 4\n",
                    "seeds.bogus_stream");
}

TEST(ChurnSpecTest, RejectsEmptyTailWindowStatically) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrounds = 20\n"
      "record = rms_tail_mean\nrecord.from = 20\n",
      "leaves no rounds");
}

TEST(ChurnSpecTest, RejectsEmptyTailWindowUnderRoundsSweep) {
  // The base spec's window is fine at rounds = 40; the swept variant
  // rounds = 10 empties it.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 32\nrounds = 40\n"
      "record = rms_tail_mean\nrecord.from = 20\n"
      "sweep = rounds: 40, 10\n",
      "leaves no rounds");
}

TEST(ChurnSpecTest, RejectsDegreeNotBelowHostsStatically) {
  // random-graph needs `degree` distinct neighbors per host; the default
  // degree = 8 cannot fit in a 6-host universe. Used to hard-abort at
  // environment construction.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 6\nenvironment = random-graph\n"
      "record = rms\n",
      "must be below hosts");
}

// A hosts sweep leaves the base spec's hosts field a placeholder no unit
// executes with; validation judges each cell's own hosts instead (the
// ablation corpus specs rely on this).
TEST(ChurnSpecTest, HostsSweepSkipsThePlaceholderButChecksVariants) {
  EXPECT_TRUE(DryRun("protocol = push-sum\nrecord = rms\n"
                     "sweep = hosts: 1000, 10000\n")
                  .ok());
  EXPECT_TRUE(DryRun("protocol = push-sum\nenvironment = random-graph\n"
                     "record = rms\nsweep = hosts: 100, 1000\n")
                  .ok());
  // ...while a swept hosts value that breaks an env constraint still
  // fails: 6 hosts cannot hold the default degree-8 random graph.
  ExpectDryRunError(
      "protocol = push-sum\nenvironment = random-graph\n"
      "record = rms\nsweep = hosts: 100, 6\n",
      "must be below hosts");
  // churn.initial is judged against each swept hosts value, not the base
  // placeholder.
  EXPECT_TRUE(DryRun("protocol = push-sum\nrecord = rms\n"
                     "churn.initial = 50\nchurn.arrival_rate = 1\n"
                     "sweep = hosts: 100, 200\n")
                  .ok());
  ExpectDryRunError(
      "protocol = push-sum\nrecord = rms\n"
      "churn.initial = 50\nchurn.arrival_rate = 1\n"
      "sweep = hosts: 100, 20\n",
      "exceeds hosts");
}

// The churn bounds use the size the environment reports, not the spec's
// hosts field, which is 0 when the environment derives the size.
TEST(ChurnSpecTest, ChecksInitialAgainstTheEnvironmentsOwnSize) {
  const std::string grid =
      "protocol = push-sum\nhosts = 0\nrounds = 5\nrecord = rms\n"
      "environment = spatial\nenv.width = 10\nenv.height = 10\n";
  const std::string text = grid + "churn.initial = 50\n";
  EXPECT_TRUE(DryRun(text).ok()) << DryRun(text).ToString();
  const auto specs = ParseScenarioFile(text);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const Result<std::vector<ResultTable>> tables =
      RunExperiment((*specs)[0], /*threads=*/1);
  EXPECT_TRUE(tables.ok()) << tables.status().ToString();
  ExpectDryRunError(grid + "churn.initial = 101\n",
                    "exceeds hosts = 100 (environment 'spatial')");
  // Haggle dataset 1 has 9 devices.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 0\nrecord = rms\n"
      "environment = haggle\nchurn.max_alive = 10\n",
      "churn.max_alive = 10 exceeds hosts = 9 (environment 'haggle')");
  // A trace file's device count is known only once the file is read.
  const Status st = DryRun(
      "protocol = push-sum\nhosts = 0\nrecord = rms\n"
      "environment = crawdad\nenv.trace_file = contacts.txt\n"
      "churn.initial = 5\n");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("only once its trace file is read"),
            std::string::npos)
      << st.message();
  EXPECT_EQ(st.message().find("exceeds hosts = 0"), std::string::npos);
  // A hosts value the environment cannot build fails up front too.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 50\nrecord = rms\n"
      "environment = spatial\nenv.width = 10\nenv.height = 10\n",
      "hosts = 50 does not match the 100 hosts of environment 'spatial'");
}

// --------------------------------------------------------- determinism ---

TEST(ChurnSpecTest, ChurnedRunIsByteIdenticalAcrossThreads) {
  const std::string text = std::string("name = churn_det\n") + kChurnBase +
                           "trials = 3\nseed = 512\n"
                           "churn.max_alive = 28\n"
                           "sweep = churn.arrival_rate: 0.5, 2\n";
  const auto specs = ParseScenarioFile(text);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 1u);
  std::string rendered[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Result<std::vector<ResultTable>> tables =
        RunExperiment((*specs)[0], threads[i]);
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();
    Result<std::string> out = RenderTables(*tables, "churn_det", "csv");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    rendered[i] = *out;
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_NE(rendered[0].find("rms"), std::string::npos);
}

// ------------------------------------------------------ failure stream ---

Result<uint64_t> FailureStreamOf(const std::string& text) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  if (!specs.ok()) return specs.status();
  DYNAGG_ASSIGN_OR_RETURN(const FailureConfig cfg,
                          ParseFailureConfig((*specs)[0]));
  return FailureStream((*specs)[0], cfg);
}

TEST(FailureStreamTest, DefaultsToStreamTwoWithoutChurn) {
  const std::string kill =
      "protocol = push-sum\nhosts = 100\n"
      "failure.kind = kill_random_fraction\n"
      "failure.round = 5\nfailure.fraction = 0.5\n";
  const Result<uint64_t> stream = FailureStreamOf(kill);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(*stream, 2u);
  const Result<uint64_t> set =
      FailureStreamOf(kill + "seeds.failure_stream = 9\n");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(*set, 9u);
}

TEST(FailureStreamTest, ChurnDefaultsToDeathProbTimes1e5) {
  const Result<uint64_t> stream = FailureStreamOf(
      "protocol = push-sum\nhosts = 100\n"
      "failure.kind = churn\nfailure.death_prob = 0.0125\n");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(*stream, 1250u);
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
