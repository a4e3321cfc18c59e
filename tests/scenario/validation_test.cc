// Dry-run validation error paths: ValidateExperiment (the whole backing of
// `dynagg_run --dry-run`) must reject knob/protocol mismatches, malformed
// derived-record arguments and driver-incompatible keys up front — without
// building environments or swarms — and the diagnostics must name the
// offending key or selector.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/spec.h"

namespace dynagg {
namespace scenario {
namespace {

/// Parses a single-experiment scenario text and returns its dry-run
/// verdict (parse errors fail the test — these cases target validation).
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

const char kAsyncBase[] =
    "driver = async\nprotocol = push-flow\nenvironment = uniform\n"
    "hosts = 20\n";

// ------------------------------------------------ protocol knob paths ---

TEST(DryRunValidationTest, RejectsUnknownGossipMode) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nprotocol.mode = pull\n",
      "protocol.mode must be push or pushpull");
}

TEST(DryRunValidationTest, RejectsRevertOnProtocolWithoutReversion) {
  // push-sum has no reversion machinery; the knob must fail loudly instead
  // of being silently ignored.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nprotocol.revert = adaptive\n",
      "protocol.revert");
  // ...while the same key validates on push-sum-revert.
  EXPECT_TRUE(DryRun("protocol = push-sum-revert\nhosts = 16\n"
                     "protocol.revert = adaptive\n")
                  .ok());
}

TEST(DryRunValidationTest, RejectsUnknownRevertValue) {
  ExpectDryRunError(
      "protocol = push-sum-revert\nhosts = 16\nprotocol.revert = maybe\n",
      "protocol.revert must be fixed or adaptive");
}

TEST(DryRunValidationTest, RejectsOutOfRangeKnobs) {
  ExpectDryRunError(
      "protocol = epoch-push-sum\nhosts = 16\nprotocol.epoch_length = 0\n",
      "protocol.epoch_length");
  ExpectDryRunError(
      "protocol = full-transfer\nhosts = 16\nprotocol.parcels = 0\n",
      "protocol.parcels");
  ExpectDryRunError(
      "protocol = extreme-recovery\nhosts = 16\n"
      "protocol.recover_pct = 101\n",
      "protocol.recover_pct");
  // Each of these used to pass --dry-run and then abort the run on an
  // internal check, run with a wrapped value, or never finish.
  const struct {
    const char* spec;
    const char* key;
  } kProbes[] = {
      {"protocol = push-sum-revert\nprotocol.lambda = nan\n",
       "protocol.lambda"},
      {"protocol = push-sum-revert\nprotocol.lambda = -5\n",
       "protocol.lambda"},
      {"protocol = push-sum-revert\nprotocol.lambda = 1e300\n",
       "protocol.lambda"},
      {"protocol = push-sum-revert\nsweep = protocol.lambda: 0.1, 2\n",
       "protocol.lambda"},
      {"protocol = full-transfer\nprotocol.lambda = 1.5\n",
       "protocol.lambda"},
      {"protocol = count-min\nworkload.kind = zipf\nworkload.skew = nan\n",
       "workload.skew"},
      {"protocol = count-min\nworkload.kind = zipf\n"
       "protocol.epsilon = nan\n",
       "protocol.epsilon"},
      {"protocol = push-sum-revert\nhosts = 0\nenvironment = haggle\n"
       "env.group_window_minutes = nan\n",
       "env.group_window_minutes"},
      {"protocol = push-sum-revert\nhosts = 0\nenvironment = haggle\n"
       "env.group_window_minutes = -5\n",
       "env.group_window_minutes"},
      {"protocol = count-sketch-reset\nrecord = counter_quantiles(0.5)\n"
       "record.counter_hist_max = nan\n",
       "record.counter_hist_max"},
      {"protocol = full-transfer\nprotocol.parcels = 4294967297\n",
       "protocol.parcels"},
      {"protocol = count-sketch\nprotocol.bins = 4294967297\n",
       "protocol.bins"},
      {"protocol = epoch-push-sum\nprotocol.epoch_length = 4294967297\n",
       "protocol.epoch_length"},
      {"protocol = push-sum\nhosts = 0\nenvironment = spatial\n"
       "env.width = 4294967297\nenv.height = 4\n",
       "env.width"},
      {"protocol = count-sketch-reset\nprotocol.cutoff_base = nan\n",
       "protocol.cutoff_base"},
      {"protocol = count-sketch\nprotocol.multiplicity = 4294967297\n",
       "protocol.multiplicity"},
      {"protocol = count-sketch-reset\nrecord = cdf(counter)\n"
       "record.max_counter = 0\n",
       "record.max_counter"},
      // Aborted --dry-run itself, deriving the sketch width.
      {"protocol = count-sketch-freq\nworkload.kind = zipf\n"
       "protocol.epsilon = 1e-5\n",
       "protocol.epsilon"},
      {"protocol = fm-accuracy\nprotocol.levels = 65\n", "protocol.levels"},
  };
  for (const auto& probe : kProbes) {
    SCOPED_TRACE(probe.spec);
    const std::string text =
        std::string(probe.spec).find("hosts") == std::string::npos
            ? std::string("hosts = 16\n") + probe.spec
            : probe.spec;
    ExpectDryRunError(text, probe.key);
  }
}

// The swarm's whole state (StreamSketchSwarm::StateBytes: every host's
// stride plus the rotating spare blocks) is checked against its cap from
// the cell's hosts, so a shape that fits per host but not per swarm fails
// --dry-run instead of the run.
TEST(DryRunValidationTest, RejectsStreamStateAboveTheCap) {
  const std::string spec =
      "protocol = count-min\nprotocol.width = 1048576\nprotocol.depth = 4\n"
      "workload.kind = zipf\nrecord = sketch_bytes\n";
  ExpectDryRunError("hosts = 1000\n" + spec, "stream swarm state");
  ExpectDryRunError("hosts = 16\nsweep = hosts: 16, 1000\n" + spec,
                    "stream swarm state");
  EXPECT_TRUE(DryRun("hosts = 16\n" + spec).ok());
}

TEST(DryRunValidationTest, RejectsConflictingEpochPhaseKnobs) {
  ExpectDryRunError(
      "protocol = epoch-push-sum\nhosts = 16\n"
      "protocol.phase_spread = 2\nprotocol.random_phases = true\n",
      "protocol.random_phases and protocol.phase_spread");
}

TEST(DryRunValidationTest, RejectsBadKnobValueInSweep) {
  // The base spec is fine; the swept value -1 lands in a validated knob.
  ExpectDryRunError(
      "protocol = full-transfer\nhosts = 16\n"
      "sweep = protocol.parcels: 4, -1\n",
      "protocol.parcels");
}

TEST(DryRunValidationTest, RejectsSweptIntKeyAboveIntMax) {
  // 2^32 + 32 used to wrap to 32 hosts through the int cast.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nsweep = hosts: 16, 4294967328\n",
      "sweep over hosts");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nsweep = rounds: 3, 4294967299\n",
      "sweep over rounds");
}

TEST(DryRunValidationTest, RejectsWorkloadMultiplicityUnderTrace) {
  ExpectDryRunError(
      "protocol = count-sketch-reset\ndriver = trace\n"
      "environment = haggle\nrecord = rms\n"
      "protocol.multiplicity = workload\n",
      "protocol.multiplicity");
}

// --------------------------------------------- derived-record grammar ---

TEST(DryRunValidationTest, RejectsMalformedRoundsBelowThreshold) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\n"
      "record = rounds_below(rms, banana)\n",
      "rounds_below(rms, T)");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rounds_below(rms)\n",
      "rounds_below(rms, T)");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\n"
      "record = rounds_below(final_error, 1.0)\n",
      "rounds_below(rms, T)");
  EXPECT_TRUE(DryRun("protocol = push-sum\nhosts = 16\n"
                     "record = rounds_below(rms, 1.5)\n")
                  .ok());
}

TEST(DryRunValidationTest, RejectsMalformedRmsAtAndRelErrorArgs) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms_at(0)\n", "rms_at");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms_at(2.5)\n", "rms_at");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = final_rel_error(-1)\n",
      "final_rel_error");
  // Past int: the window check cast 1e300 to int, and the host id wrapped
  // to 1 and ran.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms_at(1e300)\n",
      "rms_at(R)");
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\n"
      "record = final_rel_error(4294967297)\n",
      "final_rel_error(H)");
}

TEST(DryRunValidationTest, RejectsRecoveryRoundsOnForeignSeries) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = recovery_rounds(bytes)\n",
      "recovery_rounds");
}

TEST(DryRunValidationTest, RejectsUnknownRecordKnob) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms\n"
      "record.recovery_mutl = 2\n",
      "record.recovery_mutl");
}

TEST(DryRunValidationTest, RejectsCounterQuantilesOutsideUnitInterval) {
  ExpectDryRunError(
      "protocol = count-sketch-reset\nhosts = 16\n"
      "record = counter_quantiles(0.5, 1.5)\n",
      "counter_quantiles");
  // ...and the selector is CSR-only: push-sum has no counters.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\n"
      "record = counter_quantiles(0.5)\n",
      "counter_quantiles");
}

// Each selector and record.* key is allowed by the parse that reads it:
// the driver's record parse, and the protocol's under driver = rounds
// only. Whatever no parse reads fails --dry-run, naming it and listing what
// the cell's parses read.
TEST(DryRunValidationTest, RejectsSelectorsAndRecordKeysNoParseReads) {
  const struct {
    const char* spec;
    const char* needle;
  } kProbes[] = {
      {"protocol = push-sum\nrecord = cdf(counter)\n", "'cdf(counter)'"},
      {"protocol = count-sketch-reset\ndriver = trace\nhosts = 0\n"
       "environment = haggle\nrecord = cdf(counter)\n",
       "'cdf(counter)'"},
      {"protocol = push-flow\ndriver = async\nrecord.threshold = 2\n",
       "'record.threshold'"},
      {"protocol = count-sketch-reset\nrecord = hh_precision(4)\n",
       "'hh_precision(4)'"},
      {"protocol = push-sum\nrecord = delivery_rate\n", "'delivery_rate'"},
  };
  for (const auto& probe : kProbes) {
    SCOPED_TRACE(probe.spec);
    const std::string text =
        std::string(probe.spec).find("hosts") == std::string::npos
            ? std::string("hosts = 16\n") + probe.spec
            : probe.spec;
    ExpectDryRunError(text, probe.needle);
    ExpectDryRunError(text, "(allowed: ");
  }
  // The same selectors and keys where a parse reads them.
  EXPECT_TRUE(DryRun("protocol = count-sketch-reset\nhosts = 16\n"
                     "record = cdf(counter)\n")
                  .ok());
  EXPECT_TRUE(DryRun("protocol = push-flow\ndriver = async\nhosts = 16\n"
                     "record = delivery_rate\nrecord.from = 2\n")
                  .ok());
}

// counter_quantiles(...) is a series over bits and rms one over rounds; an
// experiment renders one series table, so the pair used to pass --dry-run
// and fail once the trial ran (found by the fuzzer's record mutation).
TEST(DryRunValidationTest, RejectsCounterQuantilesBesideRms) {
  ExpectDryRunError(
      "protocol = count-sketch-reset\nhosts = 16\n"
      "record = rms, counter_quantiles(0.5)\n",
      "counter_quantiles");
  EXPECT_TRUE(DryRun("protocol = count-sketch-reset\nhosts = 16\n"
                     "record = final_rms, counter_quantiles(0.5)\n")
                  .ok());
}

// ------------------------------------------- driver-compatibility paths ---

TEST(DryRunValidationTest, RejectsGossipBytesOnProtocolWithoutModel) {
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = gossip_bytes\n",
      "gossip_bytes");
  EXPECT_TRUE(DryRun("protocol = invert-average\nhosts = 16\n"
                     "record = gossip_bytes\n")
                  .ok());
  EXPECT_TRUE(DryRun("protocol = count-sketch-reset\nhosts = 16\n"
                     "record = gossip_bytes\n")
                  .ok());
}

// The rounds driver measures `record = bandwidth` through the swarm's
// traffic meter. Protocols whose swarm has none (no `metered`
// capability) fail --dry-run with the message execution would give.
constexpr char kNoBandwidth[] = "does not support the bandwidth metric";

TEST(DryRunValidationTest, RejectsBandwidthOnExtremes) {
  ExpectDryRunError("protocol = extremes\nhosts = 16\nrecord = bandwidth\n",
                    kNoBandwidth);
}

TEST(DryRunValidationTest, RejectsBandwidthOnEpochPushSum) {
  ExpectDryRunError(
      "protocol = epoch-push-sum\nhosts = 16\nrecord = bandwidth\n",
      kNoBandwidth);
}

TEST(DryRunValidationTest, RejectsBandwidthOnInvertAverage) {
  ExpectDryRunError(
      "protocol = invert-average\nhosts = 16\nrecord = bandwidth\n",
      kNoBandwidth);
  // The metered protocols keep accepting it.
  EXPECT_TRUE(
      DryRun("protocol = push-sum\nhosts = 16\nrecord = bandwidth\n").ok());
}

// failure.kind = kill_top_fraction kills the hosts with the largest
// values; protocols without per-host values (no `value-backed`
// capability) fail --dry-run with the message execution would give.
constexpr char kNoValues[] =
    "failure.kind = kill_top_fraction requires a value-based protocol";

TEST(DryRunValidationTest, RejectsKillTopFractionOnCountSketch) {
  ExpectDryRunError(
      "protocol = count-sketch\nhosts = 16\n"
      "failure.kind = kill_top_fraction\n",
      kNoValues);
}

TEST(DryRunValidationTest, RejectsKillTopFractionOnCountSketchReset) {
  ExpectDryRunError(
      "protocol = count-sketch-reset\nhosts = 16\n"
      "failure.kind = kill_top_fraction\n",
      kNoValues);
}

TEST(DryRunValidationTest, RejectsKillTopFractionOnCountMin) {
  ExpectDryRunError(
      "protocol = count-min\nhosts = 16\nworkload.kind = zipf\n"
      "failure.kind = kill_top_fraction\n",
      kNoValues);
}

TEST(DryRunValidationTest, RejectsKillTopFractionOnCountSketchFreq) {
  ExpectDryRunError(
      "protocol = count-sketch-freq\nhosts = 16\nworkload.kind = zipf\n"
      "failure.kind = kill_top_fraction\n",
      kNoValues);
  // The value-backed protocols keep accepting it.
  EXPECT_TRUE(DryRun("protocol = push-sum-revert\nhosts = 16\n"
                     "failure.kind = kill_top_fraction\n")
                  .ok());
}

TEST(DryRunValidationTest, RejectsFailurePlanKeysOnTraceDriver) {
  ExpectDryRunError(
      "protocol = push-sum-revert\ndriver = trace\nenvironment = haggle\n"
      "record = rms\nfailure.kind = churn\nfailure.death_prob = 0.01\n",
      "failure.");
}

// The trace driver reads no record.* knob and derives only the gossip
// stream; both used to pass --dry-run and fail once the trial ran.
TEST(DryRunValidationTest, RejectsRecordKeysOnTraceDriver) {
  ExpectDryRunError(
      "protocol = push-sum-revert\ndriver = trace\nenvironment = haggle\n"
      "record = rms\nrecord.from = 1\n",
      "record.from");
}

TEST(DryRunValidationTest, RejectsUnusedSeedStreamsOnTraceDriver) {
  ExpectDryRunError(
      "protocol = push-sum-revert\ndriver = trace\nenvironment = haggle\n"
      "record = rms\nseeds.failure_stream = 3\n",
      "seeds.failure_stream");
}

TEST(DryRunValidationTest, RejectsRoundMetricsOnTraceDriver) {
  ExpectDryRunError(
      "protocol = push-sum-revert\ndriver = trace\nenvironment = haggle\n"
      "record = rms_tail_mean\n",
      "rms_tail_mean");
}

// Every seeds.* stream expression resolves per cell at dry-run, against
// the cell's own sweep index and value.
TEST(DryRunValidationTest, ResolvesSeedStreamsPerCell) {
  const std::string base = "protocol = push-sum\nhosts = 16\n";
  ExpectDryRunError(base + "seeds.round_stream = 1+banana\n",
                    "seeds.round_stream = 1+banana: 'banana' is not a valid "
                    "term");
  ExpectDryRunError(base + "seeds.round_stream = sweepval*10\n",
                    "'sweepval' requires a sweep axis");
  ExpectDryRunError(base + "sweep = rounds: 3, 4\n"
                           "seeds.churn_stream = sweep2+1\n",
                    "'sweep2' requires a sweep2 axis");
  ExpectDryRunError("protocol = count-min\nhosts = 16\n"
                    "workload.kind = zipf\nseeds.workload_stream = 3+\n",
                    "seeds.workload_stream = 3+: empty term");
  ExpectDryRunError(std::string(kAsyncBase) +
                        "seeds.message_stream = sweepval*0\n",
                    "seeds.message_stream");
  // The failure stream is a plain integer, on the custom runners too.
  ExpectDryRunError("protocol = tag-tree\nhosts = 16\n"
                    "seeds.failure_stream = hosts+1\n",
                    "seeds.failure_stream: not an integer");
  // With the axis present every cell resolves (the ablation specs rely on
  // the sweepval grammar), and `hosts` resolves at the cell's size.
  EXPECT_TRUE(DryRun("protocol = push-sum-revert\nhosts = 16\n"
                     "sweep = protocol.lambda: 0.01, 0.1\n"
                     "seeds.round_stream = sweepval*10000+1\n")
                  .ok());
  EXPECT_TRUE(DryRun(base + "sweep = hosts: 16, 32\n"
                            "seeds.round_stream = hosts+sweep\n")
                  .ok());
  // A negative swept value makes only its own cell's term negative (the
  // convergence threshold is a key whose range admits one).
  ExpectDryRunError("protocol = push-sum-revert\nhosts = 16\n"
                    "sweep = record.threshold: 0.1, -0.1\n"
                    "seeds.round_stream = sweepval*10\n",
                    "negative for sweep value");
  // A scaled value at or above 2^64 has no uint64_t term to cast to.
  ExpectDryRunError("protocol = push-sum-revert\nhosts = 16\n"
                    "sweep = record.threshold: 1e300, 2e300\n"
                    "seeds.round_stream = sweepval\n",
                    "seeds.round_stream = sweepval: 'sweepval' term is at or "
                    "above 2^64 for sweep value 1e+300");
}

TEST(DryRunValidationTest, BoundsChurnArrivalRate) {
  // The per-round Poisson arrival draw takes O(rate) uniforms, so an
  // unbounded rate passed --dry-run and then never finished its draw.
  const std::string base = "protocol = push-sum-revert\nhosts = 64\n";
  for (const char* rate : {"1e99", "65", "inf", "nan"}) {
    SCOPED_TRACE(rate);
    EXPECT_FALSE(
        DryRun(base + "churn.arrival_rate = " + std::string(rate) + "\n")
            .ok());
  }
  ExpectDryRunError(base + "churn.arrival_rate = 1e99\n",
                    "churn.arrival_rate exceeds hosts = 64");
  EXPECT_TRUE(DryRun(base + "churn.arrival_rate = 64\n").ok());
  // A swept rate is bounded per variant...
  ExpectDryRunError(base + "sweep = churn.arrival_rate: 2, 100\n",
                    "churn.arrival_rate exceeds hosts = 64");
  // ...and against each swept size, not the base placeholder.
  EXPECT_TRUE(DryRun("protocol = push-sum-revert\nhosts = 16\n"
                     "churn.arrival_rate = 50\nsweep = hosts: 100, 200\n")
                  .ok());
  ExpectDryRunError(
      "protocol = push-sum-revert\nhosts = 16\n"
      "churn.arrival_rate = 150\nsweep = hosts: 100, 200\n",
      "churn.arrival_rate exceeds hosts = 100");
}

// ------------------------------------------------------- time values ---

// Every time key becomes a tick of the microsecond SimTime clock. A value
// that cannot (NaN, below 1 µs, past SimTime's range) fails at parse or
// --dry-run with a diagnostic naming the key, instead of running with a
// zero period (a hang) or an overflowed clock.

void ExpectParseError(const std::string& text, const std::string& needle) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_FALSE(specs.ok()) << "spec unexpectedly parsed:\n" << text;
  if (!specs.ok()) {
    EXPECT_NE(specs.status().message().find(needle), std::string::npos)
        << "diagnostic '" << specs.status().message()
        << "' does not mention '" << needle << "'";
  }
}

TEST(TimeValueValidationTest, RejectsNan) {
  for (const std::string key : {"gossip_period", "sample_period"}) {
    ExpectParseError(kAsyncBase + key + " = nan\n", key);
  }
  // A hand-built spec skips the parser; --dry-run still catches it.
  auto specs = ParseScenarioFile(std::string(kAsyncBase) + "rounds = 5\n");
  ASSERT_TRUE(specs.ok());
  (*specs)[0].gossip_period = std::nan("");
  const Status st = ValidateExperiment((*specs)[0]);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("gossip_period"), std::string::npos)
      << st.message();
}

TEST(TimeValueValidationTest, RejectsValuesBelowOneMicrosecond) {
  for (const std::string key : {"gossip_period", "sample_period"}) {
    ExpectParseError(kAsyncBase + key + " = 1e-9\n", key);
  }
  for (const std::string key : {"net.latency_s", "net.jitter"}) {
    ExpectDryRunError(kAsyncBase + key + " = 1e-9\n", key);
  }
  ExpectDryRunError(std::string(kAsyncBase) +
                        "net.latency = uniform\nnet.latency_hi_s = 5e-7\n",
                    "net.latency_hi_s");
  // 0 is a valid latency (the default), and 1 µs is one tick.
  EXPECT_TRUE(DryRun(std::string(kAsyncBase) +
                     "net.latency_s = 0\nnet.jitter = 1e-6\n")
                  .ok());
}

TEST(TimeValueValidationTest, RejectsValuesThatOverflowSimTime) {
  for (const std::string key : {"gossip_period", "sample_period"}) {
    ExpectParseError(kAsyncBase + key + " = 1e13\n", key);
  }
  for (const std::string key : {"net.latency_s", "net.jitter"}) {
    ExpectDryRunError(kAsyncBase + key + " = 1e13\n", key);
  }
  ExpectDryRunError(std::string(kAsyncBase) +
                        "net.latency = uniform\nnet.latency_hi_s = 1e13\n",
                    "net.latency_hi_s");
  // Each tick time fits, the last of 10^4 ticks of 10^9 s does not.
  ExpectDryRunError(std::string(kAsyncBase) +
                        "gossip_period = 1e9\nrounds = 10000\n",
                    "gossip_period");
  EXPECT_TRUE(
      DryRun(std::string(kAsyncBase) + "gossip_period = 1e9\nrounds = 9000\n")
          .ok());
}

TEST(TimeValueValidationTest, RejectsTraceHorizonThatOverflowsSimTime) {
  // The horizon becomes the trace's end time in 64-bit microseconds.
  const std::string base =
      "protocol = push-sum-revert\ndriver = trace\nenvironment = haggle\n";
  for (const char* hours : {"1e99", "nan"}) {
    ExpectDryRunError(base + "env.hours = " + hours + "\n",
                      std::string("env.hours = ") + hours +
                          " is outside [0, 2.5e+09]");
  }
  EXPECT_TRUE(DryRun(base + "env.hours = 2\n").ok());
}

// ------------------------------------------------------ sweep grids ---

// Each cell of a two-axis grid combines a value of each axis, so a bound
// between the two axes holds or fails cell by cell. In these grids every
// value is valid on its own axis and one cell is not: it must fail
// --dry-run, and RunExperiment must fail before any unit runs.

/// Runs `text` and returns its status, counting the units that executed.
Status RunCounting(const std::string& text, int* units_done) {
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  if (!specs.ok()) return specs.status();
  RunOptions options;
  options.on_unit_done = [units_done](int done, int) { *units_done = done; };
  return RunExperiment((*specs)[0], options, /*telemetry=*/nullptr).status();
}

TEST(SweepGridValidationTest, RejectsChurnInitialAboveSweptHosts) {
  const std::string text =
      "name = grid\nprotocol = push-sum-revert\nhosts = 16\nrounds = 5\n"
      "churn.arrival_rate = 1\nsweep = hosts: 16, 64\n"
      "sweep2 = churn.initial: 8, 32\n";
  ExpectDryRunError(text, "churn.initial = 32 exceeds hosts = 16");
  int units_done = 0;
  const Status st = RunCounting(text, &units_done);
  EXPECT_NE(st.message().find("churn.initial = 32 exceeds hosts = 16"),
            std::string::npos)
      << st.message();
  EXPECT_EQ(units_done, 0);
}

TEST(SweepGridValidationTest, RejectsDegreeNotBelowSweptHosts) {
  const std::string text =
      "name = grid\nprotocol = push-sum\nenvironment = random-graph\n"
      "hosts = 100\nrounds = 5\nsweep = hosts: 100, 12\n"
      "sweep2 = env.degree: 4, 16\n";
  ExpectDryRunError(text, "env.degree = 16 must be below hosts = 12");
  int units_done = 0;
  const Status st = RunCounting(text, &units_done);
  EXPECT_NE(st.message().find("env.degree = 16 must be below hosts = 12"),
            std::string::npos)
      << st.message();
  EXPECT_EQ(units_done, 0);
  // Without the offending cell the same grid runs.
  EXPECT_TRUE(RunCounting("name = grid\nprotocol = push-sum\n"
                          "environment = random-graph\nhosts = 100\n"
                          "rounds = 5\nsweep = hosts: 100, 20\n"
                          "sweep2 = env.degree: 4, 16\n",
                          &units_done)
                  .ok());
  EXPECT_EQ(units_done, 4);
}

TEST(SweepGridValidationTest, RejectsRecordWindowEmptiedBySweptRounds) {
  // rms_tail_mean needs record.from below rounds in every cell.
  ExpectDryRunError(
      "protocol = push-sum\nhosts = 16\nrecord = rms_tail_mean\n"
      "sweep = rounds: 10, 20\nsweep2 = record.from: 5, 15\n",
      "record.from = 15 leaves no rounds to average (rounds = 10)");
  EXPECT_TRUE(DryRun("protocol = push-sum\nhosts = 16\n"
                     "record = rms_tail_mean\nsweep = rounds: 20, 30\n"
                     "sweep2 = record.from: 5, 15\n")
                  .ok());
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
