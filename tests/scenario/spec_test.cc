#include "scenario/spec.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace dynagg {
namespace scenario {
namespace {

TEST(ParseHelpersTest, StrictInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_EQ(ParseInt64("0x10").value(), 16);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(ParseHelpersTest, StrictDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("1e-3").value(), 1e-3);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("0.25furlongs").ok());
}

TEST(ParseHelpersTest, StrictBool) {
  EXPECT_TRUE(ParseBool("true").value());
  EXPECT_TRUE(ParseBool("1").value());
  EXPECT_FALSE(ParseBool("off").value());
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(SpecParseTest, MinimalFileUsesDefaults) {
  const auto specs =
      ParseScenarioFile("protocol = push-sum\n", "from_file");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 1u);
  const ScenarioSpec& spec = (*specs)[0];
  EXPECT_EQ(spec.name, "from_file");
  EXPECT_EQ(spec.protocol, "push-sum");
  EXPECT_EQ(spec.environment, "uniform");
  EXPECT_EQ(spec.rounds, 200);
  EXPECT_EQ(spec.trials, 1);
  EXPECT_EQ(spec.format, "csv");
  EXPECT_TRUE(spec.sweep_key.empty());
}

TEST(SpecParseTest, FullFileWithCommentsAndParams) {
  const char* text =
      "# header comment\n"
      "name = my_exp   # trailing comment\n"
      "protocol = push-sum-revert\n"
      "environment = spatial\n"
      "hosts = 1024\n"
      "rounds = 60\n"
      "trials = 5\n"
      "seed = 20090401\n"
      "\n"
      "protocol.lambda = 0.05\n"
      "env.width = 32\n"
      "failure.kind = churn\n"
      "record.kind = tail_mean\n"
      "seeds.round_stream = 77\n";
  const auto specs = ParseScenarioFile(text);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const ScenarioSpec& spec = (*specs)[0];
  EXPECT_EQ(spec.name, "my_exp");
  EXPECT_EQ(spec.hosts, 1024);
  EXPECT_EQ(spec.rounds, 60);
  EXPECT_EQ(spec.trials, 5);
  EXPECT_EQ(spec.seed, 20090401u);
  EXPECT_DOUBLE_EQ(spec.ParamDouble("protocol.lambda", 0, 0.0, 1.0).value(),
                   0.05);
  EXPECT_EQ(spec.ParamInt("env.width", 0).value(), 32);
  EXPECT_EQ(spec.ParamString("failure.kind", "").value(), "churn");
  EXPECT_EQ(spec.ParamInt("seeds.round_stream", 1).value(), 77);
  // Absent keys fall back to the caller's default.
  EXPECT_EQ(spec.ParamInt("env.height", 99).value(), 99);
}

TEST(SpecParseTest, SectionsInheritAndOverrideGlobals) {
  const char* text =
      "name = base\n"
      "hosts = 100\n"
      "seed = 7\n"
      "protocol.lambda = 0.5\n"
      "\n"
      "[a]\n"
      "protocol = push-sum\n"
      "\n"
      "[b]\n"
      "protocol = push-sum-revert\n"
      "hosts = 200\n"
      "protocol.lambda = 0.9\n";
  const auto specs = ParseScenarioFile(text);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].name, "base/a");
  EXPECT_EQ((*specs)[0].hosts, 100);
  EXPECT_EQ((*specs)[0].seed, 7u);
  EXPECT_DOUBLE_EQ(
      (*specs)[0].ParamDouble("protocol.lambda", 0, 0.0, 1.0).value(),
      0.5);
  EXPECT_EQ((*specs)[1].name, "base/b");
  EXPECT_EQ((*specs)[1].hosts, 200);
  EXPECT_DOUBLE_EQ(
      (*specs)[1].ParamDouble("protocol.lambda", 0, 0.0, 1.0).value(),
      0.9);
}

TEST(SpecParseTest, SweepParses) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum-revert\n"
      "sweep = protocol.lambda: 0, 0.001, 0.5\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const ScenarioSpec& spec = (*specs)[0];
  EXPECT_EQ(spec.sweep_key, "protocol.lambda");
  ASSERT_EQ(spec.sweep_values.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.sweep_values[1], 0.001);
}

TEST(SpecParseTest, SweepOverHostsParses) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\nsweep = hosts: 1000, 10000\n");
  ASSERT_TRUE(specs.ok());
  EXPECT_EQ((*specs)[0].sweep_key, "hosts");
}

TEST(SpecParseTest, UnknownTopLevelKeyIsErrorWithLineNumber) {
  const auto specs = ParseScenarioFile(
      "protocol = push-sum\n"
      "prtocol = typo\n");
  ASSERT_FALSE(specs.ok());
  EXPECT_EQ(specs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(specs.status().message().find("line 2"), std::string::npos)
      << specs.status().ToString();
  EXPECT_NE(specs.status().message().find("prtocol"), std::string::npos);
}

TEST(SpecParseTest, BadValueIsError) {
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nhosts = many\n").ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nrounds = 0\n").ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nformat = xml\n").ok());
  EXPECT_FALSE(
      ParseScenarioFile("protocol = p\nsweep = lambda 0,1\n").ok());
  EXPECT_FALSE(
      ParseScenarioFile("protocol = p\nsweep = oops.key: 1\n").ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = p\n[unterminated\n").ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nno_equals_sign\n").ok());
}

/// Expects `line` (after a protocol line) to be rejected at line 2 with a
/// message naming `key`.
void ExpectIntKeyRejected(const std::string& key, const std::string& line) {
  const auto specs = ParseScenarioFile("protocol = push-sum\n" + line + "\n");
  ASSERT_FALSE(specs.ok()) << line;
  EXPECT_NE(specs.status().message().find("line 2"), std::string::npos)
      << specs.status().ToString();
  EXPECT_NE(specs.status().message().find(key), std::string::npos)
      << specs.status().ToString();
}

TEST(SpecParseTest, IntKeysAboveIntMaxAreRejected) {
  // 2^32 + 32 used to wrap to 32 through the int cast.
  ExpectIntKeyRejected("hosts", "hosts = 4294967328");
  ExpectIntKeyRejected("rounds", "rounds = 4294967299");
  ExpectIntKeyRejected("trials", "trials = 2147483648");
  ExpectIntKeyRejected("intra_round_threads",
                       "intra_round_threads = 4294967297");
  const auto at_max = ParseScenarioFile(
      "protocol = push-sum\nhosts = 2147483647\nrounds = 2147483647\n"
      "trials = 2147483647\nintra_round_threads = 2147483647\n");
  ASSERT_TRUE(at_max.ok()) << at_max.status().ToString();
  EXPECT_EQ((*at_max)[0].hosts, 2147483647);
  EXPECT_EQ((*at_max)[0].rounds, 2147483647);
  EXPECT_EQ((*at_max)[0].trials, 2147483647);
  EXPECT_EQ((*at_max)[0].intra_round_threads, 2147483647);
}

TEST(SpecParseTest, MissingProtocolIsError) {
  const auto specs = ParseScenarioFile("hosts = 10\n");
  ASSERT_FALSE(specs.ok());
  EXPECT_NE(specs.status().message().find("protocol"), std::string::npos);
}

TEST(SpecParseTest, BadParamValueSurfacesKeyName) {
  const auto specs =
      ParseScenarioFile("protocol = p\nprotocol.lambda = abc\n");
  ASSERT_TRUE(specs.ok());  // stored as string; typed access fails
  const auto lambda = (*specs)[0].ParamDouble("protocol.lambda", 0, 0.0, 1.0);
  ASSERT_FALSE(lambda.ok());
  EXPECT_NE(lambda.status().message().find("protocol.lambda"),
            std::string::npos);
}

TEST(SpecParseTest, RecordDefaultsToRmsSeries) {
  const auto specs = ParseScenarioFile("protocol = push-sum\n");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ((*specs)[0].metrics.size(), 1u);
  EXPECT_EQ((*specs)[0].metrics[0].name, "rms");
  EXPECT_TRUE((*specs)[0].metrics[0].arg.empty());
  EXPECT_TRUE((*specs)[0].aggregates.empty());
}

TEST(SpecParseTest, RecordListParsesNamesAndArguments) {
  const auto specs = ParseScenarioFile(
      "protocol = p\n"
      "record = rms, bandwidth, cdf(final_error)\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  const auto& metrics = (*specs)[0].metrics;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].ToString(), "rms");
  EXPECT_EQ(metrics[1].ToString(), "bandwidth");
  EXPECT_EQ(metrics[2].name, "cdf");
  EXPECT_EQ(metrics[2].arg, "final_error");
  EXPECT_EQ(metrics[2].ToString(), "cdf(final_error)");
}

TEST(SpecParseTest, BadRecordListsAreErrors) {
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nrecord = \n").ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nrecord = rms,,x\n").ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nrecord = cdf(\n").ok());
  EXPECT_FALSE(ParseScenarioFile("protocol = p\nrecord = cdf()\n").ok());
  EXPECT_FALSE(
      ParseScenarioFile("protocol = p\nrecord = rms, rms\n").ok());
  // Duplicate selectors must compare name AND argument.
  EXPECT_TRUE(ParseScenarioFile(
                  "protocol = p\nrecord = cdf(a), cdf(b)\n")
                  .ok());
}

TEST(SpecParseTest, AggregateListParsesAndValidates) {
  const auto specs = ParseScenarioFile(
      "protocol = p\naggregate = mean, stddev, min, max\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ((*specs)[0].aggregates.size(), 4u);
  EXPECT_EQ((*specs)[0].aggregates[0], "mean");
  EXPECT_FALSE(
      ParseScenarioFile("protocol = p\naggregate = median\n").ok());
  EXPECT_FALSE(
      ParseScenarioFile("protocol = p\naggregate = mean, mean\n").ok());
}

TEST(SpecParseTest, Sweep2ParsesAndValidates) {
  const auto specs = ParseScenarioFile(
      "protocol = p\n"
      "sweep = protocol.lambda: 0, 0.1\n"
      "sweep2 = rounds: 30, 60\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ((*specs)[0].sweep2_key, "rounds");
  ASSERT_EQ((*specs)[0].sweep2_values.size(), 2u);
  EXPECT_DOUBLE_EQ((*specs)[0].sweep2_values[1], 60.0);
  // Cross-field rules (sweep2 without sweep, duplicate keys) are enforced
  // by ValidateExperiment, not the parser — see executor_test.
  EXPECT_FALSE(
      ParseScenarioFile("protocol = p\nsweep2 = oops 1, 2\n").ok());
}

TEST(SpecParseTest, CheckParamsRejectsUnknownSuffix) {
  const auto specs = ParseScenarioFile(
      "protocol = p\nprotocol.lamda = 0.5\n");  // typo'd suffix
  ASSERT_TRUE(specs.ok());
  const Status st =
      (*specs)[0].CheckParams("protocol.", {"lambda", "mode"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("protocol.lamda"), std::string::npos);
  // Other prefixes are not this factory's concern.
  EXPECT_TRUE((*specs)[0].CheckParams("env.", {}).ok());
}

/// The message of `r`'s error, or "" when it holds a value.
template <typename T>
std::string ErrorOf(const Result<T>& r) {
  return r.ok() ? "" : r.status().message();
}

TEST(SpecParseTest, RangedReadsNameKeyValueAndRange) {
  ScenarioSpec spec;
  spec.params = {{"protocol.parcels", "4294967297"},
                 {"protocol.lambda", "nan"},
                 {"protocol.epsilon", "0"},
                 {"workload.skew", "inf"},
                 {"churn.initial", "-1"}};
  // Range-checked as int64 before any narrowing: 2^32 + 1 does not wrap.
  EXPECT_EQ(ErrorOf(spec.ParamInt("protocol.parcels", 4, 1, kIntMax)),
            "protocol.parcels = 4294967297 is outside [1, 2147483647]");
  EXPECT_EQ(ErrorOf(spec.ParamDouble("protocol.lambda", 0.01, 0.0, 1.0)),
            "protocol.lambda = nan is outside [0, 1]");
  EXPECT_EQ(
      ErrorOf(spec.ParamDouble("protocol.epsilon", 0.05, Open(0.0), 0.5)),
      "protocol.epsilon = 0 is outside (0, 0.5]");
  // inf passes only where that bound is inf.
  EXPECT_FALSE(spec.ParamDouble("workload.skew", 1.0, 0.0, kFiniteMax).ok());
  EXPECT_EQ(spec.ParamDouble("workload.skew", 1.0, 0.0,
                             std::numeric_limits<double>::infinity())
                .value(),
            std::numeric_limits<double>::infinity());
  // A default outside the range is a sentinel that may be written out.
  EXPECT_EQ(spec.ParamInt("churn.initial", -1, 1, kIntMax).value(), -1);
  EXPECT_EQ(ErrorOf(spec.ParamInt("churn.initial", 7, 1, kIntMax)),
            "churn.initial = -1 is outside [1, 2147483647]");
  spec.params["churn.initial"] = "0";
  EXPECT_EQ(ErrorOf(spec.ParamInt("churn.initial", -1, 1, kIntMax)),
            "churn.initial = 0 is outside [1, 2147483647] (or -1, the "
            "default)");
  // Absent keys return the default without a check.
  EXPECT_EQ(spec.ParamInt("protocol.window", 3, 1, kIntMax).value(), 3);
}

TEST(SpecParseTest, ParamReaderAllowsExactlyTheKeysItRead) {
  ScenarioSpec spec;
  spec.params = {{"protocol.mode", "push"},
                 {"protocol.lamda", "0.5"},
                 {"env.width", "4"}};
  ParamReader r(spec, "protocol.");
  EXPECT_EQ(r.String("protocol.mode", "pushpull").value(), "push");
  EXPECT_DOUBLE_EQ(r.Double("protocol.lambda", 0.01, 0.0, 1.0).value(),
                   0.01);
  // Keys outside the prefix are not this parse's concern.
  EXPECT_EQ(r.Int("env.width", 0, 1, kIntMax).value(), 4);
  EXPECT_EQ(r.Finish().message(),
            "unknown parameter 'protocol.lamda' (allowed: protocol.mode, "
            "protocol.lambda)");
  spec.params.erase("protocol.lamda");
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_TRUE(ParamReader(spec, "net.").Finish().ok());
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
