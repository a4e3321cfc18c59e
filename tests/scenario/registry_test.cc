#include "scenario/registry.h"

#include <string>

#include <gtest/gtest.h>

#include "scenario/executor.h"
#include "scenario/spec.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {
namespace {

TEST(RegistryTest, FindMissReturnsNotFoundListingNames) {
  Registry<int> reg("widget");
  ASSERT_TRUE(reg.Register("alpha", 1).ok());
  ASSERT_TRUE(reg.Register("beta", 2).ok());
  const Result<int> miss = reg.Find("gamma");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
  EXPECT_NE(miss.status().message().find("gamma"), std::string::npos);
  EXPECT_NE(miss.status().message().find("alpha"), std::string::npos);
  EXPECT_NE(miss.status().message().find("beta"), std::string::npos);
}

TEST(RegistryTest, DuplicateRegistrationIsError) {
  Registry<int> reg("widget");
  ASSERT_TRUE(reg.Register("alpha", 1).ok());
  const Status st = reg.Register("alpha", 2);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The original registration survives.
  EXPECT_EQ(reg.Find("alpha").value(), 1);
}

TEST(RegistryTest, NamesAreSorted) {
  Registry<int> reg("widget");
  ASSERT_TRUE(reg.Register("zeta", 1).ok());
  ASSERT_TRUE(reg.Register("alpha", 2).ok());
  const std::vector<std::string> names = reg.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(BuiltinRegistryTest, ProtocolCatalogIsComplete) {
  for (const char* name :
       {"push-sum", "push-sum-revert", "epoch-push-sum", "full-transfer",
        "extremes", "count-sketch", "count-sketch-reset", "node-aggregator",
        "tag-tree"}) {
    EXPECT_TRUE(ProtocolRegistry().Find(name).ok()) << name;
  }
}

TEST(BuiltinRegistryTest, EnvironmentCatalogIsComplete) {
  for (const char* name :
       {"uniform", "spatial", "random-graph", "haggle"}) {
    EXPECT_TRUE(EnvironmentRegistry().Find(name).ok()) << name;
  }
}

TEST(BuiltinRegistryTest, UnknownProtocolFailsExperimentCleanly) {
  ScenarioSpec spec;
  spec.protocol = "no-such-protocol";
  spec.hosts = 10;
  const Result<std::vector<ResultTable>> tables = RunExperiment(spec);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("no-such-protocol"),
            std::string::npos);
}

TEST(BuiltinRegistryTest, UnknownEnvironmentFailsExperimentCleanly) {
  ScenarioSpec spec;
  spec.protocol = "push-sum";
  spec.environment = "no-such-env";
  spec.hosts = 10;
  const Result<std::vector<ResultTable>> tables = RunExperiment(spec);
  ASSERT_FALSE(tables.ok());
  EXPECT_NE(tables.status().message().find("no-such-env"),
            std::string::npos);
}

// Every swarm protocol's registered capability set must equal what its
// built handle actually provides: a capability without its hook (or the
// reverse) would make --dry-run and execution disagree.
TEST(BuiltinRegistryTest, CapabilitiesMatchBuiltHooks) {
  for (const std::string& name : ProtocolRegistry().Names()) {
    const ProtocolDef def = ProtocolRegistry().Find(name).value();
    if (!def.make_swarm) {
      EXPECT_EQ(DescribeCapabilities(def.capabilities), "—") << name;
      continue;
    }
    ScenarioSpec spec;
    spec.name = "capabilities";
    spec.protocol = name;
    spec.hosts = 16;
    spec.rounds = 2;
    if (def.consumes_workload) spec.params["workload.kind"] = "zipf";
    // push-sum plans async messages in push mode only.
    if (name == "push-sum") spec.params["protocol.mode"] = "push";
    TrialContext ctx;
    ctx.spec = &spec;
    ctx.trial_seed = 1;
    Result<EnvHandle> env = MakeEnvironment(ctx);
    ASSERT_TRUE(env.ok()) << name << ": " << env.status().ToString();
    Result<SwarmHandle> swarm = def.make_swarm(ctx, *env);
    ASSERT_TRUE(swarm.ok()) << name << ": " << swarm.status().ToString();
    const SwarmHandle& h = *swarm;
    const Capabilities& caps = def.capabilities;
    ASSERT_TRUE(h.run_round && h.estimate && h.truth) << name;
    EXPECT_EQ(caps.Has(Capability::kTrace), h.group_truths != nullptr)
        << name;
    EXPECT_EQ(caps.Has(Capability::kThreads), h.set_threads != nullptr)
        << name;
    EXPECT_EQ(caps.Has(Capability::kAsync),
              h.async_tick && h.async_deliver && h.message_bytes > 0)
        << name;
    EXPECT_EQ(caps.Has(Capability::kJoin), h.on_join != nullptr) << name;
    EXPECT_EQ(caps.Has(Capability::kGossipBytes), h.gossip_bytes >= 0)
        << name;
    EXPECT_EQ(caps.Has(Capability::kMetered), h.set_meter != nullptr)
        << name;
    EXPECT_EQ(caps.Has(Capability::kValueBacked),
              h.failure_values != nullptr)
        << name;
  }
}

// A workload registered from outside the engine becomes runnable from a
// spec without touching the runner: the whole point of the registries.
TEST(BuiltinRegistryTest, CustomProtocolPlugsIntoExecutor) {
  static bool registered = false;
  if (!registered) {
    registered = true;
    ProtocolDef def;
    def.run_custom = [](const TrialContext& ctx, Recorder& rec) -> Status {
      rec.AddScalar("seed_lo", static_cast<double>(ctx.trial_seed % 1000));
      return Status::OK();
    };
    ASSERT_TRUE(ProtocolRegistry().Register("test-constant", def).ok());
  }
  ScenarioSpec spec;
  spec.name = "custom";
  spec.protocol = "test-constant";
  spec.hosts = 1;
  spec.seed = 123456;
  const Result<std::vector<ResultTable>> tables = RunExperiment(spec);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->size(), 1u);
  const CsvTable& table = (*tables)[0].table;
  ASSERT_EQ(table.num_rows(), 1);
  EXPECT_EQ(table.columns()[0], "seed_lo");
  EXPECT_DOUBLE_EQ(table.row(0)[0], 456.0);
}

}  // namespace
}  // namespace scenario
}  // namespace dynagg
