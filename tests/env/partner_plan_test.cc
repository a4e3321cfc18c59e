// Environment API v2 contract tests: for every environment,
// Environment::BuildPlan must produce exactly the partners — and consume
// exactly the Rng draws — of the equivalent sequence of per-host SamplePeer
// calls, including after population mutations (kill/revive) and trace
// playback (AdvanceTo), which exercise every batched implementation's cache
// invalidation. A stale alive-neighbor cache or alive bitmap diverges from
// the freshly-evaluated SamplePeer reference immediately. The draw-ahead
// blocks of the uniform plan and of the exchange-order shuffle are pinned at
// their edges against the sequential loops they must reproduce.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "env/contact_trace.h"
#include "env/environment.h"
#include "env/partner_plan.h"
#include "env/random_graph_env.h"
#include "env/spatial_env.h"
#include "env/trace_env.h"
#include "env/uniform_env.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace dynagg {
namespace {

/// Asserts that BuildPlan over `initiators` matches the per-slot SamplePeer
/// reference: same partners, same Rng consumption (checked by comparing the
/// generators' draw counts and next outputs afterwards).
void ExpectPlanMatchesSamplePeer(const Environment& env, const Population& pop,
                                 const std::vector<HostId>& initiators,
                                 uint64_t seed, int slots_per_initiator = 1) {
  Rng plan_rng(seed);
  Rng ref_rng(seed);

  PartnerPlan plan;
  plan.Reset(initiators, slots_per_initiator);
  env.BuildPlan(pop, plan_rng, &plan);

  ASSERT_EQ(plan.size(), initiators.size() * slots_per_initiator);
  for (size_t k = 0; k < plan.size(); ++k) {
    const HostId expected = env.SamplePeer(plan.initiator(k), pop, ref_rng);
    EXPECT_EQ(plan.partner(k), expected) << "slot " << k;
  }
  // Bit-identical Rng consumption: both generators must now be in the same
  // state.
  EXPECT_EQ(plan_rng.draw_count(), ref_rng.draw_count());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan_rng.Next(), ref_rng.Next()) << "rng drift at draw " << i;
  }
}

std::vector<HostId> AliveInitiators(const Population& pop) {
  return pop.alive_ids();
}

TEST(PartnerPlanTest, ResetExpandsSlotsPerInitiator) {
  PartnerPlan plan;
  plan.Reset({3, 1, 4}, /*slots_per_initiator=*/2);
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan.initiator(0), 3);
  EXPECT_EQ(plan.initiator(1), 3);
  EXPECT_EQ(plan.initiator(2), 1);
  EXPECT_EQ(plan.initiator(5), 4);
  EXPECT_FALSE(plan.identity_initiators());
}

TEST(PartnerPlanTest, EffectivePartnerFallsBackToInitiator) {
  PartnerPlan plan;
  plan.Reset({7, 8}, 1);
  (*plan.mutable_partners())[0] = 8;
  (*plan.mutable_partners())[1] = kInvalidHost;
  EXPECT_EQ(plan.EffectivePartner(0), 8);
  EXPECT_EQ(plan.EffectivePartner(1), 8);
  EXPECT_EQ(plan.CountMatched(), 1);
}

// ------------------------------------------------------------ uniform ---

TEST(PartnerPlanParityTest, UniformMatchesSamplePeer) {
  UniformEnvironment env(64);
  Population pop(64);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 11);
}

TEST(PartnerPlanParityTest, UniformIdentityFastPathMatches) {
  UniformEnvironment env(64);
  Population pop(64);
  PartnerPlan plan;
  plan.Reset(pop.alive_ids(), 1);
  plan.set_identity_initiators(true);  // what PlanPushRound sets
  Rng plan_rng(11);
  Rng ref_rng(11);
  env.BuildPlan(pop, plan_rng, &plan);
  for (size_t k = 0; k < plan.size(); ++k) {
    EXPECT_EQ(plan.partner(k), env.SamplePeer(plan.initiator(k), pop, ref_rng));
  }
  EXPECT_EQ(plan_rng.Next(), ref_rng.Next());
}

TEST(PartnerPlanParityTest, UniformAfterDeathsMatches) {
  UniformEnvironment env(64);
  Population pop(64);
  Rng fail(3);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 11);
  // Mid-trial deaths: the identity fast path must drop out (version moved)
  // and the alive-table path must pick up the new membership.
  for (int i = 0; i < 20; ++i) pop.Kill(static_cast<HostId>(fail.UniformInt(64)));
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 12);
  pop.Revive(0);
  pop.Revive(13);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 13);
}

TEST(PartnerPlanParityTest, UniformDegeneratePopulations) {
  UniformEnvironment env(2);
  Population pop(2);
  pop.Kill(1);
  ExpectPlanMatchesSamplePeer(env, pop, {0}, 5);  // single alive host
  pop.Kill(0);
  ExpectPlanMatchesSamplePeer(env, pop, {}, 5);  // nobody alive
}

TEST(PartnerPlanParityTest, UniformChangedPopulationBlockEdges) {
  // On a changed population BuildPlan draws kUniformPlanBlock slots ahead
  // of their alive-table loads and redoes a block sequentially when one of
  // its picks is its own initiator. Alive counts straddle the block size;
  // at about 300 alive hosts a block of 256 picks holds its initiator with
  // probability 1 - (299/300)^256, about 0.57, so with 8 slots per host
  // most blocks take the redo path.
  ASSERT_EQ(kUniformPlanBlock, 256u);
  for (const int alive : {2, 255, 256, 257, 300, 5000}) {
    SCOPED_TRACE(testing::Message() << alive << " alive");
    const int n = alive + alive / 3 + 3;
    UniformEnvironment env(n);
    Population pop(n);
    Rng fail(static_cast<uint64_t>(alive));
    while (pop.num_alive() > alive) {
      pop.Kill(static_cast<HostId>(fail.UniformInt(n)));
    }
    ASSERT_NE(pop.version(), 0u);
    std::vector<HostId> shuffled;
    ShuffledAliveOrder(pop, fail, &shuffled);
    for (const int slots : {1, 8}) {
      SCOPED_TRACE(testing::Message() << slots << " slots per host");
      ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 71, slots);
      ExpectPlanMatchesSamplePeer(env, pop, shuffled, 72, slots);
    }
  }
}

// ------------------------------------------------------------ shuffle ---

/// The textbook Fisher-Yates loop ShuffleHostIds must reproduce.
void TextbookShuffle(std::vector<HostId>& ids, Rng& rng) {
  for (size_t i = ids.size(); i > 1; --i) {
    const size_t j = rng.UniformInt(i);
    std::swap(ids[i - 1], ids[j]);
  }
}

TEST(ShuffleTest, ShuffledAliveOrderMatchesTextbookFisherYates) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, kShuffleBlock - 1,
                         kShuffleBlock, kShuffleBlock + 1, size_t{10000}}) {
    SCOPED_TRACE(testing::Message() << n << " hosts");
    // A killed host makes the alive list a non-identity order.
    Population pop(static_cast<int>(n) + 1);
    pop.Kill(static_cast<HostId>(n / 2));
    Rng shuffle_rng(900 + n);
    Rng ref_rng(900 + n);
    std::vector<HostId> order;
    ShuffledAliveOrder(pop, shuffle_rng, &order);
    std::vector<HostId> expected = pop.alive_ids();
    TextbookShuffle(expected, ref_rng);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(shuffle_rng.draw_count(), ref_rng.draw_count());
    EXPECT_EQ(shuffle_rng.Next(), ref_rng.Next());
  }
}

// ------------------------------------------------------------ spatial ---

TEST(PartnerPlanParityTest, SpatialMatchesSamplePeer) {
  SpatialGridEnvironment env(8, 8);
  Population pop(64);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 21);
}

TEST(PartnerPlanParityTest, SpatialAliveBitmapInvalidatesOnDeath) {
  SpatialGridEnvironment env(8, 8);
  Population pop(64);
  // Populate the env's per-round bitmap cache...
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 22);
  // ...then change membership. A stale bitmap would route walks through
  // dead hosts; the SamplePeer reference evaluates aliveness freshly.
  for (HostId id = 0; id < 32; ++id) pop.Kill(id);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 23);
  pop.Revive(9);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 24);
}

// ------------------------------------------------------- random graph ---

TEST(PartnerPlanParityTest, RandomGraphMatchesSamplePeer) {
  RandomGraphEnvironment env(60, 4, /*seed=*/77);
  Population pop(60);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 31);
}

TEST(PartnerPlanParityTest, RandomGraphFallbackRowsInvalidateOnDeath) {
  RandomGraphEnvironment env(60, 4, /*seed=*/77);
  Population pop(60);
  // Kill most hosts so the 4-attempt rejection falls through to the cached
  // alive-neighbor rows on nearly every slot.
  for (HostId id = 0; id < 45; ++id) pop.Kill(id);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 32);
  // Membership changes again: rows stamped with the old population version
  // must be rebuilt, not reused.
  for (HostId id = 45; id < 52; ++id) pop.Kill(id);
  pop.Revive(2);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 33);
  pop.Revive(10);
  pop.Revive(11);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 34);
}

// --------------------------------------------------------------- trace ---

ContactTrace MakeTwoPhaseTrace() {
  // Phase 1 (t < 100s): 0-1, 2-3 in contact. Phase 2 (t >= 100s): 0-2,
  // 1-3. Device 4 never meets anyone.
  ContactTrace trace(5);
  trace.AddContact(0, 1, FromSeconds(0), FromSeconds(100));
  trace.AddContact(2, 3, FromSeconds(0), FromSeconds(100));
  trace.AddContact(0, 2, FromSeconds(100), FromSeconds(200));
  trace.AddContact(1, 3, FromSeconds(100), FromSeconds(200));
  trace.Finalize();
  return trace;
}

TEST(PartnerPlanParityTest, TraceMatchesSamplePeerAcrossAdvanceTo) {
  const ContactTrace trace = MakeTwoPhaseTrace();
  TraceEnvironment env(trace);
  Population pop(5);
  env.AdvanceTo(FromSeconds(50));
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 41);
  // The plan in phase 1 must only pair within {0,1} and {2,3}.
  {
    PartnerPlan plan;
    plan.Reset({0, 2, 4}, 1);
    Rng rng(42);
    env.BuildPlan(pop, rng, &plan);
    EXPECT_EQ(plan.partner(0), 1);
    EXPECT_EQ(plan.partner(1), 3);
    EXPECT_EQ(plan.partner(2), kInvalidHost);
  }
  // AdvanceTo flips the adjacency; cached alive-neighbor rows stamped with
  // the old topology epoch must be rebuilt.
  env.AdvanceTo(FromSeconds(150));
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 43);
  {
    PartnerPlan plan;
    plan.Reset({0, 1}, 1);
    Rng rng(44);
    env.BuildPlan(pop, rng, &plan);
    EXPECT_EQ(plan.partner(0), 2);
    EXPECT_EQ(plan.partner(1), 3);
  }
}

TEST(PartnerPlanParityTest, TraceFallbackRowsInvalidateOnDeathMidTrial) {
  // A dense clique trace so hosts have several neighbors and the fallback
  // path (first 4 picks dead) is actually reachable.
  ContactTrace trace(8);
  for (HostId a = 0; a < 8; ++a) {
    for (HostId b = a + 1; b < 8; ++b) {
      trace.AddContact(a, b, FromSeconds(0), FromSeconds(1000));
    }
  }
  trace.Finalize();
  TraceEnvironment env(trace);
  Population pop(8);
  env.AdvanceTo(FromSeconds(10));
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 51);
  // Kill most of the clique: rejection now almost always falls through to
  // the cached alive rows, and those must track each further death.
  for (HostId id = 2; id < 7; ++id) pop.Kill(id);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 52);
  pop.Kill(7);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 53);
  pop.Revive(4);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 54);
}

// ----------------------------------------------------- default adapter ---

/// An Environment that only implements the v1 interface: BuildPlan must
/// come from the base-class default adapter.
class MinimalEnvironment : public Environment {
 public:
  explicit MinimalEnvironment(int n) : n_(n) {}
  int num_hosts() const override { return n_; }
  HostId SamplePeer(HostId i, const Population& pop,
                    Rng& rng) const override {
    return pop.SampleAliveExcept(i, rng);
  }
  void AppendNeighbors(HostId i, const Population& pop,
                       std::vector<HostId>* out) const override {
    for (const HostId id : pop.alive_ids()) {
      if (id != i) out->push_back(id);
    }
  }

 private:
  int n_;
};

TEST(PartnerPlanParityTest, DefaultAdapterDelegatesToSamplePeer) {
  MinimalEnvironment env(16);
  Population pop(16);
  pop.Kill(3);
  ExpectPlanMatchesSamplePeer(env, pop, AliveInitiators(pop), 61);
}

TEST(PopulationVersionTest, BumpsOnlyOnEffectiveMutation) {
  Population pop(4);
  EXPECT_EQ(pop.version(), 0u);
  pop.Revive(2);  // already alive: no-op
  EXPECT_EQ(pop.version(), 0u);
  pop.Kill(2);
  EXPECT_EQ(pop.version(), 1u);
  pop.Kill(2);  // already dead: no-op
  EXPECT_EQ(pop.version(), 1u);
  pop.Revive(2);
  EXPECT_EQ(pop.version(), 2u);
}

}  // namespace
}  // namespace dynagg
