#include "sim/population.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dynagg {
namespace {

TEST(PopulationTest, StartsAllAlive) {
  Population pop(10);
  EXPECT_EQ(pop.size(), 10);
  EXPECT_EQ(pop.num_alive(), 10);
  for (HostId id = 0; id < 10; ++id) EXPECT_TRUE(pop.IsAlive(id));
}

TEST(PopulationTest, KillAndRevive) {
  Population pop(5);
  pop.Kill(2);
  EXPECT_FALSE(pop.IsAlive(2));
  EXPECT_EQ(pop.num_alive(), 4);
  pop.Revive(2);
  EXPECT_TRUE(pop.IsAlive(2));
  EXPECT_EQ(pop.num_alive(), 5);
}

TEST(PopulationTest, KillIsIdempotent) {
  Population pop(3);
  pop.Kill(1);
  pop.Kill(1);
  EXPECT_EQ(pop.num_alive(), 2);
}

TEST(PopulationTest, ReviveIsIdempotent) {
  Population pop(3);
  pop.Revive(1);
  EXPECT_EQ(pop.num_alive(), 3);
}

TEST(PopulationTest, AliveIdsMatchesStatus) {
  Population pop(20);
  for (HostId id = 0; id < 20; id += 2) pop.Kill(id);
  const auto& alive = pop.alive_ids();
  EXPECT_EQ(alive.size(), 10u);
  std::set<HostId> alive_set(alive.begin(), alive.end());
  for (HostId id = 0; id < 20; ++id) {
    EXPECT_EQ(pop.IsAlive(id), alive_set.count(id) == 1) << id;
  }
}

TEST(PopulationTest, KillAll) {
  Population pop(4);
  for (HostId id = 0; id < 4; ++id) pop.Kill(id);
  EXPECT_EQ(pop.num_alive(), 0);
  Rng rng(1);
  EXPECT_EQ(pop.SampleAlive(rng), kInvalidHost);
  EXPECT_EQ(pop.SampleAliveExcept(0, rng), kInvalidHost);
}

TEST(PopulationTest, SampleAliveOnlyReturnsAlive) {
  Population pop(50);
  Rng rng(2);
  for (HostId id = 0; id < 50; id += 3) pop.Kill(id);
  for (int i = 0; i < 1000; ++i) {
    const HostId pick = pop.SampleAlive(rng);
    ASSERT_NE(pick, kInvalidHost);
    EXPECT_TRUE(pop.IsAlive(pick));
  }
}

TEST(PopulationTest, SampleAliveExceptExcludes) {
  Population pop(10);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const HostId pick = pop.SampleAliveExcept(4, rng);
    ASSERT_NE(pick, kInvalidHost);
    EXPECT_NE(pick, 4);
  }
}

TEST(PopulationTest, SampleAliveExceptSoleSurvivor) {
  Population pop(3);
  pop.Kill(0);
  pop.Kill(2);
  Rng rng(4);
  EXPECT_EQ(pop.SampleAliveExcept(1, rng), kInvalidHost);
  EXPECT_EQ(pop.SampleAliveExcept(0, rng), 1);
}

TEST(PopulationTest, SamplingIsUniform) {
  Population pop(10);
  pop.Kill(0);
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int draws = 90000;
  for (int i = 0; i < draws; ++i) ++counts[pop.SampleAlive(rng)];
  EXPECT_EQ(counts[0], 0);
  for (HostId id = 1; id < 10; ++id) {
    EXPECT_NEAR(counts[id], draws / 9, 400) << id;
  }
}

TEST(PopulationTest, MassKillRevivesCleanly) {
  Population pop(1000);
  Rng rng(6);
  for (HostId id = 0; id < 1000; ++id) {
    if (rng.Bernoulli(0.5)) pop.Kill(id);
  }
  const int alive_after_kill = pop.num_alive();
  for (HostId id = 0; id < 1000; ++id) pop.Revive(id);
  EXPECT_EQ(pop.num_alive(), 1000);
  EXPECT_LT(alive_after_kill, 1000);
  EXPECT_GT(alive_after_kill, 0);
}

TEST(PopulationTest, EmptyPopulation) {
  Population pop(0);
  Rng rng(7);
  EXPECT_EQ(pop.size(), 0);
  EXPECT_EQ(pop.SampleAlive(rng), kInvalidHost);
}

// Every id ForEachAliveId visits, in visit order.
std::vector<HostId> VisitedIds(const Population& pop) {
  std::vector<HostId> ids;
  ForEachAliveId(pop, [&](HostId id) { ids.push_back(id); });
  return ids;
}

// The alive set in ascending id order, read through IsAlive.
std::vector<HostId> AliveByStatus(const Population& pop) {
  std::vector<HostId> ids;
  for (HostId id = 0; id < pop.size(); ++id) {
    if (pop.IsAlive(id)) ids.push_back(id);
  }
  return ids;
}

TEST(PopulationTest, ForEachAliveIdVisitsAliveSetInIdOrder) {
  // Never mutated: the index-loop fast path covers every host, the last
  // one included.
  Population fresh(7);
  ASSERT_EQ(fresh.version(), 0u);
  EXPECT_EQ(VisitedIds(fresh), (std::vector<HostId>{0, 1, 2, 3, 4, 5, 6}));

  // Random Kill/Revive sequences scramble alive_ids(); the visit must
  // still be exactly the alive set, ascending, after every step.
  Rng rng(19);
  for (const int n : {1, 2, 3, 64, 257}) {
    Population pop(n);
    for (int step = 0; step < 4 * n; ++step) {
      const HostId id = static_cast<HostId>(rng.UniformInt(n));
      if (rng.Bernoulli(0.5)) {
        pop.Kill(id);
      } else {
        pop.Revive(id);
      }
      const std::vector<HostId> visited = VisitedIds(pop);
      ASSERT_EQ(visited, AliveByStatus(pop)) << "n=" << n << " step=" << step;
      ASSERT_EQ(static_cast<int>(visited.size()), pop.num_alive());
    }
  }

  // Staged arrivals: the unborn tail is skipped until revived.
  Population staged(6, 4);
  EXPECT_EQ(VisitedIds(staged), (std::vector<HostId>{0, 1, 2, 3}));
  staged.Revive(5);
  EXPECT_EQ(VisitedIds(staged), (std::vector<HostId>{0, 1, 2, 3, 5}));

  // All dead, and a one-host population dead and alive again.
  Population dead(5);
  for (HostId id = 0; id < 5; ++id) dead.Kill(id);
  EXPECT_TRUE(VisitedIds(dead).empty());
  Population one(1);
  EXPECT_EQ(VisitedIds(one), (std::vector<HostId>{0}));
  one.Kill(0);
  EXPECT_TRUE(VisitedIds(one).empty());
  one.Revive(0);
  EXPECT_EQ(VisitedIds(one), (std::vector<HostId>{0}));
  EXPECT_TRUE(VisitedIds(Population(0)).empty());
}

}  // namespace
}  // namespace dynagg
