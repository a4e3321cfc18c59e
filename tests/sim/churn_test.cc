// ChurnPlan contract tests: the precomputed two-sided membership schedule
// must be a pure function of (params, seed), respect the growth cap and
// the churn window, admit first-time arrivals in ID order, and consume its
// Poisson arrival draw even when the result is clamped — the invariant
// that keeps a tightened cap from shifting every later draw. The draw
// contract of the rebirth pass (no draw at the cap, same-round kills
// eligible) and the id order of each round's events are pinned too. Also
// covers the partial-alive Population constructor churn plans build on.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/churn.h"
#include "sim/population.h"

namespace dynagg {
namespace {

ChurnParams BaseParams() {
  ChurnParams params;
  params.n = 64;
  params.initial = 32;
  params.arrival_rate = 1.5;
  params.death_prob = 0.02;
  params.rebirth_prob = 0.05;
  params.start_round = 0;
  params.end_round = 40;
  params.max_alive = 64;
  return params;
}

/// Applies every round of `plan` to a fresh partial population and returns
/// the per-round alive counts (the observable trajectory).
std::vector<int> AliveTrajectory(const ChurnPlan& plan,
                                 const ChurnParams& params) {
  Population pop(params.n, params.initial);
  std::vector<int> alive;
  for (int round = 0; round < params.end_round; ++round) {
    plan.Apply(round, &pop, nullptr);
    alive.push_back(pop.num_alive());
  }
  return alive;
}

TEST(ChurnPlanTest, SameSeedReplaysIdentically) {
  const ChurnParams params = BaseParams();
  Rng rng_a(123);
  Rng rng_b(123);
  const ChurnPlan plan_a = ChurnPlan::Build(params, rng_a);
  const ChurnPlan plan_b = ChurnPlan::Build(params, rng_b);
  EXPECT_EQ(AliveTrajectory(plan_a, params), AliveTrajectory(plan_b, params));
  const auto totals_a = plan_a.Totals();
  const auto totals_b = plan_b.Totals();
  EXPECT_EQ(totals_a.kills, totals_b.kills);
  EXPECT_EQ(totals_a.joins, totals_b.joins);
  EXPECT_EQ(totals_a.rebirths, totals_b.rebirths);
  // And the generators ended in the same state.
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(ChurnPlanTest, DifferentSeedsDiffer) {
  ChurnParams params = BaseParams();
  params.death_prob = 0.1;  // enough activity that collision is negligible
  Rng rng_a(1);
  Rng rng_b(2);
  const ChurnPlan plan_a = ChurnPlan::Build(params, rng_a);
  const ChurnPlan plan_b = ChurnPlan::Build(params, rng_b);
  EXPECT_NE(AliveTrajectory(plan_a, params), AliveTrajectory(plan_b, params));
}

TEST(ChurnPlanTest, MaxAliveCapsGrowth) {
  ChurnParams params = BaseParams();
  params.arrival_rate = 8;  // heavy arrival pressure against the cap
  params.death_prob = 0.05;
  params.max_alive = 40;
  Rng rng(7);
  const ChurnPlan plan = ChurnPlan::Build(params, rng);
  for (const int alive : AliveTrajectory(plan, params)) {
    EXPECT_LE(alive, params.max_alive);
  }
  EXPECT_GT(plan.Totals().joins, 0);
}

TEST(ChurnPlanTest, NoEventsOutsideTheWindow) {
  ChurnParams params = BaseParams();
  params.start_round = 10;
  params.end_round = 20;
  params.death_prob = 0.5;  // any round inside the window churns for sure
  Rng rng(9);
  const ChurnPlan plan = ChurnPlan::Build(params, rng);
  Population pop(params.n, params.initial);
  for (int round = 0; round < 40; ++round) {
    const auto delta = plan.Apply(round, &pop, nullptr);
    if (round < params.start_round || round >= params.end_round) {
      EXPECT_EQ(delta.kills + delta.joins + delta.rebirths, 0)
          << "event outside churn window at round " << round;
    }
  }
  EXPECT_GT(plan.Totals().kills, 0);
}

TEST(ChurnPlanTest, ArrivalsComeFromTheUnbornPoolInIdOrder) {
  ChurnParams params = BaseParams();
  params.death_prob = 0;
  params.rebirth_prob = 0;
  params.arrival_rate = 2;
  Rng rng(11);
  const ChurnPlan plan = ChurnPlan::Build(params, rng);
  Population pop(params.n, params.initial);
  std::vector<HostId> joined;
  for (int round = 0; round < params.end_round; ++round) {
    plan.Apply(round, &pop, [&](HostId id) { joined.push_back(id); });
  }
  ASSERT_FALSE(joined.empty());
  // First arrival is the first unborn ID, and each arrival is the next one.
  for (size_t k = 0; k < joined.size(); ++k) {
    EXPECT_EQ(joined[k], static_cast<HostId>(params.initial + k));
  }
  // Never more arrivals than the universe holds.
  EXPECT_LE(joined.size(), static_cast<size_t>(params.n - params.initial));
}

TEST(ChurnPlanTest, TotalsMatchAppliedDeltas) {
  const ChurnParams params = BaseParams();
  Rng rng(13);
  const ChurnPlan plan = ChurnPlan::Build(params, rng);
  Population pop(params.n, params.initial);
  ChurnPlan::RoundDelta sum;
  int on_join_calls = 0;
  for (int round = 0; round < params.end_round; ++round) {
    const auto delta =
        plan.Apply(round, &pop, [&](HostId) { ++on_join_calls; });
    sum.kills += delta.kills;
    sum.joins += delta.joins;
    sum.rebirths += delta.rebirths;
  }
  const auto totals = plan.Totals();
  EXPECT_EQ(sum.kills, totals.kills);
  EXPECT_EQ(sum.joins, totals.joins);
  EXPECT_EQ(sum.rebirths, totals.rebirths);
  // on_join fires for arrivals AND rebirths, never for kills.
  EXPECT_EQ(on_join_calls, totals.joins + totals.rebirths);
  EXPECT_FALSE(plan.empty());
}

// The determinism contract's draw-granularity clause: the Poisson arrival
// draw is consumed every churning round even when the growth cap clamps
// the admitted count to zero, so the cap changes which joins happen — not
// the random sequence behind everything after it.
TEST(ChurnPlanTest, CapClampConsumesTheArrivalDraw) {
  ChurnParams open = BaseParams();
  open.death_prob = 0;
  open.rebirth_prob = 0;  // arrivals are the only draws
  ChurnParams capped = open;
  capped.max_alive = capped.initial;  // every arrival clamped away
  Rng rng_open(42);
  Rng rng_capped(42);
  const ChurnPlan plan_open = ChurnPlan::Build(open, rng_open);
  const ChurnPlan plan_capped = ChurnPlan::Build(capped, rng_capped);
  EXPECT_GT(plan_open.Totals().joins, 0);
  EXPECT_EQ(plan_capped.Totals().joins, 0);
  EXPECT_TRUE(plan_capped.empty());
  // Same draws consumed despite the clamp.
  EXPECT_EQ(rng_open.Next(), rng_capped.Next());
}

// The cap check precedes each rebirth draw: while the population is at or
// above max_alive, the dead hosts consume no RNG, so the plan draws exactly
// what the same plan with no rebirths draws.
TEST(ChurnPlanTest, PopulationAtTheCapDrawsNoRebirths) {
  ChurnParams at_cap = BaseParams();
  at_cap.initial = 60;
  at_cap.max_alive = 40;  // 60 alive hosts, 10% deaths: stays above 40
  at_cap.arrival_rate = 0;
  at_cap.death_prob = 0.1;
  at_cap.rebirth_prob = 0.9;
  at_cap.end_round = 3;
  ChurnParams no_rebirths = at_cap;
  no_rebirths.rebirth_prob = 0;
  Rng rng_at_cap(21);
  Rng rng_no_rebirths(21);
  const ChurnPlan plan = ChurnPlan::Build(at_cap, rng_at_cap);
  ChurnPlan::Build(no_rebirths, rng_no_rebirths);
  for (const int alive : AliveTrajectory(plan, at_cap)) {
    ASSERT_GE(alive, at_cap.max_alive);
  }
  EXPECT_GT(plan.Totals().kills, 0);  // there were dead hosts to consider
  EXPECT_EQ(plan.Totals().rebirths, 0);
  EXPECT_EQ(rng_at_cap.draw_count(), rng_no_rebirths.draw_count());
}

// A host killed in round r is a dead born host for round r's rebirth pass.
// Round 0 starts with every host alive, so each of its rebirths is a host
// that died in that same round.
TEST(ChurnPlanTest, HostKilledInARoundCanBeRebornInIt) {
  ChurnParams params = BaseParams();
  params.initial = params.n;
  params.arrival_rate = 0;
  params.death_prob = 0.5;
  params.rebirth_prob = 0.9;
  params.end_round = 1;
  Rng rng(5);
  const ChurnPlan plan = ChurnPlan::Build(params, rng);
  Population pop(params.n);
  std::vector<HostId> reborn;
  const auto delta =
      plan.Apply(0, &pop, [&](HostId id) { reborn.push_back(id); });
  EXPECT_GT(delta.kills, 0);
  EXPECT_GT(delta.rebirths, 0);
  EXPECT_EQ(static_cast<int>(reborn.size()), delta.rebirths);
  EXPECT_EQ(pop.num_alive(), params.n - delta.kills + delta.rebirths);
}

// Each round's kills, rebirths and first-time arrivals are ascending by id.
// Kills are observed through the alive list they scramble (swap-with-last
// removal): it must match a copy that kills the same hosts in ascending id.
TEST(ChurnPlanTest, EachRoundsEventsAreAscendingById) {
  ChurnParams params = BaseParams();
  params.n = 400;
  params.initial = 200;
  params.max_alive = 400;
  params.arrival_rate = 6;
  params.death_prob = 0.1;
  params.rebirth_prob = 0.3;
  Rng rng(17);
  const ChurnPlan plan = ChurnPlan::Build(params, rng);
  Population pop(params.n, params.initial);
  std::vector<bool> born(params.n, false);
  for (HostId id = 0; id < params.initial; ++id) born[id] = true;
  int rounds_with_both = 0;
  for (int round = 0; round < params.end_round; ++round) {
    Population ascending_kills = pop;
    std::vector<HostId> joins;
    std::vector<HostId> rebirths;
    const auto delta = plan.Apply(round, &pop, [&](HostId id) {
      // Apply admits every first-time arrival before any rebirth.
      if (born[id]) {
        rebirths.push_back(id);
      } else {
        EXPECT_TRUE(rebirths.empty()) << "arrival after a rebirth";
        joins.push_back(id);
        born[id] = true;
      }
    });
    EXPECT_TRUE(std::is_sorted(joins.begin(), joins.end()));
    EXPECT_TRUE(std::is_sorted(rebirths.begin(), rebirths.end()));
    EXPECT_EQ(std::adjacent_find(rebirths.begin(), rebirths.end()),
              rebirths.end());
    // Replay the kills in ascending id: hosts alive before the round and
    // dead after it, plus the rebirths (dead in between, or killed and
    // reborn in this round when they were alive before it).
    std::vector<HostId> killed;
    for (HostId id = 0; id < params.n; ++id) {
      const bool reborn =
          std::binary_search(rebirths.begin(), rebirths.end(), id);
      if (ascending_kills.IsAlive(id) && (!pop.IsAlive(id) || reborn)) {
        killed.push_back(id);
      }
    }
    ASSERT_EQ(static_cast<int>(killed.size()), delta.kills);
    for (const HostId id : killed) ascending_kills.Kill(id);
    for (const HostId id : joins) ascending_kills.Revive(id);
    for (const HostId id : rebirths) ascending_kills.Revive(id);
    EXPECT_EQ(ascending_kills.alive_ids(), pop.alive_ids())
        << "round " << round << "'s kills are not in ascending id order";
    if (delta.kills > 1 && delta.rebirths > 1) ++rounds_with_both;
  }
  EXPECT_GT(rounds_with_both, 0);
}

TEST(ChurnPlanTest, DefaultPlanIsEmpty) {
  const ChurnPlan plan;
  EXPECT_TRUE(plan.empty());
  Population pop(8);
  const auto delta = plan.Apply(0, &pop, nullptr);
  EXPECT_EQ(delta.kills + delta.joins + delta.rebirths, 0);
  EXPECT_EQ(pop.num_alive(), 8);
}

// -------------------------------------------- partial-alive Population ---

TEST(PartialPopulationTest, UnbornHostsStartDead) {
  Population pop(10, 4);
  EXPECT_EQ(pop.size(), 10);
  EXPECT_EQ(pop.num_alive(), 4);
  for (HostId id = 0; id < 4; ++id) EXPECT_TRUE(pop.IsAlive(id));
  for (HostId id = 4; id < 10; ++id) EXPECT_FALSE(pop.IsAlive(id));
}

TEST(PartialPopulationTest, PartialUniverseStartsAlreadyMutated) {
  // version() == 0 promises "never mutated, everyone alive"; a partial
  // universe must not satisfy identity fast paths keyed on that.
  Population partial(10, 4);
  EXPECT_EQ(partial.version(), 1u);
  Population full(10, 10);
  EXPECT_EQ(full.version(), 0u);
}

TEST(PartialPopulationTest, RebirthWithIdReuseBumpsVersionAndFingerprint) {
  Population pop(10, 10);
  pop.Kill(3);
  const uint64_t version = pop.version();
  const uint64_t fingerprint = pop.fingerprint();
  pop.Revive(3);  // rebirth reusing the old ID
  EXPECT_GT(pop.version(), version);
  EXPECT_NE(pop.fingerprint(), fingerprint);
  EXPECT_TRUE(pop.IsAlive(3));
}

TEST(PartialPopulationTest, FirstArrivalBumpsVersionAndFingerprint) {
  Population pop(10, 4);
  const uint64_t version = pop.version();
  const uint64_t fingerprint = pop.fingerprint();
  pop.Revive(7);  // unborn host arrives
  EXPECT_GT(pop.version(), version);
  EXPECT_NE(pop.fingerprint(), fingerprint);
  EXPECT_EQ(pop.num_alive(), 5);
}

}  // namespace
}  // namespace dynagg
