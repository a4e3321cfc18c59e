// Round-kernel parity and determinism tests.
//
// The swarms run each round on the shared plan -> apply kernel; the
// reference loops below run it over node vectors with per-host SamplePeer
// draws, as the pre-kernel RunRound bodies did. Swarms and nodes evaluate
// each host's arithmetic with the same step functions (push_sum.h,
// push_sum_revert.h), so these tests pin what can still differ: the plan's
// host order, the RNG draws and the order in which deposits land in each
// inbox. They do so under mid-trial deaths, churn joins (each mode resets
// only the arrays it keeps), trace playback (AdvanceTo between rounds),
// and with the push loop split over intra-round threads. Full transfer
// has no node class; its rounds are pinned by the bench_ports_small
// golden (bench/scenarios/golden/), including churn joins.

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "agg/full_transfer.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "env/contact_trace.h"
#include "env/trace_env.h"
#include "env/uniform_env.h"
#include "sim/population.h"
#include "sim/round_kernel.h"
#include "sim/worker_pool.h"

namespace dynagg {
namespace {

/// The kernel clamps intra_round_threads to WorkerPool::VisibleCpus(), so
/// on a single-CPU CI host the "parallel" swarm would silently take the
/// one-thread walk and these determinism tests would compare it to itself.
/// Forcing the visible count keeps the destination-sharded walk under test
/// on any host; the override is restored on scope exit.
class ScopedVisibleCpus {
 public:
  explicit ScopedVisibleCpus(int n) { WorkerPool::OverrideVisibleCpusForTest(n); }
  ~ScopedVisibleCpus() { WorkerPool::OverrideVisibleCpusForTest(0); }
};

std::vector<double> TestValues(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble(0, 100);
  return values;
}

// ------------------------- pre-refactor reference implementations ---
//
// Exact copies of the PR <= 3 RunRound bodies, expressed over PushSumNode /
// PushSumRevertNode vectors.

void LegacyPushSumRound(std::vector<PushSumNode>& nodes, GossipMode mode,
                        const Environment& env, const Population& pop,
                        Rng& rng, std::vector<HostId>& order) {
  if (mode == GossipMode::kPush) {
    for (const HostId i : pop.alive_ids()) {
      const Mass out = nodes[i].EmitPushHalf();
      const HostId peer = env.SamplePeer(i, pop, rng);
      nodes[peer == kInvalidHost ? i : peer].Deposit(out);
    }
    for (const HostId i : pop.alive_ids()) nodes[i].EndRound();
    return;
  }
  ShuffledAliveOrder(pop, rng, &order);
  for (const HostId i : order) {
    const HostId peer = env.SamplePeer(i, pop, rng);
    if (peer == kInvalidHost) continue;
    PushSumNode::Exchange(nodes[i], nodes[peer]);
  }
}

void LegacyPsrRound(std::vector<PushSumRevertNode>& nodes,
                    const PsrParams& params, const Environment& env,
                    const Population& pop, Rng& rng,
                    std::vector<HostId>& order) {
  if (params.mode == GossipMode::kPush) {
    for (const HostId i : pop.alive_ids()) {
      const Mass out = nodes[i].EmitPushHalf(params.lambda, params.revert);
      const HostId peer = env.SamplePeer(i, pop, rng);
      nodes[peer == kInvalidHost ? i : peer].Deposit(out);
    }
    for (const HostId i : pop.alive_ids()) {
      nodes[i].EndRoundPush(params.lambda, params.revert);
    }
    return;
  }
  ShuffledAliveOrder(pop, rng, &order);
  for (const HostId i : order) {
    const HostId peer = env.SamplePeer(i, pop, rng);
    if (peer == kInvalidHost) continue;
    PushSumRevertNode::Exchange(nodes[i], nodes[peer]);
  }
  for (const HostId i : pop.alive_ids()) {
    nodes[i].EndRoundPushPull(params.lambda, params.revert);
  }
}

/// The round whose revival of host 1 the join-capable parity tests treat
/// as a churn join: the swarm's OnJoin against the node's Init.
constexpr int kJoinRound = 5;

/// Applies the same scripted deaths/revivals to both populations.
void Mutate(Population& pop, int round) {
  const int n = pop.size();
  if (round == 2) {
    for (HostId id = 0; id < n / 4; ++id) pop.Kill(id);
  }
  if (round == kJoinRound) {
    pop.Revive(1);
    pop.Kill(n - 1);
  }
}

// ------------------------------------------------- push-sum parity ---

void CheckPushSumParity(GossipMode mode) {
  const int n = 200;
  const std::vector<double> values = TestValues(n, 99);

  PushSumSwarm swarm(values, mode);
  std::vector<PushSumNode> nodes(n);
  for (int i = 0; i < n; ++i) nodes[i].Init(values[i]);

  UniformEnvironment env(n);
  Population pop_a(n);
  Population pop_b(n);
  Rng rng_a(4242);
  Rng rng_b(4242);
  std::vector<HostId> order;
  for (int round = 0; round < 8; ++round) {
    Mutate(pop_a, round);
    Mutate(pop_b, round);
    if (round == kJoinRound) {
      swarm.OnJoin(1);
      nodes[1].Init(values[1]);
    }
    swarm.RunRound(env, pop_a, rng_a);
    LegacyPushSumRound(nodes, mode, env, pop_b, rng_b, order);
    for (HostId id = 0; id < n; ++id) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(swarm.Estimate(id), nodes[id].Estimate())
          << "round " << round << " host " << id;
    }
  }
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(RoundKernelParityTest, PushSumPushBitIdenticalToLegacyLoop) {
  CheckPushSumParity(GossipMode::kPush);
}

TEST(RoundKernelParityTest, PushSumPushPullBitIdenticalToLegacyLoop) {
  CheckPushSumParity(GossipMode::kPushPull);
}

TEST(RoundKernelParityTest, PsrBitIdenticalToLegacyLoop) {
  for (const GossipMode mode : {GossipMode::kPush, GossipMode::kPushPull}) {
    for (const RevertMode revert :
         {RevertMode::kFixed, RevertMode::kAdaptive}) {
      const int n = 150;
      const std::vector<double> values = TestValues(n, 7);
      const PsrParams params{.lambda = 0.05, .mode = mode, .revert = revert};
      PushSumRevertSwarm swarm(values, params);
      std::vector<PushSumRevertNode> nodes(n);
      for (int i = 0; i < n; ++i) nodes[i].Init(values[i]);
      UniformEnvironment env(n);
      Population pop_a(n);
      Population pop_b(n);
      Rng rng_a(1717);
      Rng rng_b(1717);
      std::vector<HostId> order;
      for (int round = 0; round < 8; ++round) {
        Mutate(pop_a, round);
        Mutate(pop_b, round);
        if (round == kJoinRound) {
          swarm.OnJoin(1);
          nodes[1].Init(values[1]);
        }
        swarm.RunRound(env, pop_a, rng_a);
        LegacyPsrRound(nodes, params, env, pop_b, rng_b, order);
        for (HostId id = 0; id < n; ++id) {
          ASSERT_EQ(swarm.Estimate(id), nodes[id].Estimate())
              << "round " << round << " host " << id;
        }
      }
      EXPECT_EQ(rng_a.Next(), rng_b.Next());
    }
  }
}

// --------------------------------------------- trace-env invalidation ---

TEST(RoundKernelParityTest, TraceEnvironmentAdvanceToRebuildsMidTrial) {
  // Dense clique so the trace env's cached alive-neighbor rows are
  // exercised; links flip halfway through.
  ContactTrace trace(16);
  for (HostId a = 0; a < 16; ++a) {
    for (HostId b = a + 1; b < 16; ++b) {
      if ((a + b) % 2 == 0) {
        trace.AddContact(a, b, FromSeconds(0), FromSeconds(100));
      } else {
        trace.AddContact(a, b, FromSeconds(100), FromSeconds(200));
      }
    }
  }
  trace.Finalize();
  const std::vector<double> values = TestValues(16, 5);

  PushSumSwarm swarm(values, GossipMode::kPush);
  std::vector<PushSumNode> nodes(16);
  for (int i = 0; i < 16; ++i) nodes[i].Init(values[i]);

  TraceEnvironment env_a(trace);
  TraceEnvironment env_b(trace);
  Population pop_a(16);
  Population pop_b(16);
  Rng rng_a(88);
  Rng rng_b(88);
  std::vector<HostId> order;
  for (int round = 0; round < 20; ++round) {
    const SimTime t = FromSeconds((round + 1) * 10.0);
    env_a.AdvanceTo(t);
    env_b.AdvanceTo(t);
    if (round == 7) {
      pop_a.Kill(3);
      pop_b.Kill(3);
    }
    swarm.RunRound(env_a, pop_a, rng_a);
    LegacyPushSumRound(nodes, GossipMode::kPush, env_b, pop_b, rng_b, order);
    for (HostId id = 0; id < 16; ++id) {
      ASSERT_EQ(swarm.Estimate(id), nodes[id].Estimate())
          << "round " << round << " host " << id;
    }
  }
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

// ----------------------------------------- threaded push deposit loop ---

/// Runs `sequential` and `parallel` (the same swarm type and inputs, the
/// second at `threads` intra-round threads) side by side through scripted
/// deaths and revivals, both planned from `seed`; estimates must match bit
/// for bit every round.
template <typename Swarm>
void CheckThreadedRoundsBitIdentical(Swarm& sequential, Swarm& parallel,
                                     int threads, int rounds, uint64_t seed) {
  parallel.set_intra_round_threads(threads);
  const int n = sequential.size();
  UniformEnvironment env(n);
  Population pop_a(n);
  Population pop_b(n);
  Rng rng_a(seed);
  Rng rng_b(seed);
  for (int round = 0; round < rounds; ++round) {
    Mutate(pop_a, round);
    Mutate(pop_b, round);
    sequential.RunRound(env, pop_a, rng_a);
    parallel.RunRound(env, pop_b, rng_b);
    for (HostId id = 0; id < n; ++id) {
      // Floating-point accumulation order is preserved per destination, so
      // this is exact equality, not tolerance.
      ASSERT_EQ(sequential.Estimate(id), parallel.Estimate(id))
          << "round " << round << " host " << id;
    }
  }
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(RoundKernelTest, PushDepositsBitIdenticalAtAnyThreadCount) {
  // Big enough to clear the kernel's minimum-parallel-slots gate.
  const ScopedVisibleCpus forced(4);
  const int n = 6000;
  const std::vector<double> values = TestValues(n, 404);
  {
    SCOPED_TRACE("push-sum");
    PushSumSwarm sequential(values, GossipMode::kPush);
    PushSumSwarm parallel(values, GossipMode::kPush);
    CheckThreadedRoundsBitIdentical(sequential, parallel, 3, 6, 606);
  }
  // Adaptive reversion also reads the per-destination message counter,
  // which the self echo and every partner deposit bump.
  for (const RevertMode revert : {RevertMode::kFixed, RevertMode::kAdaptive}) {
    SCOPED_TRACE(revert == RevertMode::kFixed ? "psr fixed" : "psr adaptive");
    const PsrParams params{
        .lambda = 0.05, .mode = GossipMode::kPush, .revert = revert};
    PushSumRevertSwarm sequential(values, params);
    PushSumRevertSwarm parallel(values, params);
    CheckThreadedRoundsBitIdentical(sequential, parallel, 3, 6, 606);
  }
}

TEST(RoundKernelTest, PushDepositThreadsOnFullTransferBitIdentical) {
  const ScopedVisibleCpus forced(4);
  const int n = 2000;  // 4 parcels/host -> 8000 slots, above the gate
  const std::vector<double> values = TestValues(n, 505);
  const FullTransferParams params{.lambda = 0.1, .parcels = 4, .window = 3};
  FullTransferSwarm sequential(values, params);
  FullTransferSwarm parallel(values, params);
  CheckThreadedRoundsBitIdentical(sequential, parallel, 4, 5, 707);
}

// ------------------------------------------------ transposed plan ---

/// Draws a uniformly random alive peer other than `i`, or no peer at all
/// for about a fifth of the draws, so plans carry unmatched slots.
class SpottyEnvironment : public Environment {
 public:
  explicit SpottyEnvironment(int n) : n_(n) {}
  int num_hosts() const override { return n_; }
  HostId SamplePeer(HostId i, const Population& pop,
                    Rng& rng) const override {
    if (rng.UniformInt(5) == 0) return kInvalidHost;
    const auto& alive = pop.alive_ids();
    const HostId peer = alive[rng.UniformInt(alive.size())];
    return peer == i ? kInvalidHost : peer;
  }
  void AppendNeighbors(HostId, const Population&,
                       std::vector<HostId>*) const override {}

 private:
  int n_;
};

/// Runs ForEachPushDeposit over the kernel's current plan with the
/// initiator id as the payload and checks that every host receives the
/// sequential push loop's deposits: slot order, a slot's self echo (when
/// on) before its partner deposit, an unmatched slot's initiator twice.
void ExpectPushDepositsInSlotOrder(const RoundKernel& kernel, int n,
                                   bool self_echo) {
  const PartnerPlan& plan = kernel.plan();
  std::vector<std::vector<HostId>> want(n);
  for (size_t k = 0; k < plan.size(); ++k) {
    const HostId init = plan.initiator(k);
    if (self_echo) want[init].push_back(init);
    want[plan.EffectivePartner(k)].push_back(init);
  }
  std::vector<std::vector<HostId>> deposits(n);
  kernel.ForEachPushDeposit(
      n, self_echo, [](HostId src) { return src; },
      // Each dst is owned by one worker, so its list is unshared.
      [&](HostId dst, HostId src) { deposits[dst].push_back(src); },
      [n](HostId dst) { ASSERT_TRUE(dst >= 0 && dst < n); });
  for (HostId id = 0; id < n; ++id) {
    ASSERT_EQ(deposits[id], want[id])
        << "self_echo " << self_echo << " host " << id;
  }
}

TEST(RoundKernelTest, PushDestinationsFollowPushLoopDepositOrder) {
  // ForEachPushDestination's source lists and ForEachPushDeposit's
  // deposits must both follow the sequential push loop's order.
  // Above the minimum-parallel-slots gate, so T > 1 really shards.
  const int n = 7000;
  SpottyEnvironment env(n);
  for (int threads = 1; threads <= 4; ++threads) {
    const ScopedVisibleCpus forced(threads);
    for (const int slots_per_initiator : {1, 2}) {
      Population pop(n);
      // Non-identity initiators: a dead prefix and scattered dead hosts.
      // (Round 0 of the one-slot plan keeps a full population instead.)
      if (slots_per_initiator == 2) {
        for (HostId id = 0; id < n / 5; ++id) pop.Kill(id);
        for (HostId id = n / 2; id < n; id += 7) pop.Kill(id);
      }
      RoundKernel kernel;
      kernel.set_intra_round_threads(threads);
      Rng rng(900 + threads);
      for (int round = 0; round < 3; ++round) {
        const PartnerPlan& plan =
            kernel.PlanPushRound(env, pop, rng, slots_per_initiator);
        // The push loop's deposits: per slot, the self echo, then the
        // partner deposit (the initiator again when unmatched).
        std::vector<std::vector<HostId>> expected(n);
        for (size_t k = 0; k < plan.size(); ++k) {
          const HostId init = plan.initiator(k);
          expected[init].push_back(init);
          expected[plan.EffectivePartner(k)].push_back(init);
        }
        std::vector<int> visits(n, 0);
        std::vector<std::vector<HostId>> got(n);
        kernel.ForEachPushDestination(
            n, [&](HostId dst, std::span<const HostId> sources) {
              ++visits[dst];  // each dst is owned by one worker
              got[dst].assign(sources.begin(), sources.end());
            });
        for (HostId id = 0; id < n; ++id) {
          ASSERT_EQ(visits[id], expected[id].empty() ? 0 : 1)
              << "threads " << threads << " host " << id;
          ASSERT_EQ(got[id], expected[id])
              << "threads " << threads << " host " << id;
        }
        // The push deposit loop lands the same lists, one deposit per
        // entry; without the self echo only the partner deposits remain.
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        ExpectPushDepositsInSlotOrder(kernel, n, /*self_echo=*/true);
        ExpectPushDepositsInSlotOrder(kernel, n, /*self_echo=*/false);
        // Mutate between rounds: kill a block, revive part of it.
        for (HostId id = n / 3; id < n / 3 + 500; ++id) pop.Kill(id);
        for (HostId id = n / 3; id < n / 3 + 500; id += 3) pop.Revive(id);
      }
    }
  }
}

/// Sends every matched slot's partner into the host ids [lo, hi), and
/// leaves about a fifth of the slots unmatched.
class FunnelEnvironment : public Environment {
 public:
  FunnelEnvironment(int n, HostId lo, HostId hi) : n_(n), lo_(lo), hi_(hi) {}
  int num_hosts() const override { return n_; }
  HostId SamplePeer(HostId, const Population&, Rng& rng) const override {
    if (rng.UniformInt(5) == 0) return kInvalidHost;
    return lo_ + static_cast<HostId>(rng.UniformInt(hi_ - lo_));
  }
  void AppendNeighbors(HostId, const Population&,
                       std::vector<HostId>*) const override {}

 private:
  int n_;
  HostId lo_;
  HostId hi_;
};

TEST(RoundKernelTest, PushDepositsFunneledIntoOneRangeKeepSlotOrder) {
  // The sharded walk's worst case: every partner deposit lands in the last
  // worker's range, so that worker's chunks carry two events a slot (its
  // initiators' self echoes plus every partner deposit) and fill the
  // chunk buffer.
  struct Case {
    int hosts;
    int slots_per_initiator;
    bool dead_prefix;
  };
  const Case cases[] = {
      // A dead prefix and scattered dead hosts: non-identity initiators,
      // and a slot count that is not a multiple of the chunk size.
      {6 * static_cast<int>(RoundKernel::kPushChunk) + 123, 1, true},
      // Identity initiators (slot k is host k); the ranges are not
      // chunk-aligned.
      {5 * static_cast<int>(RoundKernel::kPushChunk) + 77, 1, false},
      // The smallest plan that still shards, two slots per initiator:
      // a few chunks, the last one partial.
      {static_cast<int>(RoundKernel::kMinParallelSlots) / 2 + 1, 2, false},
  };
  for (const int threads : {2, 3, 4}) {
    const ScopedVisibleCpus forced(threads);
    for (const Case& c : cases) {
      const int n = c.hosts;
      Population pop(n);
      if (c.dead_prefix) {
        for (HostId id = 0; id < n / 5; ++id) pop.Kill(id);
        for (HostId id = n / 2; id < n; id += 7) pop.Kill(id);
      }
      // ForEachHostRange's split: the last worker owns [lo, n).
      const auto lo =
          static_cast<HostId>(int64_t{n} * (threads - 1) / threads);
      FunnelEnvironment env(n, lo, n);
      RoundKernel kernel;
      kernel.set_intra_round_threads(threads);
      Rng rng(300 + threads);
      for (int round = 0; round < 2; ++round) {
        const PartnerPlan& plan =
            kernel.PlanPushRound(env, pop, rng, c.slots_per_initiator);
        ASSERT_GE(plan.size(), RoundKernel::kMinParallelSlots);
        ASSERT_NE(plan.size() % RoundKernel::kPushChunk, 0u);
        SCOPED_TRACE(testing::Message()
                     << "threads " << threads << " hosts " << n);
        ExpectPushDepositsInSlotOrder(kernel, n, /*self_echo=*/true);
        ExpectPushDepositsInSlotOrder(kernel, n, /*self_echo=*/false);
      }
    }
  }
}

TEST(RoundKernelTest, MassConservedAcrossKernelRounds) {
  const int n = 300;
  const std::vector<double> values = TestValues(n, 9);
  PushSumSwarm swarm(values, GossipMode::kPush);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(2);
  double expected_weight = n;
  for (int round = 0; round < 10; ++round) {
    swarm.RunRound(env, pop, rng);
    EXPECT_NEAR(swarm.TotalAliveMass(pop).weight, expected_weight, 1e-9);
  }
}

}  // namespace
}  // namespace dynagg
