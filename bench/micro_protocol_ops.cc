// Microbenchmarks of the per-round protocol primitives (google-benchmark).
//
// These quantify the per-host cost of each protocol step — the quantities a
// deployment would budget against radio and CPU duty cycles: mass
// exchanges, counter aging/merging, sketch estimation and payload
// serialization.

#include <benchmark/benchmark.h>

#include <vector>

#include "agg/aggregator.h"
#include "agg/count_sketch_reset.h"
#include "agg/fm_sketch.h"
#include "agg/push_flow.h"
#include "agg/push_sum.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/uniform_env.h"
#include "net/inflight_queue.h"
#include "net/message.h"
#include "net/network_model.h"
#include "sim/churn.h"
#include "sim/population.h"
#include "sim/workload.h"
#include "stream/stream_swarm.h"

namespace dynagg {
namespace {

void BM_PushSumExchange(benchmark::State& state) {
  PushSumNode a;
  PushSumNode b;
  a.Init(1.0);
  b.Init(2.0);
  for (auto _ : state) {
    PushSumNode::Exchange(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_PushSumExchange);

void BM_PushSumSwarmRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> values(n, 1.0);
  PushSumSwarm swarm(values, GossipMode::kPushPull);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (auto _ : state) {
    swarm.RunRound(env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PushSumSwarmRound)->Arg(1000)->Arg(10000)->Arg(100000);

// ----------------------------------------------------- round kernel ---
//
// The Environment API v2 before/after pair that BENCH_roundkernel.json
// tracks (tools/bench.sh): a push-mode push-sum round over a uniform
// environment, per-host virtual SamplePeer (the pre-refactor structure,
// replicated below) vs the shared plan -> apply kernel at 1 and N scatter
// threads. RNG draws and results are identical; only the structure differs.

/// Pre-refactor reference round: emit, one virtual SamplePeer per host
/// (each deposit's address serialized behind its partner draw), deposit.
void LegacyPushRound(std::vector<PushSumNode>& nodes, const Environment& env,
                     const Population& pop, Rng& rng) {
  for (const HostId i : pop.alive_ids()) {
    const Mass out = nodes[i].EmitPushHalf();
    const HostId peer = env.SamplePeer(i, pop, rng);
    nodes[peer == kInvalidHost ? i : peer].Deposit(out);
  }
  for (const HostId i : pop.alive_ids()) nodes[i].EndRound();
}

void BM_PushRoundLegacy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<PushSumNode> nodes(n);
  for (int i = 0; i < n; ++i) nodes[i].Init(1.0);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (auto _ : state) {
    LegacyPushRound(nodes, env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PushRoundLegacy)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_PushRoundKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> values(n, 1.0);
  PushSumSwarm swarm(values, GossipMode::kPush);
  swarm.set_intra_round_threads(static_cast<int>(state.range(1)));
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (auto _ : state) {
    swarm.RunRound(env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
/// A churned round at the 100k rung — what BENCH_roundkernel.json tracks
/// as churn_100k: apply one precomputed ChurnPlan round (deaths, rebirths
/// and arrivals at ~1%/round each side, on_join resets through the swarm)
/// and then run the push round. The membership mutations invalidate the
/// environment's cached partner plan, so this prices the invalidation +
/// rebuild the steady-state kernel number never pays.
void BM_ChurnedPushRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> values(n, 1.0);
  PushSumSwarm swarm(values, GossipMode::kPush);
  UniformEnvironment env(n);
  Population pop(n, n * 9 / 10);
  ChurnParams params;
  params.n = n;
  params.initial = n * 9 / 10;
  params.arrival_rate = n / 100.0;
  params.death_prob = 0.01;
  params.rebirth_prob = 0.1;
  params.start_round = 0;
  params.end_round = 64;
  params.max_alive = n;
  Rng churn_rng(7);
  const ChurnPlan plan = ChurnPlan::Build(params, churn_rng);
  Rng rng(1);
  int round = 0;
  for (auto _ : state) {
    plan.Apply(round & 63, &pop, [&](HostId id) { swarm.OnJoin(id); });
    ++round;
    swarm.RunRound(env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChurnedPushRound)->Arg(100000);

BENCHMARK(BM_PushRoundKernel)
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({1000000, 1})
    ->Args({1000000, 2})
    ->Args({1000000, 4});

/// Pre-refactor reference push/pull round: shuffle, then one virtual
/// SamplePeer per host with both exchange-side node accesses serialized
/// behind the draw.
void LegacyPushPullRound(std::vector<PushSumNode>& nodes,
                         const Environment& env, const Population& pop,
                         Rng& rng, std::vector<HostId>& order) {
  ShuffledAliveOrder(pop, rng, &order);
  for (const HostId i : order) {
    const HostId peer = env.SamplePeer(i, pop, rng);
    if (peer == kInvalidHost) continue;
    PushSumNode::Exchange(nodes[i], nodes[peer]);
  }
}

void BM_PushPullRoundLegacy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<PushSumNode> nodes(n);
  for (int i = 0; i < n; ++i) nodes[i].Init(1.0);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  std::vector<HostId> order;
  for (auto _ : state) {
    LegacyPushPullRound(nodes, env, pop, rng, order);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PushPullRoundLegacy)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_PushPullRoundKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> values(n, 1.0);
  PushSumSwarm swarm(values, GossipMode::kPushPull);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (auto _ : state) {
    swarm.RunRound(env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PushPullRoundKernel)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_StreamCountMinRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  stream::StreamSwarmParams params;
  params.kind = stream::SketchKind::kCountMin;
  params.depth = 2;
  params.width = 32;
  params.hash_seed = 7;
  params.batch = 8;
  KeyedStreamGen gen(KeyStreamKind::kZipf, 1000000, 1.1, 42);
  stream::StreamSketchSwarm swarm(n, params, gen);
  swarm.set_track_truth(false);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (auto _ : state) {
    swarm.RunRound(env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StreamCountMinRound)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_AsyncDriverStep(benchmark::State& state) {
  // One async-driver gossip step at scale, structured exactly like the
  // production driver: drain the in-flight messages due by this tick, plan
  // a push-flow tick, decide every message's fate through the
  // per-message-seeded network model, park the survivors in the batched
  // InFlightQueue (the driver's sort-on-drain buffer — no per-message
  // events). The uniform environment pairs hosts at random, so each
  // host's push-flow peer list grows by about two entries per iteration:
  // a rung's time per step depends on how many iterations it ran.
  const int n = static_cast<int>(state.range(0));
  std::vector<double> values(n, 1.0);
  PushFlowSwarm swarm(values);
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  net::NetworkParams params;
  params.latency = net::LatencyKind::kExponential;
  params.latency_s = 10.0;
  params.loss = 0.1;
  net::NetworkModel model(params, 99);
  std::vector<net::Message> wave;
  net::InFlightQueue inflight;
  inflight.Reserve(static_cast<size_t>(n));
  const SimTime period = FromSeconds(30.0);
  SimTime now = 0;
  uint64_t index = 0;
  for (auto _ : state) {
    now += period;
    while (inflight.HasDueBy(now)) {
      swarm.Deliver(inflight.Top());
      inflight.Pop();
    }
    wave.clear();
    swarm.PlanAsyncTick(env, pop, rng, &wave);
    for (const net::Message& m : wave) {
      const net::NetworkModel::Delivery d = model.Decide(index++);
      if (!d.dropped) inflight.Push(now + d.delay, m);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AsyncDriverStep)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_PsrSwarmRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> values(n, 1.0);
  PushSumRevertSwarm swarm(values,
                           {.lambda = 0.01, .mode = GossipMode::kPushPull});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (auto _ : state) {
    swarm.RunRound(env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PsrSwarmRound)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CsrAgeCounters(benchmark::State& state) {
  CountSketchResetNode node;
  node.Init(CsrParams{}, 1, 1);
  for (auto _ : state) {
    node.AgeCounters();
    benchmark::DoNotOptimize(node);
  }
  state.SetBytesProcessed(state.iterations() * 64 * 24);
}
BENCHMARK(BM_CsrAgeCounters);

void BM_CsrExchangeMerge(benchmark::State& state) {
  CountSketchResetNode a;
  CountSketchResetNode b;
  a.Init(CsrParams{}, 1, 1);
  b.Init(CsrParams{}, 2, 1);
  for (auto _ : state) {
    CountSketchResetNode::ExchangeMerge(a, b);
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(state.iterations() * 64 * 24 * 2);
}
BENCHMARK(BM_CsrExchangeMerge);

void BM_CsrEstimate(benchmark::State& state) {
  // A converged node (2,000 hosts, 30 rounds): runs are ~log2(n/m) levels
  // long, the scan a metric evaluation pays every round.
  const int n = 2000;
  CsrSwarm swarm(std::vector<int64_t>(n, 1), CsrParams{});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (int round = 0; round < 30; ++round) swarm.RunRound(env, pop, rng);
  const CountSketchResetNode& node = swarm.node(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.EstimateCount());
  }
}
BENCHMARK(BM_CsrEstimate);

void BM_CsrSwarmRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int64_t> ones(n, 1);
  CsrSwarm swarm(ones, CsrParams{});
  UniformEnvironment env(n);
  Population pop(n);
  Rng rng(1);
  for (auto _ : state) {
    swarm.RunRound(env, pop, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CsrSwarmRound)->Arg(1000)->Arg(10000)->Arg(40000);

void BM_FmSketchInsert(benchmark::State& state) {
  FmSketch sketch(64, 32);
  uint64_t id = 0;
  for (auto _ : state) {
    sketch.InsertObject(++id, 7);
    benchmark::DoNotOptimize(sketch);
  }
}
BENCHMARK(BM_FmSketchInsert);

void BM_AggregatorRoundTrip(benchmark::State& state) {
  AggregatorConfig config;
  NodeAggregator a(1, 10.0, config);
  NodeAggregator b(2, 20.0, config);
  for (auto _ : state) {
    const auto request = a.BeginRound();
    b.BeginRound();
    auto reply = b.HandleMessage(request);
    benchmark::DoNotOptimize(a.HandleReply(*reply));
    a.EndRound();
    b.EndRound();
  }
}
BENCHMARK(BM_AggregatorRoundTrip);

}  // namespace
}  // namespace dynagg

BENCHMARK_MAIN();
