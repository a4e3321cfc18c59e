// StreamSketchSwarm against a row-major reference round: the swarm keeps
// its state block-major and gathers one column block at a time into a
// spare region, and every host's stride must still match, bit for bit,
// the textbook round that absorbs the arrivals and then sums each
// destination's sources' halves in slot order into a zeroed row. Covered:
// both sketch kinds, a stride with a partial last block, a stride shorter
// than one block, a churned population (dead hosts keep their state,
// OnJoin resets) and 1, 2 and 4 intra-round threads.

#include "stream/stream_swarm.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "env/uniform_env.h"
#include "obs/telemetry.h"
#include "sim/population.h"
#include "sim/round_kernel.h"
#include "sim/worker_pool.h"
#include "sim/workload.h"

namespace dynagg {
namespace stream {
namespace {

class ScopedVisibleCpus {
 public:
  explicit ScopedVisibleCpus(int n) {
    WorkerPool::OverrideVisibleCpusForTest(n);
  }
  ~ScopedVisibleCpus() { WorkerPool::OverrideVisibleCpusForTest(0); }
};

// Above RoundKernel::kMinParallelSlots even after the churn below, so
// T > 1 really splits the destinations.
constexpr int kHosts = 5000;

/// The swarm's round, row-major: rows_[h] is host h's whole stride.
class ReferenceSwarm {
 public:
  ReferenceSwarm(int n, const StreamSwarmParams& params,
                 const KeyedStreamGen& gen)
      : params_(params),
        gen_(gen),
        hash_(params.depth, params.width, params.hash_seed),
        rows_(n, std::vector<double>(hash_.cells() + 2, 0.0)) {
    for (auto& row : rows_) row[hash_.cells()] = 1.0;
  }

  void OnJoin(HostId id) {
    rows_[id].assign(rows_[id].size(), 0.0);
    rows_[id][hash_.cells()] = 1.0;
  }

  /// One round over `plan`, the plan the swarm draws for this round.
  void RunRound(const Population& pop, const PartnerPlan& plan) {
    if (params_.arrival_rounds < 0 || round_ < params_.arrival_rounds) {
      std::vector<uint64_t> keys;
      for (const HostId id : pop.alive_ids()) {
        gen_.FillBatch(id, round_, params_.batch, &keys);
        for (const uint64_t key : keys) {
          for (int r = 0; r < hash_.depth(); ++r) {
            rows_[id][hash_.Slot(r, key)] +=
                params_.kind == SketchKind::kCountMin ? 1.0
                                                      : hash_.Sign(r, key);
          }
          rows_[id][hash_.cells() + 1] += 1.0;
        }
      }
    }
    // Sources per destination in slot order, self echo first.
    std::vector<std::vector<HostId>> sources(rows_.size());
    for (size_t k = 0; k < plan.size(); ++k) {
      sources[plan.initiator(k)].push_back(plan.initiator(k));
      sources[plan.EffectivePartner(k)].push_back(plan.initiator(k));
    }
    std::vector<std::vector<double>> next = rows_;  // dead hosts keep theirs
    for (size_t dst = 0; dst < rows_.size(); ++dst) {
      if (sources[dst].empty()) continue;
      std::vector<double>& out = next[dst];
      out.assign(out.size(), 0.0);
      for (const HostId src : sources[dst]) {
        for (size_t c = 0; c < out.size(); ++c) out[c] += 0.5 * rows_[src][c];
      }
    }
    rows_ = std::move(next);
    ++round_;
  }

  const std::vector<double>& row(HostId id) const { return rows_[id]; }

 private:
  StreamSwarmParams params_;
  KeyedStreamGen gen_;
  SketchHash hash_;
  std::vector<std::vector<double>> rows_;
  int round_ = 0;
};

StreamSwarmParams Params(SketchKind kind, int depth, int width) {
  StreamSwarmParams params;
  params.kind = kind;
  params.depth = depth;
  params.width = width;
  params.hash_seed = 11;
  params.batch = 3;
  params.arrival_rounds = 5;
  return params;
}

/// Runs the swarm and the reference side by side for a few rounds, with
/// hosts dying, being reborn (OnJoin) and staying dead in between, and
/// compares every host's stride after every round.
void ExpectMatchesReference(const StreamSwarmParams& params, int threads) {
  SCOPED_TRACE(testing::Message()
               << (params.kind == SketchKind::kCountMin ? "count-min"
                                                        : "count-sketch")
               << " depth " << params.depth << " width " << params.width
               << " threads " << threads);
  const ScopedVisibleCpus forced(threads);
  const KeyedStreamGen gen(KeyStreamKind::kZipf, 64, 1.1, 5);
  StreamSketchSwarm swarm(kHosts, params, gen);
  swarm.set_intra_round_threads(threads);
  ReferenceSwarm ref(kHosts, params, gen);
  const UniformEnvironment env(kHosts);
  Population pop(kHosts);
  Rng rng(77);
  std::vector<double> got(swarm.stride());
  for (int round = 0; round < 8; ++round) {
    // Rounds 0-1 keep the never-mutated population; later rounds kill a
    // block and scattered hosts, and rebirth some of the dead.
    if (round == 2) {
      for (HostId id = 100; id < 400; ++id) pop.Kill(id);
      for (HostId id = 1000; id < kHosts; id += 17) pop.Kill(id);
    }
    if (round == 4) {
      for (HostId id = 100; id < 400; id += 3) {
        pop.Revive(id);
        swarm.OnJoin(id);
        ref.OnJoin(id);
      }
    }
    Rng plan_rng = rng;
    RoundKernel kernel;
    const PartnerPlan& plan = kernel.PlanPushRound(env, pop, plan_rng);
    swarm.RunRound(env, pop, rng);
    ref.RunRound(pop, plan);
    for (HostId id = 0; id < kHosts; ++id) {
      swarm.ReadHost(id, got);
      ASSERT_EQ(got, ref.row(id)) << "round " << round << " host " << id;
    }
  }
  // The point readers see the same strides.
  const SketchHash& hash = swarm.hash();
  for (HostId id = 0; id < kHosts; id += 101) {
    swarm.ReadHost(id, got);
    const double weight = got[hash.cells()];
    EXPECT_EQ(swarm.Estimate(id),
              kHosts * got[hash.cells() + 1] / weight);
    if (params.kind == SketchKind::kCountMin) {
      double raw = got[hash.Slot(0, 3)];
      for (int r = 1; r < hash.depth(); ++r) {
        raw = std::min(raw, got[hash.Slot(r, 3)]);
      }
      EXPECT_EQ(swarm.KeyEstimate(id, 3), kHosts * raw / weight);
    }
  }
}

TEST(StreamSketchSwarmTest, PartialLastBlockMatchesRowMajorRound) {
  // depth 3, width 32: a 98-double stride, whose last block is partial.
  for (const SketchKind kind :
       {SketchKind::kCountMin, SketchKind::kCountSketch}) {
    for (const int threads : {1, 2, 4}) {
      ExpectMatchesReference(Params(kind, 3, 32), threads);
    }
  }
}

TEST(StreamSketchSwarmTest, StrideShorterThanABlockMatchesRowMajorRound) {
  // depth 1, width 8: a 10-double stride, one partial block.
  for (const SketchKind kind :
       {SketchKind::kCountMin, SketchKind::kCountSketch}) {
    for (const int threads : {1, 2, 4}) {
      ExpectMatchesReference(Params(kind, 1, 8), threads);
    }
  }
}

TEST(StreamSketchSwarmTest, WholeBlocksMatchRowMajorRound) {
  // depth 7, width 2: a 16-double stride, whole blocks only.
  static_assert(StreamSketchSwarm::kBlockLanes == 16);
  for (const int threads : {1, 2, 4}) {
    ExpectMatchesReference(Params(SketchKind::kCountMin, 7, 2), threads);
  }
}

TEST(StreamSketchSwarmTest, DepositBytesCountedOncePerRound) {
  // The block passes share one transposed plan: a round adds one HostId
  // per plan slot, whatever the pass or thread count.
  for (const int threads : {1, 2}) {
    const ScopedVisibleCpus forced(threads);
    const KeyedStreamGen gen(KeyStreamKind::kZipf, 64, 1.1, 5);
    StreamSketchSwarm swarm(kHosts, Params(SketchKind::kCountMin, 3, 32),
                            gen);
    swarm.set_intra_round_threads(threads);
    const UniformEnvironment env(kHosts);
    Population pop(kHosts);
    for (HostId id = 0; id < kHosts; id += 9) pop.Kill(id);
    Rng rng(3);
    obs::TrialTelemetry telemetry;
    {
      const obs::ScopedTrial trial(&telemetry);
      swarm.RunRound(env, pop, rng);
    }
    const int64_t slots = static_cast<int64_t>(pop.alive_ids().size());
    EXPECT_EQ(telemetry.counters[static_cast<int>(
                  obs::Counter::kDepositBytes)],
              slots * static_cast<int64_t>(sizeof(HostId)))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace stream
}  // namespace dynagg
