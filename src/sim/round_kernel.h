// RoundKernel: the shared two-phase (plan -> apply) gossip round.
//
// Environment API v2 structures every swarm's round the same way:
//
//   1. PLAN   The kernel lists the round's initiators (alive order for
//             simultaneous push rounds, a Fisher-Yates-shuffled order for
//             sequential pairwise exchanges) and asks the environment to
//             fill one PartnerPlan for all of them at once
//             (Environment::BuildPlan — batched, cache-reusing, and
//             bit-identical in Rng consumption to per-host SamplePeer).
//   2. APPLY  The protocol walks the plan's flat arrays: sequential
//             pairwise exchanges for push/pull protocols, an
//             emit-then-scatter deposit pass for push-mode protocols, or,
//             for push-mode protocols whose payload is a large per-host
//             stride, a pull-mode gather over the transposed plan (one
//             call per destination with its ordered source list). Scatter
//             and gather can run data-parallel over destination shards
//             (set_intra_round_threads) while preserving the exact
//             per-destination deposit order, so N-thread rounds are
//             bit-identical to 1-thread rounds.
//
// This replaces the per-protocol shuffle/SamplePeer/emit/deposit loops the
// src/agg/ swarms used to copy, and it is what makes a 100k-host round
// cheap: one virtual call per round instead of one per host, contiguous
// plan arrays, and an apply phase whose random-access deposits are no
// longer serialized behind each partner draw (see bench/micro_protocol_ops
// and BENCH_roundkernel.json).

#ifndef DYNAGG_SIM_ROUND_KERNEL_H_
#define DYNAGG_SIM_ROUND_KERNEL_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "env/partner_plan.h"
#include "obs/telemetry.h"
#include "sim/population.h"
#include "sim/worker_pool.h"

namespace dynagg {

/// Copies the alive ids and Fisher-Yates shuffles them. Push/pull exchanges
/// are applied sequentially within a round; shuffling removes any host-id
/// ordering bias. (Shared by the kernel and the tree baseline's harnesses.)
void ShuffledAliveOrder(const Population& pop, Rng& rng,
                        std::vector<HostId>* out);

class RoundKernel {
 public:
  RoundKernel() = default;

  /// Number of worker threads for the data-parallel deposit scatter.
  /// 1 (default) applies sequentially; N > 1 shards destinations over N
  /// workers with bit-identical results. Plans are always built
  /// single-threaded (the Rng is inherently sequential).
  void set_intra_round_threads(int threads) {
    DYNAGG_CHECK_GE(threads, 1);
    threads_ = threads;
  }
  int intra_round_threads() const { return threads_; }

  /// Whether push-mode rounds should take the split take + ScatterDeposits
  /// path (true) or the fused sequential ForEachPushSlot path (false). The
  /// configured thread count is clamped to WorkerPool::VisibleCpus():
  /// time-slicing T scatter workers on fewer cores is measurably slower
  /// than the fused loop, so `intra_round_threads = 4` on a 1-CPU host
  /// runs the fused path and stays bit-identical by construction.
  bool parallel_deposits() const { return ClampedThreads() > 1; }

  // ------------------------------------------------------------- plan ---

  /// Plans a simultaneous push round: `slots_per_initiator` independent
  /// partner draws per alive host, in alive order (full-transfer sends
  /// `parcels` parcels per host; everything else sends 1).
  const PartnerPlan& PlanPushRound(const Environment& env,
                                   const Population& pop, Rng& rng,
                                   int slots_per_initiator = 1);

  /// Plans a round of sequential pairwise exchanges: one partner draw per
  /// alive host, in a shuffled order (the draw-after-shuffle sequence of
  /// the legacy push/pull loops, bit-identical).
  const PartnerPlan& PlanExchangeRound(const Environment& env,
                                       const Population& pop, Rng& rng);

  const PartnerPlan& plan() const { return plan_; }

  // ------------------------------------------------------------ apply ---

  /// Applies `fn(initiator, partner)` to every matched slot, sequentially
  /// in plan order; unmatched slots are skipped. The pairwise-exchange
  /// apply phase: exchanges mutate both sides, so in-round ordering is part
  /// of the protocol's semantics and stays sequential.
  template <typename Fn>
  void ForEachExchange(Fn&& fn) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    for (size_t k = 0; k < initiators.size(); ++k) {
      if (partners[k] == kInvalidHost) continue;
      fn(initiators[k], partners[k]);
    }
  }

  /// ForEachExchange with destination prefetch: both sides of every
  /// exchange are known from the plan, so `prefetch(host)` is issued for
  /// the initiator AND partner a few slots ahead — the legacy loops
  /// serialized both random node accesses behind each partner draw.
  template <typename Fn, typename PrefetchFn>
  void ForEachExchangePrefetched(Fn&& fn, PrefetchFn&& prefetch) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    const size_t slots = initiators.size();
    constexpr size_t kPrefetchAhead = 8;
    for (size_t k = 0; k < slots; ++k) {
      if (k + kPrefetchAhead < slots) {
        prefetch(initiators[k + kPrefetchAhead]);
        const HostId ahead = partners[k + kPrefetchAhead];
        if (ahead != kInvalidHost) prefetch(ahead);
      }
      if (partners[k] == kInvalidHost) continue;
      fn(initiators[k], partners[k]);
    }
  }

  /// Applies `fn(initiator, partner)` to EVERY slot, sequentially in plan
  /// order, passing kInvalidHost for unmatched slots — for protocols with
  /// per-initiator round bookkeeping that runs whether or not a peer was
  /// reachable (the serialized node-aggregator facade).
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    for (size_t k = 0; k < initiators.size(); ++k) {
      fn(initiators[k], partners[k]);
    }
  }

  /// Fused sequential apply for push-mode rounds: per slot, in plan order,
  /// `deposit(dst, emit(initiator))` where `dst` is the slot's effective
  /// partner — exactly the legacy emit/deposit interleaving (emit may
  /// deposit the self half internally). Because the plan already knows
  /// every destination, the loop prefetches `prefetch(dst)` a few slots
  /// ahead, overlapping the scatter's random-access latency — the main
  /// single-thread win of plan-then-apply (the legacy loop serialized each
  /// deposit's address behind its partner draw). Use this when
  /// intra_round_threads == 1; the split TakeHalf + ScatterDeposits path
  /// covers the data-parallel case.
  template <typename EmitFn, typename DepositFn, typename PrefetchFn>
  void ForEachPushSlot(EmitFn&& emit, DepositFn&& deposit,
                       PrefetchFn&& prefetch) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    const size_t slots = initiators.size();
    // One payload lands per slot (the self half is emitted internally).
    using Payload = std::decay_t<std::invoke_result_t<EmitFn&, HostId>>;
    obs::Count(obs::Counter::kDepositBytes,
               static_cast<int64_t>(slots * sizeof(Payload)));
    constexpr size_t kPrefetchAhead = 16;
    if (plan_.identity_initiators()) {
      // initiators[k] == k: the hot loop touches only the partner array.
      for (size_t k = 0; k < slots; ++k) {
        if (k + kPrefetchAhead < slots) {
          const HostId ahead = partners[k + kPrefetchAhead];
          prefetch(ahead == kInvalidHost
                       ? static_cast<HostId>(k + kPrefetchAhead)
                       : ahead);
        }
        const HostId init = static_cast<HostId>(k);
        const HostId partner = partners[k];
        deposit(partner == kInvalidHost ? init : partner, emit(init));
      }
      return;
    }
    for (size_t k = 0; k < slots; ++k) {
      if (k + kPrefetchAhead < slots) {
        const HostId ahead = partners[k + kPrefetchAhead];
        prefetch(ahead == kInvalidHost ? initiators[k + kPrefetchAhead]
                                       : ahead);
      }
      const HostId init = initiators[k];
      const HostId partner = partners[k];
      deposit(partner == kInvalidHost ? init : partner, emit(init));
    }
  }

  /// Deposit scatter for push-mode protocols. Slot `k`'s payload
  /// `payloads[k]` is deposited to the slot's initiator first when
  /// `self_echo` is set (the push protocols' half-kept-to-self message) and
  /// then to its effective partner (the initiator again when no peer was
  /// reachable). `deposit(dst, payload)` must only mutate state owned by
  /// `dst`.
  ///
  /// Determinism: with T > 1 threads the deposit events are bucketed by
  /// destination shard in ONE sequential pass over the slots (within a
  /// shard, events keep slot order, self echo before partner), then each
  /// worker walks only its own bucket — every destination belongs to
  /// exactly one shard, so it sees its deposits in exactly the sequential
  /// order and floating-point accumulation is bit-identical at any thread
  /// count.
  template <typename Payload, typename DepositFn>
  void ScatterDeposits(const std::vector<Payload>& payloads, bool self_echo,
                       int num_hosts, DepositFn&& deposit) const {
    // The span covers the whole fork/join (bucket pass + workers + join);
    // the spawned workers themselves carry no telemetry sink.
    obs::ScopedPhase span(obs::Phase::kScatter);
    const std::vector<HostId>& initiators = plan_.initiators();
    const std::vector<HostId>& partners = plan_.partners();
    DYNAGG_CHECK_EQ(payloads.size(), initiators.size());
    const size_t slots = initiators.size();
    obs::Count(obs::Counter::kDepositBytes,
               static_cast<int64_t>((self_echo ? 2 : 1) * slots *
                                    sizeof(Payload)));
    const int threads = EffectiveThreads(num_hosts);
    if (threads <= 1) {
      for (size_t k = 0; k < slots; ++k) {
        const HostId init = initiators[k];
        const HostId partner = partners[k];
        if (self_echo) deposit(init, payloads[k]);
        deposit(partner == kInvalidHost ? init : partner, payloads[k]);
      }
      return;
    }
    // Bucket pass: worker w owns host ids in [num_hosts*w/T, ...).
    DYNAGG_CHECK_LE(slots, size_t{UINT32_MAX});
    shard_events_.resize(threads);
    for (auto& events : shard_events_) events.clear();
    const auto shard_of = [&](HostId dst) {
      return static_cast<size_t>(static_cast<int64_t>(dst) * threads /
                                 num_hosts);
    };
    for (size_t k = 0; k < slots; ++k) {
      const HostId init = initiators[k];
      const HostId partner = partners[k];
      if (self_echo) {
        shard_events_[shard_of(init)].push_back(
            {init, static_cast<uint32_t>(k)});
      }
      const HostId dst = partner == kInvalidHost ? init : partner;
      shard_events_[shard_of(dst)].push_back(
          {dst, static_cast<uint32_t>(k)});
    }
    const auto walk = [&](int w) {
      for (const DepositEvent& e : shard_events_[w]) {
        deposit(e.dst, payloads[e.slot]);
      }
    };
    // Persistent parked workers, shared by every kernel on this executor
    // thread: waking the pool costs microseconds and allocates nothing,
    // where the old per-round std::thread spawn paid creation + join +
    // allocator traffic on every round.
    WorkerPool::ForCallingThread(threads - 1).Run(threads, walk);
  }

  /// Pull-mode apply for push rounds whose payload is the initiator's whole
  /// state: transposes the plan into per-destination source lists, then
  /// calls `gather(dst, sources)` once for every host that receives at
  /// least one deposit. `sources` (a std::span<const HostId>) lists the
  /// initiators depositing into `dst` in exactly ScatterDeposits' order
  /// with self echo: slot order, a slot's self echo before its partner
  /// deposit, and an unmatched slot's initiator twice. `gather` must only
  /// write state owned by `dst`; with T > 1 intra-round threads the
  /// destinations are split into T contiguous id ranges over the worker
  /// pool, so results are bit-identical at any thread count. Requires
  /// every planned host id in [0, num_hosts).
  template <typename GatherFn>
  void ForEachPushDestination(int num_hosts, GatherFn&& gather) {
    obs::ScopedPhase span(obs::Phase::kApply);
    // One source id per slot: the same payload accounting as the fused
    // push loop, whose payload is the initiator id.
    obs::Count(obs::Counter::kDepositBytes,
               static_cast<int64_t>(plan_.size() * sizeof(HostId)));
    TransposePushPlan(num_hosts);
    const auto walk = [&](HostId begin, HostId end) {
      for (HostId dst = begin; dst < end; ++dst) {
        const uint32_t lo = source_begin_[dst];
        const uint32_t hi = source_begin_[dst + 1];
        if (lo == hi) continue;
        gather(dst, std::span<const HostId>(&sources_[lo], hi - lo));
      }
    };
    const int threads = EffectiveThreads(num_hosts);
    if (threads <= 1) {
      walk(0, num_hosts);
      return;
    }
    WorkerPool::ForCallingThread(threads - 1).Run(threads, [&](int w) {
      walk(static_cast<HostId>(int64_t{num_hosts} * w / threads),
           static_cast<HostId>(int64_t{num_hosts} * (w + 1) / threads));
    });
  }

  /// The data-parallel counterpart of ForEachPushSlot: fills `*outbox`
  /// (caller-owned scratch, reused across rounds) with `take(initiator)`
  /// per slot in plan order — `take` must NOT deposit anything — then
  /// scatter-deposits it (self echo first when requested, exact
  /// per-destination order, sharded over intra-round threads).
  template <typename Payload, typename TakeFn, typename DepositFn>
  void EmitAndScatter(std::vector<Payload>* outbox, bool self_echo,
                      int num_hosts, TakeFn&& take,
                      DepositFn&& deposit) const {
    {
      // The take loop is the round's apply phase; the scatter below times
      // itself, keeping the two phases disjoint in the profile.
      obs::ScopedPhase span(obs::Phase::kApply);
      const std::vector<HostId>& initiators = plan_.initiators();
      outbox->resize(initiators.size());
      for (size_t k = 0; k < initiators.size(); ++k) {
        (*outbox)[k] = take(initiators[k]);
      }
    }
    ScatterDeposits(*outbox, self_echo, num_hosts, deposit);
  }

 private:
  /// The configured thread count clamped to the CPUs the scheduler can
  /// actually run us on (or the test override) — see parallel_deposits().
  int ClampedThreads() const {
    const int visible = WorkerPool::VisibleCpus();
    return threads_ < visible ? threads_ : visible;
  }

  /// Thread count actually worth waking: tiny rounds stay sequential (the
  /// bucket pass + wake would dominate), and more threads than hosts would
  /// leave idle shards.
  int EffectiveThreads(int num_hosts) const {
    const int threads = ClampedThreads();
    if (threads <= 1 || plan_.size() < kMinParallelSlots) return 1;
    return threads < num_hosts ? threads : 1;
  }

  static constexpr size_t kMinParallelSlots = 4096;

  /// Counting sort of the plan's deposits by destination, stable in slot
  /// order: fills sources_ and source_begin_ (ForEachPushDestination).
  void TransposePushPlan(int num_hosts);

  /// One deposit of ScatterDeposits' bucket pass: payloads[slot] -> dst.
  struct DepositEvent {
    HostId dst;
    uint32_t slot;
  };

  PartnerPlan plan_;
  std::vector<HostId> order_;  // scratch for the shuffled initiator order
  // Scratch for ScatterDeposits' per-shard event buckets, reused across
  // rounds (mutable: scattering is logically const on the kernel).
  mutable std::vector<std::vector<DepositEvent>> shard_events_;
  // Scratch for ForEachPushDestination's transposed plan, reused across
  // rounds: host d's sources are sources_[source_begin_[d],
  // source_begin_[d + 1]).
  std::vector<HostId> sources_;
  std::vector<uint32_t> source_begin_;
  int threads_ = 1;
};

}  // namespace dynagg

#endif  // DYNAGG_SIM_ROUND_KERNEL_H_
