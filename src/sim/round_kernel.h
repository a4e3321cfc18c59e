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
//             pairwise exchanges for push/pull protocols, one slot-order
//             deposit loop for push-mode protocols with a small payload
//             (ForEachPushDeposit), or, for push-mode protocols whose
//             payload is a large per-host stride, a pull-mode gather over
//             the transposed plan (one pass per column block over the
//             ordered source lists). Both push applies can split the
//             destination ids into contiguous ranges over intra-round
//             threads (set_intra_round_threads) while keeping the exact
//             per-destination deposit order, so N-thread rounds are
//             bit-identical to 1-thread rounds. Partners are uniform, so
//             a deposit worker cannot branch on "is this slot mine": it
//             compacts each chunk of slots into the events for its range
//             with arithmetic, then applies them with no test.
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

/// Swap targets ShuffleHostIds draws ahead of their swaps.
inline constexpr size_t kShuffleBlock = 64;

/// Fisher-Yates shuffles `ids` in place: for i = n down to 2, swap
/// ids[i - 1] with ids[rng.UniformInt(i)]. Each target depends only on i,
/// so the loop draws kShuffleBlock targets ahead, prefetching each, and
/// then makes that block's swaps: the random loads overlap instead of
/// waiting one behind each draw, while the draws, the swaps and their order
/// stay the textbook loop's.
void ShuffleHostIds(std::span<HostId> ids, Rng& rng);

/// Copies the alive ids and shuffles them (ShuffleHostIds). Push/pull
/// exchanges are applied sequentially within a round; shuffling removes any
/// host-id ordering bias. (The tree baseline's harnesses use it; the kernel
/// shuffles its plan's initiators in place.)
void ShuffledAliveOrder(const Population& pop, Rng& rng,
                        std::vector<HostId>* out);

class RoundKernel {
 public:
  /// Smallest plan the push applies split over intra-round threads.
  static constexpr size_t kMinParallelSlots = 4096;

  /// Plan slots per compaction chunk of the sharded push walk: its event
  /// buffer (2 events a slot, 8 bytes each) is 16 KB on the worker's
  /// stack, well inside L1. (At 1M hosts and T = 2 on a 4-vCPU x86 VM,
  /// 512 slots measured about 10% slower and 2048 no faster.)
  static constexpr size_t kPushChunk = 1024;

  RoundKernel() = default;

  /// Number of worker threads for the push-mode apply. 1 (default) applies
  /// sequentially; N > 1 splits destinations over N workers with
  /// bit-identical results. The count is clamped to
  /// WorkerPool::VisibleCpus(): time-slicing T workers on fewer cores only
  /// adds wake-ups, so `intra_round_threads = 4` on a 1-CPU host runs the
  /// one-thread walk. Plans are always built single-threaded (the Rng is
  /// inherently sequential).
  void set_intra_round_threads(int threads) {
    DYNAGG_CHECK_GE(threads, 1);
    threads_ = threads;
  }
  int intra_round_threads() const { return threads_; }

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

  /// The push-mode apply for protocols whose payload is a few bytes: walks
  /// the plan in slot order and, per slot, calls `deposit(init,
  /// payload(init))` when `self_echo` is set (the half a push protocol
  /// keeps for itself) and then `deposit(dst, payload(init))`, where `dst`
  /// is the slot's effective partner (the initiator again when no peer was
  /// reachable). `payload` must be a pure read of pre-round state (the
  /// sharded walk calls it once per deposit, not once per slot), and
  /// `deposit(dst, p)` must only mutate state owned by `dst`. Destinations
  /// are prefetched `prefetch(dst)` a few slots ahead, overlapping the
  /// random-access deposit latency.
  ///
  /// Determinism: with T > 1 intra-round threads each worker owns one
  /// contiguous host-id range (the ranges ForEachPushDestination also
  /// uses) and walks the plan in chunks of kPushChunk slots. Per chunk it
  /// first compacts, without a branch, the chunk's deposits into its range
  /// into a stack buffer of (destination, source) events, in slot order and
  /// a slot's self echo before its partner deposit; then it applies those
  /// events with no ownership test. Each destination therefore sees its
  /// deposits in slot order, self echo first, at any thread count, so
  /// floating-point accumulation is bit-identical. Requires every planned
  /// host id in [0, num_hosts).
  template <typename PayloadFn, typename DepositFn, typename PrefetchFn>
  void ForEachPushDeposit(int num_hosts, bool self_echo, PayloadFn&& payload,
                          DepositFn&& deposit, PrefetchFn&& prefetch) const {
    obs::ScopedPhase span(obs::Phase::kApply);
    const size_t slots = plan_.size();
    // One payload per slot: the self echo re-deposits the same payload.
    using Payload = std::decay_t<std::invoke_result_t<PayloadFn&, HostId>>;
    obs::Count(obs::Counter::kDepositBytes,
               static_cast<int64_t>(slots * sizeof(Payload)));
    // The identity instance (initiators[k] == k) never reads the
    // initiators.
    const auto walk = [&]<bool kSharded, bool kIdentity>(HostId lo,
                                                         HostId hi) {
      // Locals rather than captured references: otherwise every deposit's
      // store forces the loop to reload them through the captures.
      const HostId* const initiators = plan_.initiators().data();
      const HostId* const partners = plan_.partners().data();
      const bool echo_on = self_echo;
      auto take = payload;
      auto put = deposit;
      auto fetch = prefetch;
      const auto initiator = [initiators](size_t k) {
        return kIdentity ? static_cast<HostId>(k) : initiators[k];
      };
      constexpr size_t kPrefetchAhead = 16;
      if constexpr (kSharded) {
        // Partners are uniform, so a per-slot "is it mine" branch would
        // mispredict about once a slot: compact with arithmetic instead.
        const uint32_t width = static_cast<uint32_t>(hi - lo);
        const auto mine = [lo, width](HostId h) {
          return static_cast<uint32_t>(h - lo) < width;
        };
        struct Event {
          HostId dst;
          HostId src;
        };
        Event events[2 * kPushChunk];
        // About half of the events are sequential self echoes, so the
        // apply looks twice as many events ahead as the one-thread walk
        // looks slots ahead, keeping as many random deposits in flight.
        constexpr size_t kEventsAhead = 2 * kPrefetchAhead;
        for (size_t begin = 0; begin < slots; begin += kPushChunk) {
          const size_t end =
              begin + kPushChunk < slots ? begin + kPushChunk : slots;
          size_t count = 0;
          for (size_t k = begin; k < end; ++k) {
            const HostId init = initiator(k);
            const HostId partner = partners[k];
            const HostId dst = partner == kInvalidHost ? init : partner;
            events[count] = {init, init};
            count += echo_on & mine(init);
            events[count] = {dst, init};
            count += mine(dst);
          }
          for (size_t j = 0; j < count; ++j) {
            if (j + kEventsAhead < count) fetch(events[j + kEventsAhead].dst);
            put(events[j].dst, take(events[j].src));
          }
        }
      } else {
        for (size_t k = 0; k < slots; ++k) {
          if (k + kPrefetchAhead < slots) {
            const HostId ahead = partners[k + kPrefetchAhead];
            fetch(ahead == kInvalidHost ? initiator(k + kPrefetchAhead)
                                        : ahead);
          }
          const HostId init = initiator(k);
          const HostId partner = partners[k];
          const HostId dst = partner == kInvalidHost ? init : partner;
          const Payload p = take(init);
          if (echo_on) put(init, p);
          put(dst, p);
        }
      }
    };
    ForEachHostRange(num_hosts, [&](auto sharded, HostId lo, HostId hi) {
      constexpr bool kSharded = decltype(sharded)::value;
      if (plan_.identity_initiators()) {
        walk.template operator()<kSharded, true>(lo, hi);
      } else {
        walk.template operator()<kSharded, false>(lo, hi);
      }
    });
  }

  /// The transposed plan ForEachPushDestination hands its passes: host
  /// d's sources are sources[begin[d], begin[d + 1]).
  struct PushSources {
    const HostId* sources;
    const uint32_t* begin;
    std::span<const HostId> operator[](HostId dst) const {
      return {sources + begin[dst], sources + begin[dst + 1]};
    }
  };

  /// Pull-mode apply for push rounds whose payload is the initiator's whole
  /// state, split into `passes` column blocks: transposes the plan once into
  /// per-destination source lists, then runs `passes` passes over them.
  /// Pass p calls `pass(p, lo, hi, lists)` over destination ids [lo, hi),
  /// the ranges together covering [0, num_hosts) once; `lists[dst]` (a
  /// std::span<const HostId>) lists the initiators depositing into `dst`
  /// in exactly ForEachPushDeposit's order with self echo: slot order, a
  /// slot's self echo before its partner deposit, and an unmatched slot's
  /// initiator twice. Every initiator is in its own list, so a list is
  /// empty exactly for hosts that are not alive (partners are alive by the
  /// Environment contract). Once pass p is done (all workers joined),
  /// `end_pass(p)` runs on the calling thread. `pass` must only write
  /// state owned by its destinations; with T > 1 intra-round threads each
  /// pass splits the destinations into the T contiguous id ranges of
  /// ForEachPushDeposit, so results are bit-identical at any thread count.
  /// Requires every planned host id in [0, num_hosts).
  template <typename PassFn, typename EndPassFn>
  void ForEachPushDestination(int num_hosts, int passes, PassFn&& pass,
                              EndPassFn&& end_pass) {
    obs::ScopedPhase span(obs::Phase::kApply);
    // One source id per slot, once per round whatever the pass count:
    // ForEachPushDeposit's accounting with the initiator id as the payload.
    obs::Count(obs::Counter::kDepositBytes,
               static_cast<int64_t>(plan_.size() * sizeof(HostId)));
    TransposePushPlan(num_hosts);
    const PushSources lists{sources_.data(), source_begin_.data()};
    for (int p = 0; p < passes; ++p) {
      ForEachHostRange(num_hosts, [&](auto, HostId lo, HostId hi) {
        pass(p, lo, hi, lists);
      });
      end_pass(p);
    }
  }

 private:
  /// The configured thread count clamped to the CPUs the scheduler can
  /// actually run us on (or the test override).
  int ClampedThreads() const {
    const int visible = WorkerPool::VisibleCpus();
    return threads_ < visible ? threads_ : visible;
  }

  /// Thread count actually worth waking: tiny rounds stay sequential (the
  /// pool wake-up would dominate), and more threads than hosts would leave
  /// idle ranges.
  int EffectiveThreads(int num_hosts) const {
    const int threads = ClampedThreads();
    if (threads <= 1 || plan_.size() < kMinParallelSlots) return 1;
    return threads < num_hosts ? threads : 1;
  }

  /// The push applies' thread split: calls `walk(std::false_type{}, 0,
  /// num_hosts)` on this thread, or, with T > 1 effective threads,
  /// `walk(std::true_type{}, lo, hi)` once per worker over T contiguous
  /// host-id ranges that cover [0, num_hosts).
  template <typename WalkFn>
  void ForEachHostRange(int num_hosts, WalkFn&& walk) const {
    const int threads = EffectiveThreads(num_hosts);
    if (threads <= 1) {
      walk(std::false_type{}, HostId{0}, static_cast<HostId>(num_hosts));
      return;
    }
    WorkerPool::ForCallingThread(threads - 1).Run(threads, [&](int w) {
      walk(std::true_type{},
           static_cast<HostId>(int64_t{num_hosts} * w / threads),
           static_cast<HostId>(int64_t{num_hosts} * (w + 1) / threads));
    });
  }

  /// Counting sort of the plan's deposits by destination, stable in slot
  /// order: fills sources_ and source_begin_ (ForEachPushDestination).
  void TransposePushPlan(int num_hosts);

  PartnerPlan plan_;
  // Scratch for ForEachPushDestination's transposed plan, reused across
  // rounds: host d's sources are sources_[source_begin_[d],
  // source_begin_[d + 1]).
  std::vector<HostId> sources_;
  std::vector<uint32_t> source_begin_;
  int threads_ = 1;
};

}  // namespace dynagg

#endif  // DYNAGG_SIM_ROUND_KERNEL_H_
