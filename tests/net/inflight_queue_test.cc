// InFlightQueue tests: a drain to t pops the entries due by t in (dst,
// due, seq) order — seq being Push order — under any interleaving of Push
// / HasDueBy / Top / Pop, checked against a reference model of the drain
// contract. The targeted cases mirror how the async driver drains: a tick
// drain, zero-delay sends drained again at the same instant by the
// sampler, messages carried over several ticks, the settling Top/Pop
// drain after the last tick, and HasDueBy(kSimTimeMax) on a queue with
// nothing pending; others pin the host-major order itself, including a
// hub destination and (in the random interleavings) batches spread thinly
// over a wide id range.

#include "net/inflight_queue.h"

#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "net/message.h"

namespace dynagg {
namespace net {
namespace {

/// The queue under test plus a reference model of the drain contract: the
/// pending (dst, due, seq) keys and the current drain's bound. HasDueBy(t)
/// makes t the bound; Top/Pop take the smallest key due by the bound, or,
/// with none left, make kSimTimeMax the bound. Every message carries its
/// seq in `tag`, so a pop is checked by value.
class CheckedQueue {
 public:
  void Push(SimTime due, HostId dst = 1) {
    Message m;
    m.src = 0;
    m.dst = dst;
    m.tag = next_seq_;
    queue_.Push(due, m);
    ref_.emplace(dst, due, next_seq_++);
  }

  /// HasDueBy against the reference.
  bool HasDueBy(SimTime t) {
    bound_ = t;
    const bool want = NextDue() != ref_.end();
    EXPECT_EQ(queue_.HasDueBy(t), want) << "t=" << t;
    return want;
  }

  /// Top then Pop, checked against the reference's next key.
  void PopOne() {
    ASSERT_FALSE(ref_.empty());
    auto next = NextDue();
    if (next == ref_.end()) {
      bound_ = kSimTimeMax;
      next = ref_.begin();
    }
    const Message& top = queue_.Top();
    EXPECT_EQ(top.tag, std::get<2>(*next));
    EXPECT_EQ(top.dst, std::get<0>(*next));
    queue_.Pop();
    ref_.erase(next);
    CheckSize();
  }

  /// The driver's drain: everything due by `t`, in order. Returns the
  /// number popped.
  int DrainBy(SimTime t) {
    int popped = 0;
    while (HasDueBy(t)) {
      PopOne();
      ++popped;
    }
    return popped;
  }

  void CheckSize() {
    EXPECT_EQ(queue_.size(), ref_.size());
    EXPECT_EQ(queue_.empty(), ref_.empty());
  }

  size_t pending() const { return ref_.size(); }

 private:
  using Key = std::tuple<HostId, SimTime, uint64_t>;

  /// The smallest pending key due by the current bound, or end().
  std::set<Key>::iterator NextDue() {
    auto it = ref_.begin();
    while (it != ref_.end() && std::get<1>(*it) > bound_) ++it;
    return it;
  }

  InFlightQueue queue_;
  std::set<Key> ref_;
  SimTime bound_ = std::numeric_limits<SimTime>::min();
  uint64_t next_seq_ = 0;
};

TEST(InFlightQueueTest, EmptyQueueHasNothingDue) {
  CheckedQueue q;
  q.CheckSize();
  EXPECT_FALSE(q.HasDueBy(0));
  // Repeated calls with nothing pending stay false (and cheap).
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(q.HasDueBy(kSimTimeMax));
  q.Push(kSimTimeMax);
  EXPECT_FALSE(q.HasDueBy(kSimTimeMax - 1));
  EXPECT_TRUE(q.HasDueBy(kSimTimeMax));
  q.PopOne();
  EXPECT_FALSE(q.HasDueBy(kSimTimeMax));
}

TEST(InFlightQueueTest, EqualDueTimesPopInPushOrder) {
  // Within each of four destinations, entries due at the same instant pop
  // in push order.
  CheckedQueue q;
  for (int i = 0; i < 50; ++i) q.Push(100 + (i % 3), i % 4);
  EXPECT_EQ(q.DrainBy(102), 50);
  q.CheckSize();
}

TEST(InFlightQueueTest, DrainIsHostMajor) {
  // The drain to 30 pops by destination first, then by due time, then in
  // push order; the entry due at 40 stays pending.
  InFlightQueue q;
  const auto push = [&q](SimTime due, HostId dst, uint64_t tag) {
    Message m;
    m.dst = dst;
    m.tag = tag;
    q.Push(due, m);
  };
  push(10, 5, 0);
  push(20, 1, 1);
  push(5, 5, 2);
  push(40, 0, 3);
  push(20, 1, 4);
  push(1, 3, 5);
  std::vector<uint64_t> order;
  while (q.HasDueBy(30)) {
    order.push_back(q.Top().tag);
    q.Pop();
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 4, 5, 2, 0}));
  EXPECT_EQ(q.size(), 1u);
}

TEST(InFlightQueueTest, HubDestinationBucketIsOrdered) {
  // One destination receives 300 entries with scattered due times (past
  // the insertion-sort bound) among a few for other destinations.
  CheckedQueue q;
  std::mt19937_64 gen(11);
  for (int i = 0; i < 400; ++i) {
    q.Push(static_cast<SimTime>(gen() % 50), i % 4 == 3 ? 2 + i % 7 : 7);
  }
  EXPECT_EQ(q.DrainBy(25) + q.DrainBy(60), 400);
}

TEST(InFlightQueueTest, ZeroDelayPushesDrainAgainAtTheSameInstant) {
  // Tick at t: drain, then send a wave with some zero-delay messages; the
  // sampler's drain at the same t must deliver exactly those, in order,
  // and leave the later ones pending.
  CheckedQueue q;
  const SimTime t = 30;
  for (int i = 0; i < 10; ++i) q.Push(t - 5 + i, 9 - i);  // 6 due by t
  EXPECT_EQ(q.DrainBy(t), 6);
  for (int i = 0; i < 20; ++i) q.Push(i % 4 == 0 ? t : t + 1 + i, i % 7);
  EXPECT_EQ(q.DrainBy(t), 5);
  EXPECT_EQ(q.DrainBy(t), 0);
  EXPECT_EQ(q.pending(), 4u + 15u);
  q.CheckSize();
}

TEST(InFlightQueueTest, EntriesCarryOverSeveralDrains) {
  CheckedQueue q;
  // Messages due up to five periods out, drained one period at a time.
  const SimTime period = 30;
  for (int i = 0; i < 200; ++i) {
    q.Push(1 + (i * 37) % (5 * period), (i * 13) % 50);
  }
  size_t drained = 0;
  for (SimTime t = period; t <= 5 * period; t += period) {
    drained += static_cast<size_t>(q.DrainBy(t));
    q.CheckSize();
    EXPECT_EQ(drained + q.pending(), 200u);
  }
  EXPECT_EQ(q.pending(), 0u);
}

TEST(InFlightQueueTest, PushDuringADrainJoinsThatDrain) {
  // Two of eight entries (destinations 0..3) are delivered; then entries
  // due by the drain's bound join what is left of it, in host-major order
  // (the one for destination 0 comes next), while one due later waits.
  CheckedQueue q;
  for (int i = 0; i < 8; ++i) q.Push(10 + i, i % 4);
  ASSERT_TRUE(q.HasDueBy(20));
  q.PopOne();
  q.PopOne();
  q.Push(11, 0);  // lands inside the run being drained
  q.Push(15, 3);
  q.Push(25, 0);  // not due by 20
  EXPECT_EQ(q.DrainBy(20), 8);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(InFlightQueueTest, FinalTopPopDrainWithNothingDue) {
  // The driver's settling drain after the last tick: no HasDueBy, just
  // Top/Pop until empty, starting from entries no earlier drain reached.
  CheckedQueue q;
  for (int i = 0; i < 40; ++i) q.Push(1000 - 7 * i, i % 5);
  EXPECT_EQ(q.DrainBy(100), 0);  // nothing due: builds an empty run
  while (q.pending() > 0) q.PopOne();
  q.CheckSize();
}

TEST(InFlightQueueTest, LargeDrainAtSimTimeMaxIsOneSort) {
  // The bench harness settles the network with a drain to kSimTimeMax.
  // Each HasDueBy must be O(1) after the run is built: rebuilding per call
  // would make this drain quadratic and time the test out.
  InFlightQueue q;
  const int n = 200000;
  std::mt19937_64 gen(5);
  for (int i = 0; i < n; ++i) {
    const SimTime due = static_cast<SimTime>(gen() % 1000);
    Message m;
    m.dst = static_cast<HostId>(gen() % 5000);
    m.a = static_cast<double>(due);
    m.tag = static_cast<uint64_t>(i);
    q.Push(due, m);
  }
  std::tuple<HostId, double, uint64_t> last{-1, -1.0, 0};
  int popped = 0;
  while (q.HasDueBy(kSimTimeMax)) {
    const std::tuple<HostId, double, uint64_t> key{q.Top().dst, q.Top().a,
                                                   q.Top().tag};
    if (popped > 0) {
      ASSERT_LT(last, key);
    }
    last = key;
    q.Pop();
    ++popped;
  }
  EXPECT_EQ(popped, n);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.HasDueBy(kSimTimeMax));
}

TEST(InFlightQueueTest, RandomInterleavingsMatchReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 gen(seed);
    const auto pick = [&gen](int n) {
      return static_cast<int>(gen() % static_cast<uint64_t>(n));
    };
    // A few destinations, one of them a hub. Under even seeds, now and
    // then a far id makes every later batch sparse over its id range.
    const bool sparse = seed % 2 == 0;
    const auto dst = [&pick, sparse]() -> HostId {
      const int kind = pick(10);
      if (kind < 4) return 3;
      return sparse && kind == 9 ? pick(5000) : pick(12);
    };
    CheckedQueue q;
    SimTime now = 0;
    for (int step = 0; step < 2000; ++step) {
      switch (pick(8)) {
        case 0:
        case 1:
        case 2: {  // a send: zero delay, short, or spanning several ticks
          const int kind = pick(3);
          q.Push(now + (kind == 0 ? 0 : kind == 1 ? pick(30) : pick(200)),
                 dst());
          break;
        }
        case 3:  // a tick or sampler drain at the current instant
          q.DrainBy(now);
          break;
        case 4:  // time moves on
          now += pick(40);
          break;
        case 5:  // a drain bound in the past or far future
          q.HasDueBy(pick(2) == 0 ? now - pick(50) : kSimTimeMax);
          break;
        case 6:  // a partial drain: pop one due entry, if any
          if (q.HasDueBy(now)) q.PopOne();
          break;
        case 7:  // Top/Pop with no HasDueBy first: continues the current
                 // drain, else starts the settling drain
          if (q.pending() > 0) q.PopOne();
          break;
      }
      q.CheckSize();
    }
    while (q.pending() > 0) q.PopOne();
    EXPECT_FALSE(q.HasDueBy(kSimTimeMax));
  }
}

}  // namespace
}  // namespace net
}  // namespace dynagg
