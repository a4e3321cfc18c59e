// InFlightQueue tests: the pop order is (due, seq) — seq being Push order —
// under any interleaving of Push / HasDueBy / Top / Pop, checked against a
// reference ordered set. The targeted cases mirror how the async driver
// drains: a tick drain, zero-delay sends drained again at the same instant
// by the sampler, messages carried over several ticks, the settling
// Top/Pop drain after the last tick, and HasDueBy(kSimTimeMax) on a queue
// with nothing pending.

#include "net/inflight_queue.h"

#include <cstdint>
#include <random>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/types.h"
#include "net/message.h"

namespace dynagg {
namespace net {
namespace {

/// The queue under test plus a reference of its pending (due, seq) keys.
/// Every message carries its seq in `tag`, so a pop is checked by value.
class CheckedQueue {
 public:
  void Push(SimTime due) {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.tag = next_seq_;
    queue_.Push(due, m);
    ref_.emplace(due, next_seq_++);
  }

  /// HasDueBy against the reference.
  bool HasDueBy(SimTime t) {
    const bool want = !ref_.empty() && ref_.begin()->first <= t;
    EXPECT_EQ(queue_.HasDueBy(t), want) << "t=" << t;
    return want;
  }

  /// Top then Pop, checked against the reference minimum.
  void PopOne() {
    ASSERT_FALSE(ref_.empty());
    EXPECT_EQ(queue_.Top().tag, ref_.begin()->second);
    queue_.Pop();
    ref_.erase(ref_.begin());
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
  InFlightQueue queue_;
  std::set<std::pair<SimTime, uint64_t>> ref_;
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
  CheckedQueue q;
  for (int i = 0; i < 50; ++i) q.Push(100 + (i % 3));
  EXPECT_EQ(q.DrainBy(102), 50);
  q.CheckSize();
}

TEST(InFlightQueueTest, ZeroDelayPushesDrainAgainAtTheSameInstant) {
  // Tick at t: drain, then send a wave with some zero-delay messages; the
  // sampler's drain at the same t must deliver exactly those, in order,
  // and leave the later ones pending.
  CheckedQueue q;
  const SimTime t = 30;
  for (int i = 0; i < 10; ++i) q.Push(t - 5 + i);  // 6 due by t
  EXPECT_EQ(q.DrainBy(t), 6);
  for (int i = 0; i < 20; ++i) q.Push(i % 4 == 0 ? t : t + 1 + i);
  EXPECT_EQ(q.DrainBy(t), 5);
  EXPECT_EQ(q.DrainBy(t), 0);
  EXPECT_EQ(q.pending(), 4u + 15u);
  q.CheckSize();
}

TEST(InFlightQueueTest, EntriesCarryOverSeveralDrains) {
  CheckedQueue q;
  // Messages due up to five periods out, drained one period at a time.
  const SimTime period = 30;
  for (int i = 0; i < 200; ++i) q.Push(1 + (i * 37) % (5 * period));
  size_t drained = 0;
  for (SimTime t = period; t <= 5 * period; t += period) {
    drained += static_cast<size_t>(q.DrainBy(t));
    q.CheckSize();
    EXPECT_EQ(drained + q.pending(), 200u);
  }
  EXPECT_EQ(q.pending(), 0u);
}

TEST(InFlightQueueTest, PushDuringADrainJoinsThatDrain) {
  CheckedQueue q;
  for (int i = 0; i < 8; ++i) q.Push(10 + i);
  ASSERT_TRUE(q.HasDueBy(20));
  q.PopOne();
  q.PopOne();
  q.Push(11);  // lands inside the run being drained
  q.Push(15);
  q.Push(25);  // not due by 20
  EXPECT_EQ(q.DrainBy(20), 8);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(InFlightQueueTest, FinalTopPopDrainWithNothingDue) {
  // The driver's settling drain after the last tick: no HasDueBy, just
  // Top/Pop until empty, starting from entries no earlier drain reached.
  CheckedQueue q;
  for (int i = 0; i < 40; ++i) q.Push(1000 - 7 * i);
  EXPECT_EQ(q.DrainBy(100), 0);  // nothing due: builds an empty run
  while (q.pending() > 0) q.PopOne();
  q.CheckSize();
}

TEST(InFlightQueueTest, LargeDrainAtSimTimeMaxIsOneSort) {
  // The bench harness settles the network with a drain to kSimTimeMax.
  // Each HasDueBy must be O(1) after the run is built: re-sorting per call
  // would make this drain quadratic and time the test out.
  InFlightQueue q;
  const int n = 200000;
  std::mt19937_64 gen(5);
  for (int i = 0; i < n; ++i) {
    const SimTime due = static_cast<SimTime>(gen() % 1000);
    Message m;
    m.a = static_cast<double>(due);
    m.tag = static_cast<uint64_t>(i);
    q.Push(due, m);
  }
  std::pair<double, uint64_t> last{-1.0, 0};
  int popped = 0;
  while (q.HasDueBy(kSimTimeMax)) {
    const std::pair<double, uint64_t> key{q.Top().a, q.Top().tag};
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
    CheckedQueue q;
    SimTime now = 0;
    for (int step = 0; step < 2000; ++step) {
      switch (pick(8)) {
        case 0:
        case 1:
        case 2: {  // a send: zero delay, short, or spanning several ticks
          const int kind = pick(3);
          q.Push(now + (kind == 0 ? 0 : kind == 1 ? pick(30) : pick(200)));
          break;
        }
        case 3:  // a tick or sampler drain at the current instant
          q.DrainBy(now);
          break;
        case 4:  // time moves on
          now += pick(40);
          break;
        case 5:  // a probe into the past or far future
          q.HasDueBy(pick(2) == 0 ? now - pick(50) : kSimTimeMax);
          break;
        case 6:  // a partial drain: pop one due entry, if any
          if (q.HasDueBy(now)) q.PopOne();
          break;
        case 7:  // Top/Pop with no HasDueBy first, as the settling drain
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
