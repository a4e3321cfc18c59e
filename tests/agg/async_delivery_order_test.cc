// The async_deliver contract: a delivery reads and writes only its
// destination's state. The in-flight queue relies on it to deliver each
// drain in host-major (dst, due, seq) order instead of (due, seq) order.
// For both async-capable swarms, one batch of messages is delivered twice
// from the same starting state: once in (due, seq) order and once in the
// order InFlightQueue pops it, either in one drain per tick instant or in
// a single settling drain (where the hub's bucket is past the queue's
// insertion-sort bound). The batch holds repeated edges
// (several ticks of pushes), stale restatements (older messages arriving
// after newer ones on the same edge) and a hub destination receiving more
// than 64 messages. Every per-host number must agree to the bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "agg/push_flow.h"
#include "agg/push_sum.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/uniform_env.h"
#include "net/inflight_queue.h"
#include "net/message.h"
#include "sim/population.h"

namespace dynagg {
namespace {

constexpr int kHosts = 200;
constexpr HostId kHub = 0;
constexpr SimTime kPeriod = 30;

struct Timed {
  SimTime due;
  net::Message msg;
};

/// Plans six async ticks on `swarm` (sender-side state moves, nothing is
/// delivered) and returns their messages plus stale copies of some of
/// them and extra traffic into kHub, each with a due time. `hub_message`
/// makes the extra traffic from a sender id and a draw.
template <typename Swarm, typename HubMessage>
std::vector<Timed> MakeBatch(Swarm& swarm, HubMessage hub_message) {
  UniformEnvironment env(kHosts);
  Population pop(kHosts);
  Rng rng(31);
  std::mt19937_64 gen(32);
  // Coarse due times so equal dues are common and push order breaks ties.
  const auto due = [&gen]() {
    return static_cast<SimTime>(gen() % 25) * 7;
  };
  std::vector<Timed> batch;
  std::vector<net::Message> wave;
  for (int tick = 0; tick < 6; ++tick) {
    wave.clear();
    swarm.PlanAsyncTick(env, pop, rng, &wave);
    for (const net::Message& m : wave) batch.push_back({due(), m});
  }
  const size_t planned = batch.size();
  for (int i = 0; i < 60; ++i) {
    Timed stale = batch[gen() % planned];
    stale.due += 2 * kPeriod;  // overtaken in flight by newer pushes
    batch.push_back(stale);
  }
  for (int i = 0; i < 90; ++i) {
    const auto src = static_cast<HostId>(1 + gen() % 12);
    batch.push_back({due(), hub_message(src, gen)});
  }
  return batch;
}

/// The batch in (due, seq) order, seq being its index.
std::vector<net::Message> DueOrder(const std::vector<Timed>& batch) {
  std::vector<Timed> sorted = batch;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Timed& a, const Timed& b) { return a.due < b.due; });
  std::vector<net::Message> order;
  for (const Timed& t : sorted) order.push_back(t.msg);
  return order;
}

/// The batch in the order the async driver's queue delivers it: one drain
/// per tick instant if `ticks`, then the settling Top/Pop drain. Checks
/// each tick drain is host-major.
std::vector<net::Message> QueueOrder(const std::vector<Timed>& batch,
                                     bool ticks) {
  net::InFlightQueue queue;
  for (const Timed& t : batch) queue.Push(t.due, t.msg);
  std::vector<net::Message> order;
  for (SimTime t = kPeriod; ticks && t <= 4 * kPeriod; t += kPeriod) {
    HostId last = -1;
    while (queue.HasDueBy(t)) {
      EXPECT_GE(queue.Top().dst, last) << "drain to " << t;
      last = queue.Top().dst;
      order.push_back(queue.Top());
      queue.Pop();
    }
  }
  while (!queue.empty()) {
    order.push_back(queue.Top());
    queue.Pop();
  }
  return order;
}

void ExpectSameBits(double a, double b, HostId id, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << " at host " << id << ": " << a << " vs " << b;
}

int HubMessages(const std::vector<net::Message>& order) {
  return static_cast<int>(std::count_if(
      order.begin(), order.end(),
      [](const net::Message& m) { return m.dst == kHub; }));
}

/// Both orders deliver the same batch, differently, with a hub in it.
void CheckOrders(const std::vector<net::Message>& by_due,
                 const std::vector<net::Message>& by_host) {
  ASSERT_EQ(by_host.size(), by_due.size());
  // Same messages, not the same sequence.
  EXPECT_FALSE(std::equal(by_due.begin(), by_due.end(), by_host.begin(),
                          [](const net::Message& a, const net::Message& b) {
                            return a.dst == b.dst && a.src == b.src;
                          }));
  EXPECT_GT(HubMessages(by_host), 64);
}

std::vector<double> Values() {
  Rng rng(30);
  std::vector<double> values(kHosts);
  for (double& v : values) v = rng.UniformDouble(0, 100);
  return values;
}

TEST(AsyncDeliveryOrderTest, PushSumIsBitIdenticalInHostMajorOrder) {
  PushSumSwarm start(Values(), GossipMode::kPush);
  const std::vector<Timed> batch =
      MakeBatch(start, [](HostId src, std::mt19937_64& gen) {
        const double w = static_cast<double>(gen() % 1000) / 997.0;
        return net::Message{src, kHub, w, w * 37.1, 0};
      });
  const std::vector<net::Message> by_due = DueOrder(batch);
  PushSumSwarm a = start;
  for (const net::Message& m : by_due) a.Deliver(m);
  for (const bool ticks : {true, false}) {
    SCOPED_TRACE(ticks ? "tick drains" : "one drain");
    const std::vector<net::Message> by_host = QueueOrder(batch, ticks);
    CheckOrders(by_due, by_host);
    PushSumSwarm b = start;
    for (const net::Message& m : by_host) b.Deliver(m);
    for (HostId i = 0; i < kHosts; ++i) {
      ExpectSameBits(a.Estimate(i), b.Estimate(i), i, "estimate");
      ExpectSameBits(a.mass(i).weight, b.mass(i).weight, i, "weight");
      ExpectSameBits(a.mass(i).value, b.mass(i).value, i, "value");
    }
  }
}

TEST(AsyncDeliveryOrderTest, PushFlowIsBitIdenticalInHostMajorOrder) {
  PushFlowSwarm start(Values());
  // Hub traffic restates cumulative flows over twelve edges with
  // sequence numbers drawn from 1..8, so many arrive stale.
  const std::vector<Timed> batch =
      MakeBatch(start, [](HostId src, std::mt19937_64& gen) {
        const uint64_t seq = 1 + gen() % 8;
        const double flow = static_cast<double>(seq) + 0.1 * src;
        return net::Message{src, kHub, flow, flow / 13.0, seq};
      });
  const std::vector<net::Message> by_due = DueOrder(batch);
  PushFlowSwarm a = start;
  for (const net::Message& m : by_due) a.Deliver(m);
  EXPECT_GT(a.num_edges(kHub), 12);
  for (const bool ticks : {true, false}) {
    SCOPED_TRACE(ticks ? "tick drains" : "one drain");
    const std::vector<net::Message> by_host = QueueOrder(batch, ticks);
    CheckOrders(by_due, by_host);
    PushFlowSwarm b = start;
    for (const net::Message& m : by_host) b.Deliver(m);
    for (HostId i = 0; i < kHosts; ++i) {
      ExpectSameBits(a.Estimate(i), b.Estimate(i), i, "estimate");
      ExpectSameBits(a.effective_mass(i), b.effective_mass(i), i, "mass");
      ExpectSameBits(a.effective_weight(i), b.effective_weight(i), i,
                     "weight");
      ASSERT_EQ(a.num_edges(i), b.num_edges(i)) << i;
      for (HostId j = 0; j < kHosts; ++j) {
        ASSERT_EQ(a.tracks_edge(i, j), b.tracks_edge(i, j))
            << i << "->" << j;
      }
    }
  }
}

}  // namespace
}  // namespace dynagg
