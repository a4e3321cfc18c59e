// The unit of message-level simulation: one gossip payload in flight.
//
// The async driver (scenario/async_driver.cc) moves protocol state between
// hosts exclusively through these messages: a swarm's async tick plans a
// batch of them, the network model (net/network_model.h) decides each one's
// fate (latency draw, Bernoulli drop), and delivery hands the payload back
// to the swarm once the driver's clock reaches its due time — possibly
// reordered against other messages on the same edge. The payload is
// deliberately a fixed pair of doubles plus a tag: push-sum ships a
// <weight, value> mass, push-flow ships a cumulative <flow_num,
// flow_denom> edge state with a per-direction sequence number, and keeping
// the struct POD lets the in-flight queue (net/inflight_queue.h) store
// messages by value in one flat vector.

#ifndef DYNAGG_NET_MESSAGE_H_
#define DYNAGG_NET_MESSAGE_H_

#include <cstdint>

#include "common/types.h"

namespace dynagg {
namespace net {

/// One gossip message in flight from `src` to `dst`. The meaning of the
/// payload fields is the sending protocol's business; the driver and the
/// network model never interpret them.
struct Message {
  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  double a = 0.0;    // push-sum: mass weight;   push-flow: cumulative flow numerator
  double b = 0.0;    // push-sum: mass value;    push-flow: cumulative flow denominator
  uint64_t tag = 0;  // push-flow: per-direction sequence number (reordering guard)
};

}  // namespace net
}  // namespace dynagg

#endif  // DYNAGG_NET_MESSAGE_H_
