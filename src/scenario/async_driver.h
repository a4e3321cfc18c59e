// The `async` trial driver: message-level gossip in a plain time loop,
// with a deterministic network model deciding each message's fate.
//
// Where the rounds driver moves state between hosts instantaneously inside
// a synchronous round, the async driver splits every gossip exchange into
// a SEND (the swarm's async tick plans a batch of messages) and a DELIVERY
// (after the network model's per-message latency draw, or never, when the
// Bernoulli drop fires). Ticks still happen every gossip_period simulated
// seconds — `rounds` counts them — but between two ticks messages are in
// flight: they can arrive late, out of order, or not at all, which is
// exactly the regime that separates mass-conserving push-sum (loses mass
// with every dropped message) from flow-conserving push-flow (self-heals).
//
// Determinism: the network model seeds a fresh Rng per message from
// seeds.message_stream, undropped messages wait in an InFlightQueue that
// delivers them in (due time, send order), and every tick instant runs the
// same fixed sequence — drain the messages due, tick, drain again, sample —
// so a trial is byte-identical no matter how many executor threads run
// trials around it.

#ifndef DYNAGG_SCENARIO_ASYNC_DRIVER_H_
#define DYNAGG_SCENARIO_ASYNC_DRIVER_H_

#include "common/status.h"
#include "net/network_model.h"
#include "scenario/registry.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {

/// Spec-only validation of a `driver = async` experiment: protocol
/// capability, the net.* / seeds.* / record.* allowlists and value ranges,
/// the metric catalog, and the keys the driver does not consume.
/// ValidateExperiment runs it on every cell of the sweep grid.
Status ValidateAsyncSpec(const ScenarioSpec& spec, const ProtocolDef& def);

/// Parses and range-checks the net.* keys (defaults: a perfect network —
/// fixed zero latency, no loss, no jitter).
Result<net::NetworkParams> ParseNetworkParams(const ScenarioSpec& spec);

namespace internal {
/// Registers `driver = async` (called by RegisterBuiltinDrivers).
void RegisterAsyncDriver(Registry<DriverDef>& registry);
}  // namespace internal

}  // namespace scenario
}  // namespace dynagg

#endif  // DYNAGG_SCENARIO_ASYNC_DRIVER_H_
