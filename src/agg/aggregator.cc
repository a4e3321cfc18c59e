#include "agg/aggregator.h"

#include <cmath>

#include "common/wire.h"

namespace dynagg {

namespace {
// Payload layout: magic, version, type, PSR mass, CSR counters.
constexpr uint8_t kMagic = 0xDA;
constexpr uint8_t kVersion = 1;
}  // namespace

NodeAggregator::NodeAggregator(uint64_t device_id, double local_value,
                               const AggregatorConfig& config)
    : device_id_(device_id), config_(config) {
  DYNAGG_CHECK_GE(config_.lambda, 0.0);
  DYNAGG_CHECK_LE(config_.lambda, 1.0);
  DYNAGG_CHECK_GE(config_.count_multiplicity, 1);
  psr_.Init(local_value);
  csr_.Init(config_.csr, device_id_, config_.count_multiplicity);
}

double NodeAggregator::CountEstimate() const {
  return csr_.EstimateCount() /
         static_cast<double>(config_.count_multiplicity);
}

std::vector<uint8_t> NodeAggregator::SerializeState(MsgType type,
                                                    const Mass& mass) const {
  BufWriter out;
  out.PutU8(kMagic);
  out.PutU8(kVersion);
  out.PutU8(static_cast<uint8_t>(type));
  out.PutDouble(mass.weight);
  out.PutDouble(mass.value);
  csr_.Serialize(&out);
  return out.Release();
}

std::vector<uint8_t> NodeAggregator::BeginRound() {
  return SerializeState(MsgType::kRequest, psr_.mass());
}

Status NodeAggregator::MergeIncoming(const std::vector<uint8_t>& payload,
                                     MsgType expected, Mass* incoming_mass) {
  BufReader in(payload);
  uint8_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  DYNAGG_RETURN_IF_ERROR(in.ReadU8(&magic));
  DYNAGG_RETURN_IF_ERROR(in.ReadU8(&version));
  DYNAGG_RETURN_IF_ERROR(in.ReadU8(&type));
  if (magic != kMagic || version != kVersion) {
    return Status::Corruption("aggregator: bad payload header");
  }
  if (type != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument("aggregator: unexpected message type");
  }
  DYNAGG_RETURN_IF_ERROR(in.ReadDouble(&incoming_mass->weight));
  DYNAGG_RETURN_IF_ERROR(in.ReadDouble(&incoming_mass->value));
  // One non-finite or negative-weight payload would corrupt this device's
  // mass for good and spread to every peer it gossips with.
  if (!std::isfinite(incoming_mass->weight) || incoming_mass->weight < 0.0 ||
      !std::isfinite(incoming_mass->value)) {
    return Status::Corruption("aggregator: invalid mass");
  }
  DYNAGG_RETURN_IF_ERROR(csr_.MergeSerialized(&in));
  return Status::OK();
}

Result<std::vector<uint8_t>> NodeAggregator::HandleMessage(
    const std::vector<uint8_t>& payload) {
  Mass incoming;
  DYNAGG_RETURN_IF_ERROR(
      MergeIncoming(payload, MsgType::kRequest, &incoming));
  // Push/pull equalization: adopt the pairwise average and reply with it so
  // the initiator holds the identical mass (zero net mass change).
  const Mass equalized = MassMidpoint(psr_.mass(), incoming);
  psr_.SetMass(equalized);
  return SerializeState(MsgType::kReply, equalized);
}

Status NodeAggregator::HandleReply(const std::vector<uint8_t>& payload) {
  Mass incoming;
  DYNAGG_RETURN_IF_ERROR(MergeIncoming(payload, MsgType::kReply, &incoming));
  // The reply carries the equalized mass; adopting it completes the
  // conservation-of-mass exchange.
  psr_.SetMass(incoming);
  return Status::OK();
}

void NodeAggregator::EndRound() {
  psr_.EndRoundPushPull(config_.lambda, RevertMode::kFixed);
  // Counter aging must happen after every merge of the round: a device
  // that aged *before* exchanging would be dragged back to its peer's
  // younger counters by the reply merge, and the network-wide minimum age
  // would never advance (departed devices would never be forgotten).
  // Aging at the end of round t is equivalent to Fig 5's increment at the
  // start of round t+1.
  csr_.AgeCounters();
}

}  // namespace dynagg
