// Deterministic message-level network models: per-message latency, loss
// and reordering for the async trial driver.
//
// A NetworkModel maps the index of each planned gossip message to a
// delivery decision — dropped, or delivered after a latency draw — using a
// fresh Rng seeded per message (DeriveSeed(root, message_index)). Seeding
// per message rather than sharing one stream makes every decision a pure
// function of (root seed, message index): decisions can be evaluated in
// any order, on any executor thread, and the run stays byte-identical
// (pinned by tests/net/network_model_test.cc). Reordering needs no
// mechanism of its own — independent latency draws (uniform width or the
// exponential tail, plus the optional jitter term) already let a later
// message overtake an earlier one in the in-flight queue.

#ifndef DYNAGG_NET_NETWORK_MODEL_H_
#define DYNAGG_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace dynagg {
namespace net {

/// The per-message latency distribution (`net.latency` in the spec).
enum class LatencyKind {
  kFixed,        // every message takes exactly net.latency_s seconds
  kUniform,      // U[net.latency_s, net.latency_hi_s)
  kExponential,  // exponential with mean net.latency_s
};

/// The spec-declared shape of the network (the `net.*` keys, parsed and
/// validated by the async driver).
struct NetworkParams {
  LatencyKind latency = LatencyKind::kFixed;
  double latency_s = 0.0;     // fixed value / uniform low edge / exponential mean
  double latency_hi_s = 0.0;  // uniform high edge (kUniform only)
  double loss = 0.0;          // Bernoulli drop probability per message
  double jitter_s = 0.0;      // extra U[0, jitter_s) on top of every draw
};

class NetworkModel {
 public:
  /// `root_seed` is the resolved seeds.message_stream derived from the
  /// trial seed; every message decision derives from it and nothing else.
  NetworkModel(const NetworkParams& params, uint64_t root_seed)
      : params_(params), root_(root_seed) {}

  struct Delivery {
    bool dropped = false;
    SimTime delay = 0;
  };

  /// Decides message `message_index`'s fate. Pure in (root seed, index):
  /// calling in any order, any number of times, yields identical results.
  Delivery Decide(uint64_t message_index);

  /// Rng draws consumed by the decisions so far (telemetry accounting).
  int64_t rng_draws() const { return draws_; }

 private:
  NetworkParams params_;
  uint64_t root_;
  int64_t draws_ = 0;
};

/// One row of the `dynagg_run --list` network catalogs.
struct NetCatalogInfo {
  const char* name;
  const char* summary;
};

/// The latency distributions `net.latency` can select.
const std::vector<NetCatalogInfo>& NetworkModelCatalog();

/// The async driver's spec surface (net.* keys, seeds.message_stream).
const std::vector<NetCatalogInfo>& AsyncSpecKeyCatalog();

}  // namespace net
}  // namespace dynagg

#endif  // DYNAGG_NET_NETWORK_MODEL_H_
