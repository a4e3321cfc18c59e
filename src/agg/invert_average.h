// Invert-Average: dynamic summation by composition (Section IV.B, Fig 7).
//
//   sum  ~  Count-Sketch-Reset network size  x  Push-Sum-Revert average.
//
// Registering a value v as v sketch insertions ("multiple insertions") costs
// sketch space logarithmic in the value range and is exact in expectation,
// but the sketch traffic dwarfs Push-Sum's two doubles per message.
// Invert-Average runs one Count-Sketch-Reset instance (amortizable across
// any number of simultaneous sums) plus one cheap Push-Sum-Revert instance
// per summed attribute. The errors of the two protocols multiply, which the
// ablation bench quantifies against the multiple-insertion technique.

#ifndef DYNAGG_AGG_INVERT_AVERAGE_H_
#define DYNAGG_AGG_INVERT_AVERAGE_H_

#include <vector>

#include "agg/count_sketch_reset.h"
#include "agg/push_sum_revert.h"
#include "common/rng.h"
#include "common/types.h"
#include "env/environment.h"
#include "sim/population.h"

namespace dynagg {

/// Invert-Average configuration: one CSR instance for the size, one PSR
/// instance per value.
struct InvertAverageParams {
  PsrParams psr;
  CsrParams csr;
  /// Identifiers registered per host for the size estimate (>1 reduces
  /// variance in small networks; Fig 11 uses 100).
  int64_t count_multiplicity = 1;
};

/// A population running Fig 7: netsize via Count-Sketch-Reset and the value
/// average via Push-Sum-Revert; each host's sum estimate is their product.
class InvertAverageSwarm {
 public:
  InvertAverageSwarm(const std::vector<double>& values,
                     const InvertAverageParams& params);

  /// One gossip iteration of both sub-protocols.
  void RunRound(const Environment& env, const Population& pop, Rng& rng);

  /// Host id's estimate of the network-wide sum.
  double EstimateSum(HostId id) const {
    return EstimateNetworkSize(id) * psr_.Estimate(id);
  }
  /// Host id's estimate of the number of participating hosts.
  double EstimateNetworkSize(HostId id) const {
    return csr_.EstimateCount(id) /
           static_cast<double>(params_.count_multiplicity);
  }
  /// Host id's estimate of the network-wide average.
  double EstimateAverage(HostId id) const { return psr_.Estimate(id); }

  int size() const { return psr_.size(); }
  const PushSumRevertSwarm& psr() const { return psr_; }
  const CsrSwarm& csr() const { return csr_; }

  /// Forwards the round kernel's push-loop thread count to the PSR instance
  /// (CSR exchanges are sequential merges and ignore it).
  void set_intra_round_threads(int threads) {
    psr_.set_intra_round_threads(threads);
  }

  /// Churn-join reset: both sub-protocols restart host `id` from its
  /// pristine contribution.
  void OnJoin(HostId id) {
    psr_.OnJoin(id);
    csr_.OnJoin(id);
  }

 private:
  InvertAverageParams params_;
  PushSumRevertSwarm psr_;
  CsrSwarm csr_;
};

}  // namespace dynagg

#endif  // DYNAGG_AGG_INVERT_AVERAGE_H_
