// Experiment metrics: truth computation and deviation recording in the
// paper's convention (RMS deviation of per-host estimates from the correct
// aggregate over currently-alive hosts).

#ifndef DYNAGG_SIM_METRICS_H_
#define DYNAGG_SIM_METRICS_H_

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "sim/population.h"

namespace dynagg {

/// True average of `values` over currently alive hosts; 0 if none alive.
/// Sums, here and below, follow ascending host id (ForEachAliveId).
double TrueAverage(const std::vector<double>& values, const Population& pop);

/// True sum of `values` over currently alive hosts.
double TrueSum(const std::vector<double>& values, const Population& pop);

/// RMS deviation of `estimate(id)` from `truth` over alive hosts, summed in
/// ascending host id. A template so a concrete callable (a swarm box's
/// Estimate) inlines into the scan; a std::function works too.
template <typename Estimate>
double RmsDeviationOverAlive(const Population& pop, double truth,
                             const Estimate& estimate) {
  DeviationStat dev;
  ForEachAliveId(pop, [&](HostId id) { dev.Add(estimate(id), truth); });
  return dev.rms();
}

/// RMS deviation with a per-host truth (the trace driver's group-relative
/// error), summed in ascending host id.
template <typename Truth, typename Estimate>
double RmsDeviationPerHost(const Population& pop, const Truth& truth,
                           const Estimate& estimate) {
  DeviationStat dev;
  ForEachAliveId(pop, [&](HostId id) { dev.Add(estimate(id), truth(id)); });
  return dev.rms();
}

/// Detects convergence: the first round whose deviation drops below
/// `threshold` and stays below it for every subsequent recorded round.
/// Returns -1 if the series never converges.
int FirstSustainedBelow(const std::vector<double>& series, double threshold);

}  // namespace dynagg

#endif  // DYNAGG_SIM_METRICS_H_
