// Area statistics (the paper's generalized social-networking scenario).
//
// "A more general social networking application could provide statistics
// about a given area, steering users towards areas populated by those with
// similar interests" (Section I). Each device carries its owner's interest
// score for tonight's theme. The app composes four dynamic aggregates over
// whoever is nearby — population (Count-Sketch-Reset), mean and spread
// (dynamic moments), and the interest distribution's quartiles (dynamic
// CDF) — and renders a live area report on one device.

#include <cstdio>
#include <vector>

#include "agg/count_sketch_reset.h"
#include "agg/moments.h"
#include "agg/quantiles.h"
#include "common/rng.h"
#include "env/haggle_gen.h"
#include "env/trace_env.h"
#include "sim/population.h"

int main() {
  using namespace dynagg;

  HaggleGenParams mobility = HaggleDataset3();
  mobility.duration_hours = 12.0;
  mobility.day_start_hour = 0;  // a 12-hour street festival
  mobility.day_end_hour = 24;
  const ContactTrace trace = GenerateHaggleTrace(mobility);
  const int n = trace.num_devices();

  // Interest scores 0..100; two taste communities.
  Rng rng(21);
  std::vector<double> interest(n);
  for (int i = 0; i < n; ++i) {
    interest[i] = i % 2 == 0 ? rng.UniformDouble(55, 95)   // fans
                             : rng.UniformDouble(5, 45);   // skeptics
  }

  const PsrParams psr{.lambda = 0.02, .mode = GossipMode::kPushPull};
  DynamicMomentsSwarm moments(interest, psr);
  QuantileParams qparams;
  qparams.thresholds = UniformThresholds(0.0, 100.0, 21);
  qparams.psr = psr;
  DynamicCdfSwarm cdf(interest, qparams);
  CsrParams csr;
  csr.bins = 32;
  csr.levels = 16;
  CsrSwarm population(std::vector<int64_t>(n, 100), csr);

  // Gossip off the mobility trace, one round per 30 s.
  TraceEnvironment env(trace);
  Population pop(n);
  const SimTime period = FromSeconds(30);
  const HostId display = 0;
  std::printf(
      "hour  people  interest: mean+-sd    [q25  median  q75]\n");
  for (SimTime t = period; t <= trace.end_time(); t += period) {
    env.AdvanceTo(t);
    moments.RunRound(env, pop, rng);
    cdf.RunRound(env, pop, rng);
    population.RunRound(env, pop, rng);

    if (t % FromHours(1) != 0) continue;  // report every hour
    std::printf("%4.0f  %6.1f  %13.1f+-%4.1f    [%4.1f  %6.1f  %5.1f]\n",
                ToHours(t), population.EstimateCount(display) / 100.0,
                moments.EstimateMean(display),
                moments.EstimateStdDev(display),
                cdf.EstimateQuantile(display, 0.25),
                cdf.EstimateQuantile(display, 0.50),
                cdf.EstimateQuantile(display, 0.75));
  }
  std::printf(
      "\nEvery column is a live gossip aggregate over the display\n"
      "device's current group; no coordinator, no membership list.\n");
  return 0;
}
