#include "sim/metrics.h"

namespace dynagg {

double TrueAverage(const std::vector<double>& values, const Population& pop) {
  if (pop.num_alive() == 0) return 0.0;
  return TrueSum(values, pop) / static_cast<double>(pop.num_alive());
}

double TrueSum(const std::vector<double>& values, const Population& pop) {
  double sum = 0.0;
  ForEachAliveId(pop, [&](HostId id) { sum += values[id]; });
  return sum;
}

int FirstSustainedBelow(const std::vector<double>& series, double threshold) {
  int first = -1;
  for (size_t i = 0; i < series.size(); ++i) {
    if (series[i] < threshold) {
      if (first < 0) first = static_cast<int>(i);
    } else {
      first = -1;
    }
  }
  return first;
}

}  // namespace dynagg
