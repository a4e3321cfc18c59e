#include "agg/invert_average.h"

namespace dynagg {

namespace {
std::vector<int64_t> UniformMultiplicities(size_t n, int64_t m) {
  return std::vector<int64_t>(n, m);
}
}  // namespace

InvertAverageSwarm::InvertAverageSwarm(const std::vector<double>& values,
                                       const InvertAverageParams& params)
    : params_(params),
      psr_(values, params.psr),
      csr_(UniformMultiplicities(values.size(), params.count_multiplicity),
           params.csr, /*read_counter_max=*/0) {
  DYNAGG_CHECK_GE(params_.count_multiplicity, 1);
}

void InvertAverageSwarm::RunRound(const Environment& env,
                                  const Population& pop, Rng& rng) {
  psr_.RunRound(env, pop, rng);
  csr_.RunRound(env, pop, rng);
}

}  // namespace dynagg
