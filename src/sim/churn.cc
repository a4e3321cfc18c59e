#include "sim/churn.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace dynagg {

namespace {

/// Poisson draw via Knuth's product-of-uniforms method, chunked through the
/// distribution's additivity so exp(-lambda) never underflows. O(lambda)
/// uniforms — churn arrival rates are per-round and small relative to the
/// round's own O(n) work.
int SamplePoisson(double lambda, Rng& rng) {
  int k = 0;
  while (lambda > 16.0) {
    k += SamplePoisson(16.0, rng);
    lambda -= 16.0;
  }
  if (lambda <= 0) return k;
  const double limit = std::exp(-lambda);
  double product = rng.NextDouble();
  while (product > limit) {
    ++k;
    product *= rng.NextDouble();
  }
  return k;
}

/// The integer form of `Rng::Bernoulli(p)` for p in [0, 1]: NextDouble() < p
/// compares k * 2^-53 with p for the integer k = Next() >> 11, which holds
/// exactly when k < ceil(p * 2^53). Same draw, same outcome, no conversion.
uint64_t BernoulliThreshold(double p) {
  return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
}

bool BernoulliBelow(Rng& rng, uint64_t threshold) {
  return (rng.Next() >> 11) < threshold;
}

/// The plan's event count under the mean-field (expected-value) dynamics.
/// Build reserves a little above it, so the event array is allocated once
/// in practice: doubling it while it is built would copy it and, at the
/// million-host rung, leave the process several MB higher at its peak.
double ExpectedEvents(const ChurnParams& params) {
  double alive = params.initial;
  double dead = 0;
  double unborn = params.n - params.initial;
  double events = 0;
  for (int round = params.start_round; round < params.end_round; ++round) {
    const double kills = params.death_prob * alive;
    alive -= kills;
    dead += kills;
    const double rebirths = std::min(params.rebirth_prob * dead,
                                     std::max(0.0, params.max_alive - alive));
    alive += rebirths;
    dead -= rebirths;
    const double joins = std::min(
        {params.arrival_rate, unborn, std::max(0.0, params.max_alive - alive)});
    alive += joins;
    unborn -= joins;
    events += kills + rebirths + joins;
  }
  return events;
}

}  // namespace

ChurnPlan ChurnPlan::Build(const ChurnParams& params, Rng& rng) {
  DYNAGG_CHECK_GE(params.n, 0);
  DYNAGG_CHECK(params.initial >= 0 && params.initial <= params.n);
  DYNAGG_CHECK(params.max_alive >= 0 && params.max_alive <= params.n);
  DYNAGG_CHECK_GE(params.arrival_rate, 0.0);
  DYNAGG_CHECK(params.death_prob >= 0.0 && params.death_prob <= 1.0);
  DYNAGG_CHECK(params.rebirth_prob >= 0.0 && params.rebirth_prob <= 1.0);
  const uint64_t death_below = BernoulliThreshold(params.death_prob);
  const uint64_t rebirth_below = BernoulliThreshold(params.rebirth_prob);

  ChurnPlan plan;
  plan.first_round_ = params.start_round;
  plan.bounds_.push_back(0);
  std::vector<HostId>& ids = plan.ids_;
  ids.reserve(static_cast<size_t>(1.05 * ExpectedEvents(params)) + 64);
  // born: ids [0, next_unborn) have been alive at least once. Of those,
  // `dead` holds the ones that are not alive now, ascending; every other
  // born id is alive.
  HostId next_unborn = params.initial;
  std::vector<HostId> dead;
  std::vector<HostId> merged;
  int alive_count = params.initial;

  for (int round = params.start_round; round < params.end_round; ++round) {
    // Deaths: every alive (necessarily born) host flips a coin, in ID
    // order so the schedule is independent of any container ordering. The
    // alive hosts are the gaps between consecutive dead ids.
    if (params.death_prob > 0) {
      const size_t kills_begin = ids.size();
      // The draws come from a local copy, written back after the pass: the
      // compiler cannot prove that the pushes leave a referenced generator
      // alone, so it would store and reload its state around every draw.
      Rng local = rng;
      HostId id = 0;
      const auto draw_until = [&](HostId end) {
        for (; id < end; ++id) {
          if (BernoulliBelow(local, death_below)) ids.push_back(id);
        }
      };
      for (const HostId d : dead) {
        draw_until(d);
        id = d + 1;
      }
      draw_until(next_unborn);
      rng = local;
      // This round's kills are ascending too: merge them in, so they are
      // eligible for rebirth in this same round.
      const auto kills = ids.begin() + static_cast<std::ptrdiff_t>(kills_begin);
      alive_count -= static_cast<int>(ids.end() - kills);
      merged.resize(dead.size() + (ids.size() - kills_begin));
      std::merge(dead.begin(), dead.end(), kills, ids.end(), merged.begin());
      dead.swap(merged);
    }
    plan.bounds_.push_back(ids.size());
    // Rebirths: dead-but-born hosts return with ID reuse. The cap check
    // precedes each draw, so a full population consumes no RNG here and
    // the schedule stays a pure function of the (deterministic) state.
    if (params.rebirth_prob > 0) {
      size_t kept = 0;
      size_t k = 0;
      for (; k < dead.size() && alive_count < params.max_alive; ++k) {
        if (BernoulliBelow(rng, rebirth_below)) {
          ids.push_back(dead[k]);
          ++alive_count;
        } else {
          dead[kept++] = dead[k];
        }
      }
      dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(kept),
                 dead.begin() + static_cast<std::ptrdiff_t>(k));
    }
    plan.bounds_.push_back(ids.size());
    // First-time arrivals: the Poisson draw always happens (fixed RNG
    // consumption per round), then the count is clamped by the growth cap
    // and the remaining unborn pool.
    if (params.arrival_rate > 0) {
      int want = SamplePoisson(params.arrival_rate, rng);
      while (want > 0 && next_unborn < params.n &&
             alive_count < params.max_alive) {
        ids.push_back(next_unborn);
        ++alive_count;
        ++next_unborn;
        --want;
      }
    }
    plan.bounds_.push_back(ids.size());
  }
  return plan;
}

ChurnPlan::RoundDelta ChurnPlan::Apply(
    int round, Population* pop,
    const std::function<void(HostId)>& on_join) const {
  RoundDelta delta;
  const size_t b = 3 * static_cast<size_t>(round - first_round_);
  if (round < first_round_ || b + 3 >= bounds_.size()) return delta;
  const HostId* kills = ids_.data() + bounds_[b];
  const HostId* rebirths = ids_.data() + bounds_[b + 1];
  const HostId* joins = ids_.data() + bounds_[b + 2];
  const HostId* end = ids_.data() + bounds_[b + 3];
  for (const HostId* id = kills; id != rebirths; ++id) pop->Kill(*id);
  // Joins before rebirths: both revive + reset, but keeping the two lists
  // distinct lets the driver count them separately.
  for (const HostId* id = joins; id != end; ++id) {
    pop->Revive(*id);
    if (on_join) on_join(*id);
  }
  for (const HostId* id = rebirths; id != joins; ++id) {
    pop->Revive(*id);
    if (on_join) on_join(*id);
  }
  delta.kills = static_cast<int>(rebirths - kills);
  delta.rebirths = static_cast<int>(joins - rebirths);
  delta.joins = static_cast<int>(end - joins);
  return delta;
}

ChurnPlan::RoundDelta ChurnPlan::Totals() const {
  RoundDelta totals;
  for (size_t b = 0; b + 3 < bounds_.size(); b += 3) {
    totals.kills += static_cast<int>(bounds_[b + 1] - bounds_[b]);
    totals.rebirths += static_cast<int>(bounds_[b + 2] - bounds_[b + 1]);
    totals.joins += static_cast<int>(bounds_[b + 3] - bounds_[b + 2]);
  }
  return totals;
}

}  // namespace dynagg
