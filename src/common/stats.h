// Statistics substrate: running moments, deviation-from-truth accumulators,
// histograms/CDFs, and CSV time series.
//
// The paper reports errors "in aggregate as the standard deviation from the
// correct value" (Section V): the root-mean-square of (host estimate - true
// aggregate) over alive hosts. DeviationStat implements exactly that.

#ifndef DYNAGG_COMMON_STATS_H_
#define DYNAGG_COMMON_STATS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace dynagg {

/// Numerically stable (Welford) running mean/variance with min/max.
class RunningStat {
 public:
  RunningStat() = default;

  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStat& other);

  /// Resets to the empty state.
  void Reset() { *this = RunningStat(); }

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance (divides by n). Zero for n < 1.
  double variance() const { return count_ > 0 ? m2_ / count_ : 0.0; }
  /// Sample variance (divides by n-1). Zero for n < 2.
  double sample_variance() const {
    return count_ > 1 ? m2_ / (count_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * count_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Accumulates the paper's error metric: the standard deviation of host
/// estimates from the (possibly per-host) correct value, i.e.
/// sqrt(mean((estimate_i - truth_i)^2)).
class DeviationStat {
 public:
  /// Adds one host's estimate against its correct value. Branch-free (the
  /// sign of a deviation is unpredictable), and inline together with rms()
  /// so a per-host scan keeps the sums in registers.
  void Add(double estimate, double truth) {
    const double d = estimate - truth;
    sum_sq_ += d * d;
    sum_abs_ += std::fabs(d);
    ++count_;
  }

  void Reset() { *this = DeviationStat(); }

  int64_t count() const { return count_; }
  /// Root-mean-square deviation from truth; 0 when empty.
  double rms() const {
    return count_ > 0 ? std::sqrt(sum_sq_ / count_) : 0.0;
  }
  /// Mean absolute deviation from truth; 0 when empty.
  double mean_abs() const { return count_ > 0 ? sum_abs_ / count_ : 0.0; }

 private:
  int64_t count_ = 0;
  double sum_sq_ = 0.0;
  double sum_abs_ = 0.0;
};

/// Fixed-width histogram over [lo, hi) with explicit under/overflow buckets;
/// emits CDF rows for figure reproduction (Fig 6).
class Histogram {
 public:
  /// `num_buckets` >= 1, hi > lo.
  Histogram(double lo, double hi, int num_buckets);

  void Add(double x);
  void Reset();

  int64_t total() const { return total_; }
  int num_buckets() const { return static_cast<int>(counts_.size()); }
  /// Count in bucket `i` (0 <= i < num_buckets()).
  int64_t bucket_count(int i) const { return counts_[i]; }
  /// Inclusive upper edge of bucket `i`.
  double bucket_upper(int i) const;
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }

  /// Empirical CDF evaluated at bucket upper edges:
  /// P[X <= bucket_upper(i)], counting underflow below every bucket.
  std::vector<double> Cdf() const;

  /// Approximate quantile (inverse CDF) by linear scan; q in [0, 1].
  double Quantile(double q) const;

 private:
  double lo_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  int64_t total_ = 0;
};

/// Exact q-quantile (q in [0, 1]) of an ascending-sorted sample by linear
/// interpolation between order statistics (the common "R-7" definition:
/// position q * (n - 1)). 0 for an empty sample. Backs the scenario
/// engine's quantile(metric, q) records.
double QuantileFromSorted(const std::vector<double>& sorted, double q);

/// A labelled numeric table accumulated row by row and rendered as CSV.
/// Used by every bench harness to print the series the paper plots.
class CsvTable {
 public:
  explicit CsvTable(std::vector<std::string> columns);

  /// Appends one row; must match the column count.
  void AddRow(const std::vector<double>& row);

  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<double>& row(int64_t i) const { return rows_[i]; }

  /// Renders "col1,col2,...\nv11,v12,...\n..." with %.6g formatting.
  std::string ToCsv() const;

  /// Prints ToCsv() to stdout.
  void Print() const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace dynagg

#endif  // DYNAGG_COMMON_STATS_H_
