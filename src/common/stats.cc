#include "common/stats.h"

#include <cmath>
#include <cstdio>

namespace dynagg {

void RunningStat::Add(double x) {
  ++count_;
  if (count_ == 1) {
    mean_ = x;
    min_ = x;
    max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / count_;
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const int64_t n = count_ + other.count_;
  const double delta = other.mean_ - mean_;
  const double new_mean = mean_ + delta * other.count_ / n;
  m2_ += other.m2_ +
         delta * delta * (static_cast<double>(count_) * other.count_ / n);
  mean_ = new_mean;
  count_ = n;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int num_buckets)
    : lo_(lo), width_((hi - lo) / num_buckets) {
  DYNAGG_CHECK_GT(num_buckets, 0);
  DYNAGG_CHECK_GT(hi, lo);
  counts_.assign(num_buckets, 0);
}

void Histogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const auto idx = static_cast<int64_t>((x - lo_) / width_);
  if (idx >= static_cast<int64_t>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<size_t>(idx)];
}

void Histogram::Reset() {
  for (auto& c : counts_) c = 0;
  underflow_ = overflow_ = total_ = 0;
}

double Histogram::bucket_upper(int i) const {
  DYNAGG_CHECK_GE(i, 0);
  DYNAGG_CHECK_LT(i, num_buckets());
  return lo_ + width_ * (i + 1);
}

std::vector<double> Histogram::Cdf() const {
  std::vector<double> cdf(counts_.size(), 0.0);
  if (total_ == 0) return cdf;
  int64_t cumulative = underflow_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    cdf[i] = static_cast<double>(cumulative) / total_;
  }
  return cdf;
}

double Histogram::Quantile(double q) const {
  DYNAGG_CHECK_GE(q, 0.0);
  DYNAGG_CHECK_LE(q, 1.0);
  if (total_ == 0) return lo_;
  const double target = q * total_;
  double cumulative = underflow_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) return bucket_upper(static_cast<int>(i));
  }
  return bucket_upper(num_buckets() - 1);
}

double QuantileFromSorted(const std::vector<double>& sorted, double q) {
  DYNAGG_CHECK_GE(q, 0.0);
  DYNAGG_CHECK_LE(q, 1.0);
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

CsvTable::CsvTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  DYNAGG_CHECK(!columns_.empty());
}

void CsvTable::AddRow(const std::vector<double>& row) {
  DYNAGG_CHECK_EQ(row.size(), columns_.size());
  rows_.push_back(row);
}

namespace {

/// RFC 4180 field escaping for header cells: quote when the cell contains
/// a separator, quote or newline, doubling embedded quotes. Values are
/// numeric and never need escaping.
std::string CsvEscape(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string CsvTable::ToCsv() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ',';
    out += CsvEscape(columns_[i]);
  }
  out += '\n';
  char buf[64];
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      std::snprintf(buf, sizeof(buf), "%.6g", row[i]);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

void CsvTable::Print() const {
  const std::string csv = ToCsv();
  std::fwrite(csv.data(), 1, csv.size(), stdout);
}

}  // namespace dynagg
