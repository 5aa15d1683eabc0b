#include "metrics/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace seed::metrics {

void Samples::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::mean() const {
  if (values_.empty()) throw std::logic_error("Samples::mean on empty set");
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Samples::min() const {
  ensure_sorted();
  if (sorted_.empty()) throw std::logic_error("Samples::min on empty set");
  return sorted_.front();
}

double Samples::max() const {
  ensure_sorted();
  if (sorted_.empty()) throw std::logic_error("Samples::max on empty set");
  return sorted_.back();
}

namespace {

/// Where percentile p falls among n sorted values: the value at `lo`,
/// interpolated towards the next one by `frac` (rank = p/100 * (n-1)).
/// `lo + 1 == n` means the maximum. Throws on n == 0 or p outside
/// [0, 100].
struct Rank {
  std::size_t lo = 0;
  double frac = 0.0;
};

Rank rank_of(double p, std::size_t n) {
  if (n == 0) throw std::logic_error("Samples::percentile on empty set");
  if (p < 0 || p > 100) {
    throw std::invalid_argument("percentile p out of [0,100]");
  }
  if (n == 1) return {};
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, rank - static_cast<double>(lo)};
}

double interpolate(double lo_value, double hi_value, double frac) {
  return lo_value * (1.0 - frac) + hi_value * frac;
}

}  // namespace

double Samples::percentile(double p) const {
  const Rank r = rank_of(p, values_.size());
  ensure_sorted();
  if (r.lo + 1 >= sorted_.size()) return sorted_[r.lo];
  return interpolate(sorted_[r.lo], sorted_[r.lo + 1], r.frac);
}

double select_percentile(std::vector<double>& values, double p) {
  const Rank r = rank_of(p, values.size());
  const auto lo = values.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(values.begin(), lo, values.end());
  if (r.lo + 1 >= values.size()) return *lo;
  // After the partition everything past `lo` is >= it, so the next order
  // statistic is the smallest of them.
  return interpolate(*lo, *std::min_element(lo + 1, values.end()), r.frac);
}

double Samples::cdf_at(double x) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

Series make_cdf(const Samples& s, const std::string& name,
                std::size_t points) {
  Series out;
  out.name = name;
  if (s.empty() || points < 2) return out;
  const double lo = s.min();
  const double hi = s.max();
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.x.push_back(x);
    out.y.push_back(s.cdf_at(x));
  }
  return out;
}

}  // namespace seed::metrics
