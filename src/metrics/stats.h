// Sample statistics: percentiles, CDFs, summaries. Used by every bench to
// print the same rows/series the paper reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace seed::metrics {

/// Accumulates double samples and answers percentile/mean queries.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_valid_ = false;
  }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Linear-interpolated percentile, p in [0, 100]. Throws when empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// Fraction of samples <= x (empirical CDF evaluated at x).
  double cdf_at(double x) const;

  const std::vector<double>& values() const { return values_; }
  void clear() {
    values_.clear();
    sorted_.clear();
    sorted_valid_ = false;
  }

 private:
  void ensure_sorted() const;
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Samples::percentile of `values` (the same interpolation, bit for bit)
/// found by selection instead of a sort, for callers that evaluate one
/// percentile per batch. Reorders `values`; throws like percentile.
double select_percentile(std::vector<double>& values, double p);

/// A named (x, y) series for figure-style output.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Builds an empirical CDF series from samples (y in [0,1]).
Series make_cdf(const Samples& s, const std::string& name,
                std::size_t points = 50);

}  // namespace seed::metrics
