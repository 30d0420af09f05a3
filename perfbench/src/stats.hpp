#pragma once
/// \file stats.hpp
/// The benchmark's own statistics: percentiles under the tail rule, the
/// modelled GFLOP/s aggregate and the sampled/full bias ratio. Kept free of
/// any library type so the rules are testable on plain numbers.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Median (mean of the two middle values for an even count). Throws
/// std::invalid_argument on an empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile: the value at sorted index ceil(p/100 * n) - 1.
/// Throws std::invalid_argument on an empty sample or p outside (0, 100].
double percentile(std::vector<double> v, double p);

/// How many samples of `n` lie strictly beyond the nearest-rank p-th
/// percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// The p-th percentile when at least kTailSamples samples lie beyond it
/// (p95 needs n >= 200), std::nullopt otherwise.
std::optional<double> tail_percentile(const std::vector<double>& v, double p);

/// Highest of {50, 90, 95, 99, 99.9} the sample supports under the tail
/// rule; 0 when even the median is unsupported.
double highest_supported_percentile(std::size_t n);

/// max(a/b, b/a) for positive a, b: 1 means exact agreement, and the value
/// does not depend on which side over- or under-estimates.
double bias_ratio(double a, double b);

/// Modelled throughput over requests of mixed shapes and devices:
/// sum(2 * nnz * n) / sum(device ms), never the mean of per-request rates.
class GflopsAggregate {
 public:
  void add(double nnz, double n, double device_ms);
  std::size_t count() const { return count_; }
  double flops() const { return flops_; }
  /// GFLOP/s; throws std::logic_error when nothing was added.
  double gflops() const;

 private:
  double flops_ = 0.0;
  double ms_ = 0.0;
  std::size_t count_ = 0;
};

}  // namespace perfbench
