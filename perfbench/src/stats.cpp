#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile of an empty sample");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::max<std::size_t>(rank, 1);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  const std::size_t rank = nearest_rank(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) { return n - nearest_rank(n, p); }

std::optional<double> tail_percentile(const std::vector<double>& v, double p) {
  if (v.empty() || samples_beyond(v.size(), p) < kTailSamples) return std::nullopt;
  return percentile(v, p);
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  if (n == 0) return best;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= kTailSamples) best = p;
  }
  return best;
}

double bias_ratio(double a, double b) {
  if (!(a > 0.0) || !(b > 0.0)) {
    throw std::invalid_argument("bias_ratio needs positive times");
  }
  return std::max(a / b, b / a);
}

void GflopsAggregate::add(double nnz, double n, double device_ms) {
  if (!(device_ms > 0.0)) throw std::invalid_argument("device time must be positive");
  flops_ += 2.0 * nnz * n;
  ms_ += device_ms;
  ++count_;
}

double GflopsAggregate::gflops() const {
  if (count_ == 0) throw std::logic_error("no requests aggregated");
  return flops_ / (ms_ * 1e-3) / 1e9;
}

}  // namespace perfbench
