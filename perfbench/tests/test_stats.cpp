// Tests of the benchmark's own statistics: the tail-percentile rule, the
// GFLOP/s aggregate over mixed shapes and devices, and the bias ratio.
// Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  using namespace perfbench;
  check(near(median({3, 1, 2}), 2.0), "median of an odd sample");
  check(near(median({4, 1, 3, 2}), 2.5), "median of an even sample");
  check(near(percentile(ramp(200), 95), 190.0), "nearest-rank p95 of 1..200");
  check(samples_beyond(200, 95) == 10, "p95 of 200 leaves 10 samples beyond");
  check(samples_beyond(199, 95) == 9, "p95 of 199 leaves 9 samples beyond");
  check(tail_percentile(ramp(200), 95).has_value(), "p95 reported at 200 samples");
  check(!tail_percentile(ramp(199), 95).has_value(), "p95 refused below 200 samples");
  check(!tail_percentile(ramp(999), 99).has_value(), "p99 refused below 1000 samples");
  check(tail_percentile(ramp(1000), 99).has_value(), "p99 reported at 1000 samples");
  check(highest_supported_percentile(19) == 0.0, "no percentile with 19 samples");
  check(highest_supported_percentile(20) == 50.0, "median needs 10 beyond: 20 samples");
  check(highest_supported_percentile(199) == 90.0, "199 samples support p90 at most");
  check(highest_supported_percentile(200) == 95.0, "200 samples support p95");
  check(highest_supported_percentile(1000) == 99.0, "1000 samples support p99");
  check(highest_supported_percentile(10000) == 99.9, "10000 samples support p99.9");
  check(throws([] { perfbench::percentile({}, 50); }), "empty sample rejected");
  check(throws([] { perfbench::percentile({1.0}, 0); }), "p = 0 rejected");
}

void gflops_aggregate() {
  perfbench::GflopsAggregate g;
  // Two shapes on two devices: 1e6 nnz at N=64 in 1 ms, 1e5 nnz at N=16 in
  // 0.5 ms. Aggregate = total flops / total time, not a mean of rates.
  g.add(1e6, 64, 1.0);
  g.add(1e5, 16, 0.5);
  const double flops = 2.0 * 1e6 * 64 + 2.0 * 1e5 * 16;
  check(near(g.flops(), flops), "flops summed over shapes");
  check(near(g.gflops(), flops / 1.5e-3 / 1e9), "GFLOP/s = sum flops / sum time");
  const double mean_of_rates = 0.5 * (2.0 * 1e6 * 64 / 1e-3 + 2.0 * 1e5 * 16 / 0.5e-3) / 1e9;
  check(!near(g.gflops(), mean_of_rates), "aggregate differs from the mean of rates");
  perfbench::GflopsAggregate reordered;
  reordered.add(1e5, 16, 0.5);
  reordered.add(1e6, 64, 1.0);
  check(near(reordered.gflops(), g.gflops()), "aggregate independent of order");
  check(throws([] { perfbench::GflopsAggregate().gflops(); }), "empty aggregate rejected");
  check(throws([] { perfbench::GflopsAggregate().add(1, 1, 0.0); }), "zero time rejected");
}

void bias_ratio() {
  using perfbench::bias_ratio;
  check(near(bias_ratio(7.1, 0.568), bias_ratio(0.568, 7.1)), "bias ratio symmetric");
  check(near(bias_ratio(2.0, 1.0), 2.0), "overestimate by 2x reads 2");
  check(near(bias_ratio(1.0, 2.0), 2.0), "underestimate by 2x reads 2");
  check(near(bias_ratio(3.0, 3.0), 1.0), "exact estimate reads 1");
  check(throws([] { bias_ratio(0.0, 1.0); }), "zero time rejected");
}

}  // namespace

int main() {
  percentile_rule();
  gflops_aggregate();
  bias_ratio();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("perfbench stats: all checks passed");
  return EXIT_SUCCESS;
}
