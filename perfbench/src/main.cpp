// perfbench: the serving benchmark. Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--trace-out <file>]\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.trace_out = "perfbench-trace.json";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");
#ifdef __GLIBC__
  // One malloc arena: with one per thread, which arena each engine thread
  // draws decides how much freed memory stays resident, and peak_rss_mb
  // jumped by 40 MiB between identical runs.
  mallopt(M_ARENA_MAX, 1);
  // Fixed mmap and trim thresholds, at the ceiling glibc's own adjustment
  // reaches once a 32 MiB block was freed. Left to adjust, they start low
  // and move with the allocation history: update-stream's set-up took
  // 22-25 ms before the timed phase and 34-47 ms after it in one process,
  // and its p50 read 11.8-13.5 ms against 7.2-8.6 ms with them fixed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  try {
    return perfbench::run_benchmark(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
