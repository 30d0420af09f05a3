#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <set>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common/bench_common.hpp"
#include "bench_common/json.hpp"
#include "core/autotune.hpp"
#include "core/gespmm.hpp"
#include "gpusim/mma.hpp"
#include "kernels/row_block_mapping.hpp"
#include "kernels/spmm_host.hpp"
#include "kernels/spmm_hybrid.hpp"

namespace perfbench {

namespace gs = gespmm::serve;

// -------------------------------------------------------------------- Run

Run::Run(Options o) : opt(std::move(o)), tracer(opt.trace) {
  const gs::ServeOptions defaults;
  devices = defaults.devices;
}

std::size_t Run::device_index(const std::string& name) const {
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (devices[i].name == name) return i;
  }
  throw std::runtime_error("response names an unknown device " + name);
}

std::unique_ptr<Engine> Run::make_engine() const {
  gs::ServeOptions o;
  o.num_workers = kWorkers;
  return std::make_unique<Engine>(o);
}

std::unique_ptr<Engine> Run::timed_setup(Workload& w) {
  const auto t0 = Clock::now();
  std::unique_ptr<Engine> eng = w.setup(*this);
  setup_s.push_back(ms_since(t0) * 1e-3);
  return eng;
}

GraphId Run::register_graph(Engine& eng, const Csr& a) {
  Span s(tracer, "register_graph");
  const auto t0 = Clock::now();
  const GraphId id = eng.register_graph(a);
  register_ms.push_back(ms_since(t0));
  return id;
}

bool Run::update(Engine& eng, GraphId id, const EdgeBatch& batch, bool timed) {
  ++attempted;
  Span s(tracer, "apply_update", timed ? phase_span : 0);
  const auto t0 = Clock::now();
  try {
    eng.apply_update(id, batch);
  } catch (const std::exception& e) {
    fail(e.what());
    return false;
  }
  const double ms = ms_since(t0);
  if (timed) phase_ms += ms;
  update_ms.push_back(ms);
  ++updates;
  return true;
}

void Run::verdict(std::size_t bad) {
  if (bad > 0) fail(std::to_string(bad) + " output elements outside the rounding bound", true);
}

void Run::fail(const std::string& why, bool mismatch) {
  ++failed;
  if (mismatch) ++mismatched;
  // Report the first few causes; the count is in the result line.
  if (failed <= 5) std::cerr << "perfbench: failed operation: " << why << "\n";
}

// ------------------------------------------------------------------ pricing

namespace {

using gespmm::gpusim::LaunchResult;
using gespmm::gpusim::SamplePolicy;

/// Blocks the simulator executes for a launch under a sampling budget. A
/// hybrid run is two launches whose composed metrics keep only the first
/// launch's grid, so its grids are rebuilt from the row partition the
/// kernel uses (dense windows of tile.m rows, one CRC block per ragged row).
double simulated_blocks(const Shape& s, const gespmm::gpusim::DeviceSpec& dev,
                        const LaunchResult& r, std::uint64_t budget) {
  auto capped = [&](long long grid) {
    return static_cast<double>(std::min<std::uint64_t>(static_cast<std::uint64_t>(grid), budget));
  };
  if (s.algo != SpmmAlgo::HybridMma) return capped(static_cast<long long>(r.metrics.num_blocks));
  const auto tile = gespmm::gpusim::mma_tile_for(dev);
  const auto part =
      gespmm::kernels::partition_rows_by_density(*s.graph, static_cast<index_t>(tile.k));
  double blocks = 0.0;
  if (part.dense_rows > 0) blocks += capped((part.dense_rows + tile.m - 1) / tile.m);
  if (part.ragged_rows() > 0) {
    blocks += capped(gespmm::kernels::RowBlockMapping::create(part.ragged_rows(), s.n, 1).grid());
  }
  return blocks;
}

/// Full and sampled simulations of shapes, memoized per shape.
class Pricer {
 public:
  explicit Pricer(const Run& run) : run_(run) {}

  const LaunchResult& full(const Shape& s) { return simulate(s, SamplePolicy::full(), full_); }
  const LaunchResult& sampled(const Shape& s) {
    return simulate(s, SamplePolicy::sampled(kSampleBlocks), sampled_);
  }
  /// Host ms of the first (unmemoized) simulation of `s` per policy.
  double full_host_ms() const { return full_host_ms_; }
  double sampled_host_ms(const Shape& s) const { return sampled_ms_.at(s); }

  static constexpr std::uint64_t kSampleBlocks = gs::PlanCacheOptions{}.sample_blocks;

 private:
  const LaunchResult& simulate(const Shape& s, SamplePolicy policy,
                               std::map<Shape, LaunchResult>& memo) {
    auto it = memo.find(s);
    if (it != memo.end()) return it->second;
    gespmm::ProfileOptions po;
    po.device = run_.devices[s.device];
    po.sample = policy;
    po.algo = s.algo;
    const auto t0 = Clock::now();
    LaunchResult r = gespmm::profile_spmm_shape(*s.graph, s.n, po).result;
    const double ms = ms_since(t0);
    if (&memo == &full_) {
      full_host_ms_ += ms;
    } else {
      sampled_ms_[s] = ms;
    }
    return memo.emplace(s, std::move(r)).first->second;
  }

  const Run& run_;
  std::map<Shape, LaunchResult> full_;
  std::map<Shape, LaunchResult> sampled_;
  std::map<Shape, double> sampled_ms_;
  double full_host_ms_ = 0.0;
};

template <class F>
double median_ms(Tracer& tracer, const char* name, std::uint64_t parent, F&& f, int reps = 3) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    Span s(tracer, name, parent);
    const auto t0 = Clock::now();
    f();
    v.push_back(ms_since(t0));
  }
  return median(v);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Bytes a host SpMM moves, computed from its shape: A's CSR arrays, one
/// B row of n floats per nonzero, and C written once.
double host_spmm_bytes(const Csr& a, index_t n) {
  const double nnz = a.nnz();
  return 8.0 * nnz + 4.0 * (a.rows + 1.0) + 4.0 * nnz * n + 4.0 * a.rows * static_cast<double>(n);
}

/// The per-layer decomposition: the traced run feeds the workload's own
/// inputs through each module's public functions and times them.
std::map<std::string, double> decompose(Run& run, const Workload& w, Pricer& pricer) {
  Span root(run.tracer, "decompose");
  const std::uint64_t rid = root.id();
  std::map<std::string, double> out;

  std::set<Shape> shapes;
  std::set<const Csr*> graphs;
  std::set<std::pair<const Csr*, index_t>> host_shapes;
  for (const auto& req : run.priced) {
    for (const auto& s : req.launches) {
      shapes.insert(s);
      graphs.insert(s.graph);
      host_shapes.insert({s.graph, s.n});
    }
  }

  // sparse: fingerprint cost per nonzero.
  double fp_ns = 0.0, fp_nnz = 0.0;
  for (const Csr* g : graphs) {
    fp_ns += 1e6 * median_ms(run.tracer, "fingerprint", rid, [&] { (void)gs::fingerprint(*g); });
    fp_nnz += g->nnz();
  }
  out["sparse.fingerprint_ns_per_nnz"] = fp_ns / fp_nnz;

  // kernels: standalone host SpMM per (graph, width).
  std::map<std::pair<const Csr*, index_t>, double> host_ms;
  double bytes = 0.0, host_total_ms = 0.0;
  SplitMix64 rng(run.opt.seed ^ 0xDEC0u);
  for (const auto& [g, n] : host_shapes) {
    const DenseMatrix b = random_dense(g->cols, n, rng);
    DenseMatrix c(g->rows, n);
    const double ms = median_ms(run.tracer, "spmm_host_parallel", rid,
                                [&] { gespmm::kernels::spmm_host_parallel(*g, b, c); });
    host_ms[{g, n}] = ms;
    bytes += host_spmm_bytes(*g, n);
    host_total_ms += ms;
  }
  out["kernels.host_spmm_gbps"] = bytes / (host_total_ms * 1e-3) / 1e9;

  // gpusim + core: sampled vs full estimate, plan build, selection regret.
  std::vector<double> bias, regret, build_ms, build_blocks;
  double blocks = 0.0, blocks_ms = 0.0;
  for (const Shape& s : shapes) {
    const auto& dev = run.devices[s.device];
    const LaunchResult* sampled = nullptr;
    {
      Span sp(run.tracer, "profile_spmm_shape.sampled", rid);
      sampled = &pricer.sampled(s);
    }
    const LaunchResult* full = nullptr;
    {
      Span sp(run.tracer, "profile_spmm_shape.full", rid);
      full = &pricer.full(s);
    }
    bias.push_back(bias_ratio(sampled->time_ms(), full->time_ms()));
    blocks += simulated_blocks(s, dev, *sampled, Pricer::kSampleBlocks);
    blocks_ms += pricer.sampled_host_ms(s);

    gespmm::AutotuneOptions ao;
    ao.device = dev;
    ao.sample_blocks = Pricer::kSampleBlocks;
    gespmm::AutotuneResult tuned;
    build_ms.push_back(median_ms(run.tracer, "autotune_spmm", rid,
                                 [&] { tuned = gespmm::autotune_spmm(*s.graph, s.n, ao); }));
    double per_build = 0.0;
    for (const auto& [algo, ms] : tuned.times_ms) {
      Shape priced = s;
      priced.algo = algo;
      per_build += simulated_blocks(priced, dev, pricer.sampled(priced), Pricer::kSampleBlocks);
    }
    build_blocks.push_back(per_build);

    double best = full->time_ms();
    for (const SpmmAlgo cand : gespmm::autotune_candidates(*s.graph, s.n, dev)) {
      Shape c = s;
      c.algo = cand;
      Span sp(run.tracer, "profile_spmm_shape.full", rid);
      best = std::min(best, pricer.full(c).time_ms());
    }
    regret.push_back(full->time_ms() / best);
    std::printf("shape %dx%d nnz=%d n=%d %s %s: sampled %.4g ms, full %.4g ms, bias %.3gx, "
                "regret %.3gx\n",
                s.graph->rows, s.graph->cols, s.graph->nnz(), s.n, dev.name.c_str(),
                gespmm::kernels::algo_name(s.algo), sampled->time_ms(), full->time_ms(),
                bias.back(), regret.back());
  }
  std::fflush(stdout);
  out["gpusim.sampled_blocks_per_s"] = blocks / (blocks_ms * 1e-3);
  out["gpusim.blocks_per_build"] = mean(build_blocks);
  out["gpusim.sample_bias_geomean"] = gespmm::bench::geomean(bias);
  out["gpusim.sample_bias_max"] = *std::max_element(bias.begin(), bias.end());
  out["core.plan_build_ms"] = mean(build_ms);
  out["core.selection_regret_geomean"] = gespmm::bench::geomean(regret);
  out["core.selection_regret_max"] = *std::max_element(regret.begin(), regret.end());

  // serve: overlay fold and merge on a valid 64-edge batch.
  const Probe probe = w.probe();
  const Csr& g = *probe.graph;
  const EdgeBatch batch = EdgeSet(g).random_batch(rng, kBatchInserts, kBatchDeletes);
  std::shared_ptr<const gs::DeltaOverlay> overlay;
  out["serve.overlay_fold_ms"] = median_ms(run.tracer, "DeltaOverlay::apply", rid, [&] {
    overlay = gs::DeltaOverlay::apply(g, nullptr, batch);
  });
  {
    const Csr& patch = overlay->patch();
    const DenseMatrix b = random_dense(g.cols, probe.width, rng);
    DenseMatrix c(patch.rows, probe.width);
    out["serve.overlay_merge_ms"] = median_ms(run.tracer, "overlay_merge", rid, [&] {
      gespmm::kernels::spmm_host_parallel(patch, b, c);
    });
  }

  // serve: the model path — compile, the first layer's GEMM, each layer.
  const ModelSpec spec = probe.model != nullptr
                             ? *probe.model
                             : gs::make_model_spec(gs::ServedModelKind::Gcn, probe.width,
                                                   probe.width, 16, 2, run.opt.seed);
  gs::ModelPlan plan;
  out["serve.compile_model_ms"] = median_ms(run.tracer, "compile_model", rid, [&] {
    plan = gs::compile_model(gs::fingerprint(g).key(), g, spec);
  });
  DenseMatrix h = random_dense(g.rows, plan.in_feats, rng);
  {
    DenseMatrix hw(g.rows, spec.weights.front().cols());
    out["serve.gemm_ms"] = median_ms(run.tracer, "gemm", rid,
                                     [&] { gs::gemm(h, spec.weights.front(), hw); });
  }
  double forward_ms = 0.0;
  for (std::size_t l = 0; l < plan.layers.size(); ++l) {
    const gs::LayerStep& step = plan.layers[l];
    DenseMatrix next(g.rows, step.out_width);
    gs::ModelArena arena;
    forward_ms += median_ms(run.tracer, "run_layer", rid, [&] {
      gs::run_layer(g, step, h, spec.weights[l], spec.bias[l], next, arena);
    });
    h = std::move(next);
  }
  out["serve.layer_ms"] = forward_ms / static_cast<double>(plan.layers.size());

  // serve: request latency beyond the standalone compute of the same
  // request (the forward pass for a model request, the SpMMs otherwise).
  std::vector<double> overhead, request_host_ms;
  for (const auto& req : run.priced) {
    double standalone = 0.0;
    for (const auto& s : req.launches) standalone += host_ms.at({s.graph, s.n});
    request_host_ms.push_back(standalone);
    if (probe.model != nullptr) standalone = forward_ms;
    overhead.push_back(req.latency_ms - standalone);
  }
  out["kernels.host_spmm_ms"] = mean(request_host_ms);
  out["serve.overhead_ms"] = median(overhead);
  return out;
}

/// Machine-wide CPU time from the first line of /proc/stat, in clock
/// ticks: busy time (steal included) and the share the hypervisor took.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal)) {
    return {};  // no /proc/stat: reported as no steal
  }
  return {user + nice + system + irq + softirq + steal, steal};
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double busy = after.busy - before.busy;
  return busy > 0.0 ? (after.steal - before.steal) / busy : 0.0;
}

/// The timed phase's state at a read of /proc/stat: window i of the phase
/// runs from mark i to mark i + 1.
struct Mark {
  std::size_t requests = 0;  // Run::latency_ms entries so far
  double phase_ms = 0.0;
  CpuTicks cpu;
};

/// The request latencies of the timed phase's least-stolen windows.
/// Updates are not windowed: their cost grows between compactions, so a
/// subset of windows would sample a different part of that cycle per run.
struct HostSample {
  std::vector<double> latency_ms;
  double phase_ms = 0.0;
  std::size_t windows = 0;
  double steal = 0.0;
};

/// Windows in ascending order of steal share, until they hold kKeptPhaseShare
/// of the phase clock and kMinTimedRequests requests.
HostSample least_stolen(const Run& run, const std::vector<Mark>& marks) {
  std::vector<std::size_t> order(marks.size() - 1);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal_share(marks[a].cpu, marks[a + 1].cpu) <
           steal_share(marks[b].cpu, marks[b + 1].cpu);
  });
  HostSample out;
  CpuTicks kept;
  for (const std::size_t i : order) {
    if (out.phase_ms >= kKeptPhaseShare * run.phase_ms &&
        out.latency_ms.size() >= kMinTimedRequests) {
      break;
    }
    const Mark& from = marks[i];
    const Mark& to = marks[i + 1];
    out.latency_ms.insert(out.latency_ms.end(), run.latency_ms.begin() + from.requests,
                          run.latency_ms.begin() + to.requests);
    out.phase_ms += to.phase_ms - from.phase_ms;
    kept.busy += to.cpu.busy - from.cpu.busy;
    kept.steal += to.cpu.steal - from.cpu.steal;
    ++out.windows;
  }
  out.steal = steal_share(CpuTicks{}, kept);
  return out;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Every per-layer metric of the traced run with its unit.
const std::map<std::string, const char*>& layer_units() {
  static const std::map<std::string, const char*> units = {
      {"sparse.fingerprint_ns_per_nnz", "ns/nnz"},
      {"gpusim.sampled_blocks_per_s", "blocks/s"},
      {"gpusim.blocks_per_build", "blocks"},
      {"gpusim.sample_bias_geomean", "x"},
      {"gpusim.sample_bias_max", "x"},
      {"gpusim.dram_ms", "ms"},
      {"gpusim.l2_ms", "ms"},
      {"gpusim.mma_ms", "ms"},
      {"gpusim.tail_ms", "ms"},
      {"gpusim.launch_ms", "ms"},
      {"kernels.host_spmm_ms", "ms"},
      {"kernels.host_spmm_gbps", "GB/s"},
      {"kernels.modelled_full_ms", "ms"},
      {"kernels.gld_transactions", "count"},
      {"core.plan_build_ms", "ms"},
      {"core.selection_regret_geomean", "x"},
      {"core.selection_regret_max", "x"},
      {"serve.register_graph_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.plan_hit_ratio", "ratio"},
      {"serve.plan_builds_per_update", "builds/update"},
      {"serve.overlay_fold_ms", "ms"},
      {"serve.overlay_merge_ms", "ms"},
      {"serve.compile_model_ms", "ms"},
      {"serve.gemm_ms", "ms"},
      {"serve.layer_ms", "ms"},
      {"serve.virtual_ms_per_req", "ms"},
      {"trace.p50_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

gespmm::bench::Json metric(double value, const char* unit) {
  gespmm::bench::Json m = gespmm::bench::Json::object();
  m.set("value", gespmm::bench::Json::number(value));
  m.set("unit", gespmm::bench::Json::string(unit));
  return m;
}

}  // namespace

// --------------------------------------------------------------- run loop

int run_benchmark(const Options& opt) {
#ifdef _OPENMP
  // The engine's worker takes its team size from OMP_NUM_THREADS: a thread
  // the engine starts does not inherit omp_set_num_threads from this one.
  if (omp_get_max_threads() != kOmpThreads) {
    std::cerr << "perfbench: run with OMP_NUM_THREADS=" << kOmpThreads
              << " (perfbench/run.py sets it)\n";
    return 2;
  }
#endif
  Run run(opt);
  std::unique_ptr<Workload> w = make_workload(opt.workload);
  w->generate(run);

  std::unique_ptr<Engine> eng;
  {
    // A process runs its first second or two of work slower: on the
    // recording VM, a warm request on update-stream's graph took 16-24 ms
    // during the first 13 set-ups (about 1 s) and 7-8 ms after. Untimed
    // set-ups take the run past that first.
    Span s(run.tracer, "untimed_warmup");
    const auto t0 = Clock::now();
    while (ms_since(t0) < kUntimedWarmupS * 1e3) {
      eng.reset();
      eng = w->setup(run);
    }
    run.register_ms.clear();
  }
  {
    Span s(run.tracer, "setup");
    double spent_s = 0.0;
    while (run.setup_s.size() < kMinSetupReps ||
           (spent_s < kSetupBudgetS && run.setup_s.size() < kMaxSetupReps)) {
      eng.reset();
      eng = run.timed_setup(*w);
      spent_s += run.setup_s.back();
    }
  }

  // The timed phase: whole rounds until the phase clock passes --seconds
  // and at least kMinTimedRequests requests were timed.
  constexpr double kWallCapMs = 100e3;
  std::vector<Mark> marks;
  auto mark = [&] {
    marks.push_back({run.latency_ms.size(), run.phase_ms, cpu_ticks()});
  };
  mark();
  {
    Span phase(run.tracer, "timed_phase");
    run.phase_span = phase.id();
    const auto wall0 = Clock::now();
    auto window0 = wall0;
    while (run.phase_ms < opt.seconds * 1e3 || run.latency_ms.size() < kMinTimedRequests) {
      if (ms_since(wall0) > kWallCapMs) break;
      w->round(run, eng);
      if (ms_since(window0) >= kWindowMs) {
        mark();
        window0 = Clock::now();
      }
    }
    run.phase_span = 0;
  }
  if (marks.back().requests < run.latency_ms.size() || marks.size() == 1) mark();
  const double steal = steal_share(marks.front().cpu, marks.back().cpu);
  const HostSample host = least_stolen(run, marks);
  w->after_phase(run, *eng);
  // Read before the late setups and the reference pricing below, whose
  // engines and simulations would otherwise set the high-water mark.
  const double peak_rss = peak_rss_mib();
  eng.reset();
  {
    Span s(run.tracer, "late_setup");
    for (int rep = 0; rep < kLateSetups; ++rep) w->update_cycle(run, *run.timed_setup(*w));
  }

  Pricer pricer(run);
  GflopsAggregate gflops;
  double full_ms = 0.0, gld = 0.0, dram = 0.0, l2 = 0.0, mma = 0.0, tail = 0.0, launch = 0.0;
  for (const auto& req : run.priced) {
    for (const auto& s : req.launches) {
      const LaunchResult& r = pricer.full(s);
      gflops.add(s.graph->nnz(), s.n, r.time_ms());
      full_ms += r.time_ms();
      gld += static_cast<double>(r.metrics.gld_transactions);
      dram += r.time.dram_ms;
      l2 += r.time.l2_ms;
      mma += r.time.mma_ms;
      tail += r.time.tail_ms;
      launch += r.time.launch_overhead_ms;
    }
  }

  const std::size_t timed = run.latency_ms.size();
  const std::size_t kept = host.latency_ms.size();
  const std::uint64_t hits = run.timed_plan_hits;
  const std::uint64_t misses = timed - hits;
  const std::optional<double> p95 = tail_percentile(host.latency_ms, 95.0);
  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed << ": " << timed
            << " timed requests; host metrics over the " << host.windows << " least-stolen of "
            << marks.size() - 1 << " windows (" << 100.0 * host.phase_ms / run.phase_ms
            << "% of the phase clock, " << kept << " requests: p95 over " << kept
            << " samples, highest supported percentile p" << highest_supported_percentile(kept)
            << "); CPU steal " << 100.0 * host.steal << "% of the machine's busy CPU time in"
            << " those windows, " << 100.0 * steal << "% over the phase; timed requests with"
            << " every plan cached " << hits << ", with a plan built " << misses << "; "
            << run.updates << " updates; " << run.priced.size()
            << " requests priced by full simulation in " << pricer.full_host_ms() / 1e3
            << " host s\n";
  if (host.steal > kStealWarnShare) {
    std::cerr << "perfbench: warning: the hypervisor took " << 100.0 * host.steal
              << "% of the machine's busy CPU time even in the least-stolen windows; this"
                 " run's host clock measures the machine's neighbours as well as the program\n";
  }
  if (!p95 || run.update_ms.empty() || gflops.count() == 0) {
    std::cerr << "perfbench: the run did not collect enough samples for every metric\n";
    return 1;
  }

  using gespmm::bench::Json;
  Json metrics = Json::object();
  if (!opt.trace) {
    metrics.set("setup_s", metric(median(run.setup_s), "s"));
    metrics.set("req_per_s", metric(static_cast<double>(kept) / (host.phase_ms * 1e-3), "req/s"));
    metrics.set("p50_ms", metric(median(host.latency_ms), "ms"));
    metrics.set("p95_ms", metric(*p95, "ms"));
    metrics.set("update_p50_ms", metric(median(run.update_ms), "ms"));
    metrics.set("modelled_gflops", metric(gflops.gflops(), "GFLOP/s"));
    metrics.set("peak_rss_mb", metric(peak_rss, "MiB"));
  } else {
    std::map<std::string, double> layer = decompose(run, *w, pricer);
    const double requests = static_cast<double>(run.priced.size());
    layer["kernels.modelled_full_ms"] = full_ms / requests;
    layer["kernels.gld_transactions"] = gld / requests;
    layer["gpusim.dram_ms"] = dram / requests;
    layer["gpusim.l2_ms"] = l2 / requests;
    layer["gpusim.mma_ms"] = mma / requests;
    layer["gpusim.tail_ms"] = tail / requests;
    layer["gpusim.launch_ms"] = launch / requests;
    layer["serve.register_graph_ms"] = median(run.register_ms);
    layer["serve.plan_hit_ratio"] = static_cast<double>(hits) / static_cast<double>(hits + misses);
    layer["serve.plan_builds_per_update"] =
        static_cast<double>(run.update_plan_misses) / static_cast<double>(run.updates);
    layer["serve.virtual_ms_per_req"] = mean(run.virtual_ms);
    // The recorded half against the muted half of the same phase: both
    // see the same inputs and the same spells of the machine.
    layer["trace.p50_ms"] = median(run.traced_ms);
    layer["trace.overhead_pct"] = 100.0 * (layer["trace.p50_ms"] / median(run.untraced_ms) - 1.0);
    for (const auto& [name, unit] : layer_units()) {
      metrics.set(name, metric(layer.at(name), unit));
    }
    run.tracer.write_chrome_json(opt.trace_out);
    std::cout << "perfbench: wrote " << run.tracer.spans().size() << " spans to "
              << opt.trace_out << "\n";
  }

  Json result = Json::object();
  result.set("correct", Json::boolean(run.mismatched == 0));
  result.set("attempted", Json::number(static_cast<double>(run.attempted)));
  result.set("failed", Json::number(static_cast<double>(run.failed)));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace perfbench
