// The three workloads. Each is one closed-loop client on one engine worker;
// the comments on each class say which layers it is meant to expose.

#include <array>
#include <deque>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"

namespace perfbench {

namespace gs = gespmm::serve;
namespace sp = gespmm::sparse;

namespace {

/// Rows of every Sum response checked: the heaviest rows, always, and a
/// fresh draw of other rows per response.
constexpr std::size_t kHeavyRows = 16;
constexpr std::size_t kSampledRows = 48;

/// Where a request ran and with which kernel: what full simulation prices.
struct Served {
  std::size_t device = 0;
  SpmmAlgo algo = SpmmAlgo::Crc;
};

/// Untimed warm-up: `count` requests through `submit`, one per device
/// under the engine's round-robin dispatch. A refused warm-up aborts the
/// run: the timed phase would not be warm.
template <class Submit>
void warm(Run& run, std::size_t count, Submit&& submit) {
  Span s(run.tracer, "warmup");
  for (std::size_t i = 0; i < count; ++i) {
    if (submit().wait().status != gs::RequestStatus::Ok) {
      throw std::runtime_error("warm-up request was not executed");
    }
  }
}

/// One Sum SpMM request of `b` on `id`, checked against `checker`.
std::optional<Served> spmm_request(Run& run, Engine& eng, GraphId id, const DenseMatrix& b,
                                   SpmmChecker& checker, SplitMix64& rng, bool timed,
                                   bool full_check, std::span<const index_t> extra = {}) {
  Ticket ticket;
  DenseMatrix copy = b;  // submit takes B by value; copy outside the timer
  const RequestResult* r =
      run.request([&] { return eng.submit(id, std::move(copy)); }, ticket, timed);
  if (r == nullptr) return std::nullopt;
  run.verdict(full_check ? checker.check_full(b, r->c)
                         : checker.check_sampled(b, r->c, rng, extra));
  return Served{run.device_index(r->device), r->algo};
}

/// Apply one fresh 64-edge batch to the engine and, once accepted, to the
/// own copy. Returns the rows it touched.
std::vector<index_t> update_once(Run& run, Engine& eng, GraphId id, EdgeSet& edges,
                                 SplitMix64& rng, bool timed) {
  const EdgeBatch batch = edges.random_batch(rng, kBatchInserts, kBatchDeletes);
  if (!run.update(eng, id, batch, timed)) return {};
  edges.apply(batch);
  std::vector<index_t> rows;
  for (const auto& e : batch.inserts) rows.push_back(e.row);
  for (const auto& e : batch.deletes) rows.push_back(e.row);
  return rows;
}

/// `a` (square) with its vertices renumbered by a seeded permutation: an
/// isomorphic graph whose arrays have the same sizes for every seed.
Csr relabel(const Csr& a, SplitMix64& rng) {
  const auto rows = static_cast<std::size_t>(a.rows);
  std::vector<index_t> perm(rows);
  for (std::size_t i = 0; i < rows; ++i) perm[i] = static_cast<index_t>(i);
  for (std::size_t i = rows; i > 1; --i) std::swap(perm[i - 1], perm[rng.next_below(i)]);
  Csr out(a.rows, a.cols);
  for (std::size_t i = 0; i < rows; ++i) {
    out.rowptr[static_cast<std::size_t>(perm[i]) + 1] = a.rowptr[i + 1] - a.rowptr[i];
  }
  for (std::size_t i = 0; i < rows; ++i) out.rowptr[i + 1] += out.rowptr[i];
  out.colind.resize(a.colind.size());
  out.val.resize(a.val.size());
  for (std::size_t i = 0; i < rows; ++i) {
    auto pos = static_cast<std::size_t>(out.rowptr[static_cast<std::size_t>(perm[i])]);
    const auto end = static_cast<std::size_t>(a.rowptr[i + 1]);
    for (auto p = static_cast<std::size_t>(a.rowptr[i]); p < end; ++p, ++pos) {
      out.colind[pos] = perm[static_cast<std::size_t>(a.colind[p])];
      out.val[pos] = a.val[p];
    }
  }
  out.sort_rows();
  return out;
}

/// The engine's effective graph must equal the own copy, row by row.
void check_graph(Run& run, Engine& eng, GraphId id, const EdgeSet& edges) {
  run.checked("Engine::graph", [&] {
    Csr g = *eng.graph(id);
    g.sort_rows();
    return g == edges.to_csr();
  });
}

/// One update cycle on a freshly set-up engine whose graph `id` still
/// equals `graph`: kCycleUpdates updates, then one request through
/// `request`, which checks the rows the cycle touched against the updated
/// own copy it is given; then the engine's graph is checked whole.
template <class Request>
void run_update_cycle(Run& run, Engine& eng, GraphId id, const Csr& graph, SplitMix64& rng,
                      Request&& request) {
  EdgeSet edges(graph);
  const std::uint64_t misses0 = eng.stats().plan_cache_misses;
  std::vector<index_t> touched;
  for (int u = 0; u < kCycleUpdates; ++u) {
    const std::vector<index_t> rows = update_once(run, eng, id, edges, rng, false);
    touched.insert(touched.end(), rows.begin(), rows.end());
  }
  request(edges, touched);
  run.update_plan_misses += eng.stats().plan_cache_misses - misses0;
  check_graph(run, eng, id, edges);
}

// -------------------------------------------------------------- cold-plan

/// Every timed request is a new (graph, quantized width) plan key, drawn
/// from five graph families at three widths: plan acquisition (selection
/// plus sampled pricing) dominates and the host SpMM is small.
class ColdPlan final : public Workload {
 public:
  void generate(Run& run) override {
    SplitMix64 rng(run.opt.seed);
    for (int r = 0; r < kPoolRounds; ++r) {
      for (int f = 0; f < kFamilies; ++f) graphs_.push_back(make_family(f, rng.next()));
    }
    for (const Csr& g : graphs_) {
      for (const index_t w : kWidths) {
        if (!pool_.contains({g.cols, w})) {
          pool_.emplace(std::pair(g.cols, w), random_dense(g.cols, w, rng));
        }
      }
    }
    rng_ = SplitMix64(rng.next());
  }

  std::unique_ptr<Engine> setup(Run& run) override {
    auto eng = run.make_engine();
    ids_.clear();
    for (const Csr& g : graphs_) ids_.push_back(run.register_graph(*eng, g));
    return eng;
  }

  void round(Run& run, std::unique_ptr<Engine>& engine) override {
    if (round_ == kPoolRounds) {
      // Every graph was served at every width. A fresh engine, set up like
      // the first (off the phase clock, into setup_s), makes each (graph,
      // width) a new plan key again.
      engine.reset();
      engine = run.timed_setup(*this);
      round_ = 0;
      ++pass_;
    }
    const bool first = pass_ == 0 && round_ == 0;
    for (int f = 0; f < kFamilies; ++f) {
      const std::size_t gi = static_cast<std::size_t>(round_ * kFamilies + f);
      const Csr& g = graphs_[gi];
      const EdgeSet edges(g);
      SpmmChecker checker(edges, kHeavyRows, kSampledRows);
      for (const index_t w : kWidths) {
        const bool full = first && f == 0 && w == kWidths.front();
        const auto s = spmm_request(run, *engine, ids_[gi], pool_.at({g.cols, w}), checker,
                                    rng_, true, full);
        if (s && first) {
          run.priced.push_back({{Shape{&g, w, s->device, s->algo}}, run.latency_ms.back()});
        }
      }
    }
    ++round_;
  }

  void after_phase(Run&, Engine&) override {}

  void update_cycle(Run& run, Engine& eng) override {
    const Csr& g = graphs_.front();
    run_update_cycle(run, eng, ids_.front(), g, rng_,
                     [&](const EdgeSet& edges, const std::vector<index_t>& touched) {
                       SpmmChecker checker(edges, kHeavyRows, kSampledRows);
                       spmm_request(run, eng, ids_.front(), pool_.at({g.cols, kProbeWidth}),
                                    checker, rng_, false, false, touched);
                     });
  }

  Probe probe() const override { return {&graphs_.front(), kProbeWidth, nullptr}; }

 private:
  static constexpr int kFamilies = 5;
  /// Rounds of graphs one engine serves before it is replaced; the first
  /// round of the first engine is priced by full simulation.
  static constexpr int kPoolRounds = 8;
  static constexpr std::array<index_t, 3> kWidths = {16, 64, 256};
  static constexpr index_t kProbeWidth = 64;

  static Csr make_family(int f, std::uint64_t seed) {
    switch (f) {
      case 0: return sp::uniform_random(16384, 16384, 98304, seed);
      case 1: return sp::rmat(14, 6.0, 0.57, 0.19, 0.19, seed);
      case 2: return sp::grid_road(16384, 0.05, seed);
      case 3: return sp::pruned_dnn(8192, 512, 16, 0.97, seed);
      default: return sp::citation_graph(16384, 81920, seed);
    }
  }

  std::vector<Csr> graphs_;  // round-major, kFamilies per round
  std::map<std::pair<index_t, index_t>, DenseMatrix> pool_;  // (cols, width)
  SplitMix64 rng_{0};
  std::vector<GraphId> ids_;
  int round_ = 0;
  int pass_ = 0;
};

// ---------------------------------------------------------- update-stream

/// Cycles of one 64-edge update and four width-32 requests on a
/// citation-style graph: delta fold, version bump, targeted invalidation,
/// plan rebuild, overlay merge and compaction.
class UpdateStream final : public Workload {
 public:
  void generate(Run& run) override {
    SplitMix64 rng(run.opt.seed);
    base_ = sp::citation_graph(20000, 200000, rng.next());
    edges_ = std::make_unique<EdgeSet>(base_);
    checker_ = std::make_unique<SpmmChecker>(*edges_, kHeavyRows, kSampledRows);
    for (int i = 0; i < 4; ++i) pool_.push_back(random_dense(base_.cols, kWidth, rng));
    rng_ = SplitMix64(rng.next());
  }

  std::unique_ptr<Engine> setup(Run& run) override {
    auto eng = run.make_engine();
    id_ = run.register_graph(*eng, base_);
    warm(run, run.devices.size(), [&] { return eng->submit(id_, pool_[0]); });
    return eng;
  }

  void round(Run& run, std::unique_ptr<Engine>& engine) override {
    Engine& eng = *engine;
    const std::uint64_t misses0 = eng.stats().plan_cache_misses;
    const std::vector<index_t> touched = update_once(run, eng, id_, *edges_, rng_, true);
    const Csr* priced_graph = nullptr;
    if (round_ < kPricedRounds) priced_graph = &snapshots_.emplace_back(edges_->to_csr());
    for (int q = 0; q < kRequestsPerCycle; ++q) {
      const auto s = spmm_request(run, eng, id_, pool_[rng_.next_below(pool_.size())],
                                  *checker_, rng_, true, round_ == 0 && q == 0, touched);
      if (s && priced_graph != nullptr) {
        run.priced.push_back({{Shape{priced_graph, kWidth, s->device, s->algo}},
                              run.latency_ms.back()});
      }
    }
    run.update_plan_misses += eng.stats().plan_cache_misses - misses0;
    ++round_;
  }

  void after_phase(Run& run, Engine& eng) override { check_graph(run, eng, id_, *edges_); }
  void update_cycle(Run&, Engine&) override {}

  Probe probe() const override { return {&base_, kWidth, nullptr}; }

 private:
  static constexpr index_t kWidth = 32;
  static constexpr int kRequestsPerCycle = 4;
  static constexpr int kPricedRounds = 4;
  Csr base_;
  std::unique_ptr<EdgeSet> edges_;
  std::unique_ptr<SpmmChecker> checker_;
  std::vector<DenseMatrix> pool_;
  std::deque<Csr> snapshots_;  // effective graphs of the priced rounds
  SplitMix64 rng_{0};
  GraphId id_;
  int round_ = 0;
};

// ------------------------------------------------------------ gcn-forward

/// 2-layer GCN forward passes on pubmed with layer plans warm: the serve
/// model path (execute_model, per-layer plan reuse, serve::gemm, arena).
/// Pubmed's vertices are renumbered per seed, so the modelled figures
/// follow the seed while every allocation keeps its size: with a freshly
/// drawn pubmed-sized graph 17 nonzeros smaller, serve::gemm, which never
/// reads the graph, ran 1.4x slower.
class GcnForward final : public Workload {
 public:
  void generate(Run& run) override {
    SplitMix64 rng(run.opt.seed);
    adj_ = relabel(sp::pubmed().adj, rng);
    spec_ = gs::make_model_spec(gs::ServedModelKind::Gcn, 128, 64, 16, 2, rng.next());
    edges_ = std::make_unique<EdgeSet>(adj_);
    checker_ = std::make_unique<GcnChecker>(spec_);
    for (int i = 0; i < 2; ++i) pool_.push_back(random_dense(adj_.rows, 128, rng));
    rng_ = SplitMix64(rng.next());
  }

  std::unique_ptr<Engine> setup(Run& run) override {
    auto eng = run.make_engine();
    gid_ = run.register_graph(*eng, adj_);
    {
      Span s(run.tracer, "register_model");
      mid_ = eng->register_model(gid_, spec_);
    }
    warm(run, run.devices.size(), [&] { return eng->submit_model(mid_, pool_[0]); });
    return eng;
  }

  void round(Run& run, std::unique_ptr<Engine>& engine) override {
    Engine& eng = *engine;
    const std::optional<Served> s =
        model_request(run, eng, *edges_, pool_[k_ % pool_.size()], true, k_ == 0, {});
    if (s) {
      // RequestResult names only the last layer's plan; every layer's plan
      // is re-derived from its key, which determines it.
      const std::vector<Shape>& layers = layer_shapes(run, eng, s->device);
      if (layers.back().algo != s->algo) {
        throw std::runtime_error("re-derived last-layer plan differs from the served one");
      }
      run.priced.push_back({layers, run.latency_ms.back()});
    }
    ++k_;
  }

  void after_phase(Run&, Engine&) override {}

  void update_cycle(Run& run, Engine& eng) override {
    run_update_cycle(run, eng, gid_, adj_, rng_,
                     [&](const EdgeSet& edges, const std::vector<index_t>& touched) {
                       model_request(run, eng, edges, pool_[0], false, false, touched);
                     });
  }

  Probe probe() const override { return {&adj_, 64, &spec_}; }

 private:
  std::optional<Served> model_request(Run& run, Engine& eng, const EdgeSet& edges,
                                      const DenseMatrix& features, bool timed, bool full_check,
                                      const std::vector<index_t>& extra) {
    Ticket ticket;
    DenseMatrix copy = features;
    const RequestResult* r =
        run.request([&] { return eng.submit_model(mid_, std::move(copy)); }, ticket, timed);
    if (r == nullptr) return std::nullopt;
    std::vector<index_t> rows;
    if (full_check) {
      for (index_t i = 0; i < adj_.rows; ++i) rows.push_back(i);
    } else {
      rows = edges.heaviest_rows(kHeavyRows);
      for (std::size_t k = 0; k < kSampledRows; ++k) {
        const std::uint64_t row = rng_.next_below(static_cast<std::uint64_t>(adj_.rows));
        rows.push_back(static_cast<index_t>(row));
      }
      rows.insert(rows.end(), extra.begin(), extra.end());
    }
    run.verdict(checker_->check_rows(edges, features, r->c, rows));
    return Served{run.device_index(r->device), r->algo};
  }

  const std::vector<Shape>& layer_shapes(Run& run, Engine& eng, std::size_t device) {
    auto it = layers_.find(device);
    if (it != layers_.end()) return it->second;
    const auto model = eng.model(mid_);
    const auto& dev = run.devices[device];
    gs::PlanCache cache(eng.options().plan);
    std::vector<Shape> shapes;
    for (const gs::LayerStep& step : model->plan.layers) {
      const gs::PlanKey key{model->plan.graph_key, dev.name, step.spmm_width, step.reduce};
      shapes.push_back(Shape{&adj_, step.spmm_width, device,
                             cache.lookup_or_build(key, *model->graph, dev)->algo});
    }
    return layers_.emplace(device, std::move(shapes)).first->second;
  }

  Csr adj_;
  ModelSpec spec_;
  std::unique_ptr<EdgeSet> edges_;
  std::unique_ptr<GcnChecker> checker_;
  std::vector<DenseMatrix> pool_;
  SplitMix64 rng_{0};
  GraphId gid_;
  gs::ModelId mid_;
  std::map<std::size_t, std::vector<Shape>> layers_;  // per device
  std::size_t k_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"cold-plan", "update-stream", "gcn-forward"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cold-plan") return std::make_unique<ColdPlan>();
  if (name == "update-stream") return std::make_unique<UpdateStream>();
  if (name == "gcn-forward") return std::make_unique<GcnForward>();
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
