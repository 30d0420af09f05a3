#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels/spmm_host.hpp"

namespace gespmm::serve {

namespace detail {

void RequestState::fulfill(RequestResult r) {
  {
    std::lock_guard<std::mutex> lock(mu);
    result = std::move(r);
    done = true;
  }
  cv.notify_all();
}

const RequestResult& RequestState::wait() {
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

}  // namespace detail

bool Ticket::ready() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

ServeOptions::ServeOptions()
    : devices{gpusim::gtx1080ti(), gpusim::rtx2080()},
      tenants{{"default", TenantConfig{}}} {}

namespace {

/// Validate the tenant roster and derive the scheduler's share vector
/// (sorted-name order == tenant index order) before any member that
/// depends on it is constructed.
ServeOptions prepare_options(ServeOptions opt) {
  if (opt.tenants.empty()) {
    throw std::invalid_argument("Engine: at least one tenant required");
  }
  opt.scheduler.tenant_shares.clear();
  for (const auto& [name, cfg] : opt.tenants) {
    if (!(cfg.share > 0.0) || !std::isfinite(cfg.share)) {
      throw std::invalid_argument("Engine: tenant \"" + name +
                                  "\" share must be positive and finite");
    }
    opt.scheduler.tenant_shares.push_back(cfg.share);
  }
  return opt;
}

/// The registry entry for `key` in `map` (the engine's graph or model
/// registry, under mu_); throws std::invalid_argument(`unknown`) when
/// there is none.
template <class Map>
auto& find_or_throw(Map& map, std::uint64_t key, const char* unknown) {
  const auto it = map.find(key);
  if (it == map.end()) throw std::invalid_argument(unknown);
  return it->second;
}

}  // namespace

Engine::Engine(ServeOptions opt)
    : opt_(prepare_options(std::move(opt))),
      plan_cache_(opt_.plan),
      scheduler_(opt_.scheduler, opt_.batch),
      admission_(opt_.admission) {
  if (opt_.devices.empty()) {
    throw std::invalid_argument("Engine: at least one device required");
  }
  if (opt_.num_workers < 1) {
    throw std::invalid_argument("Engine: at least one worker required");
  }
  for (const auto& [name, cfg] : opt_.tenants) {
    stats_.tenants.push_back({.tenant = name, .share = cfg.share});
  }
  for (const auto& dev : opt_.devices) stats_.devices.push_back({.device = dev.name});
  if (!opt_.start_paused) start();
}

Engine::~Engine() { shutdown(); }

GraphId Engine::register_graph(const Csr& a) {
  a.validate();
  const GraphFingerprint fp = fingerprint(a);
  const std::uint64_t key = fp.key();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (graphs_.contains(key)) {
      ++stats_.register_dedup_hits;
      return GraphId{key};
    }
  }

  // Shard planning happens outside the lock: it is an O(nnz) pass per
  // shard and only runs once per distinct oversized operand.
  const std::size_t capacity = device_capacity();
  std::shared_ptr<const ShardPlan> shards;
  const std::size_t bytes = csr_bytes(a);
  if (bytes > capacity) {
    if (opt_.devices.size() < 2) {
      throw std::runtime_error(
          "Engine::register_graph: operand (" + std::to_string(bytes) +
          " bytes) exceeds the device capacity (" + std::to_string(capacity) +
          " bytes) and there is no device group to shard across");
    }
    auto plan = std::make_shared<ShardPlan>(
        plan_shards(a, static_cast<int>(opt_.devices.size())));
    if (plan->max_shard_bytes() > capacity) {
      throw std::runtime_error(
          "Engine::register_graph: operand does not fit even sharded " +
          std::to_string(opt_.devices.size()) + " ways (largest shard " +
          std::to_string(plan->max_shard_bytes()) + " bytes, capacity " +
          std::to_string(capacity) + " bytes)");
    }
    shards = std::move(plan);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (graphs_.contains(key)) {
    ++stats_.register_dedup_hits;
  } else {
    graphs_.emplace(key, RegisteredGraph{std::make_shared<const Csr>(a),
                                         shards, nullptr, fp, key});
    ++stats_.graphs_registered;
    if (shards) ++stats_.graphs_sharded;
  }
  return GraphId{key};
}

std::size_t Engine::device_capacity() const {
  if (opt_.sharding.device_capacity_bytes != 0) {
    return opt_.sharding.device_capacity_bytes;
  }
  std::size_t capacity = opt_.devices.front().dram_bytes;
  for (const auto& dev : opt_.devices) capacity = std::min(capacity, dev.dram_bytes);
  return capacity;
}

std::shared_ptr<const Csr> Engine::effective_graph(const RegisteredGraph& g) {
  if (g.overlay == nullptr) return g.csr;
  return std::make_shared<const Csr>(g.overlay->materialize(*g.csr));
}

std::shared_ptr<const Csr> Engine::graph(GraphId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return effective_graph(
      find_or_throw(graphs_, id.key, "Engine::graph: unknown graph handle"));
}

GraphFingerprint Engine::graph_fingerprint(GraphId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_throw(graphs_, id.key,
                       "Engine::graph_fingerprint: unknown graph handle")
      .fp;
}

std::shared_ptr<const ShardPlan> Engine::shard_plan(GraphId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_throw(graphs_, id.key, "Engine::shard_plan: unknown graph handle")
      .shards;
}

ModelId Engine::register_model(GraphId graph, ModelSpec spec) {
  std::shared_ptr<const Csr> g;
  std::uint64_t graph_key = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const RegisteredGraph& rg = find_or_throw(
        graphs_, graph.key, "Engine::register_model: unknown graph handle");
    if (rg.shards != nullptr) {
      throw std::invalid_argument(
          "Engine::register_model: graph is sharded across devices; model "
          "serving needs the whole operand resident on one device");
    }
    // Models bind to the graph's *current* state: the effective CSR and
    // the version-bearing key, so an update (which rebinds by matching
    // this key) can find and recompile them.
    g = effective_graph(rg);
    graph_key = rg.current_key;
  }
  // Compile (and content-hash the parameters) outside the lock. The
  // snapshot shared_ptr keeps the operand alive and consistent even if an
  // apply_update replaces the registry's CSR meanwhile; the dedup check
  // below then simply re-runs against whatever is registered.
  ModelPlan plan = compile_model(graph_key, *g, spec);
  const std::uint64_t key = plan.key;
  auto model = std::make_shared<const RegisteredModel>(
      RegisteredModel{std::move(plan), std::move(spec), std::move(g)});
  std::lock_guard<std::mutex> lock(mu_);
  // Content dedup scans values rather than map keys: after an update
  // rebinds a model, its registry key (the stable ModelId) no longer
  // equals its recompiled plan.key.
  for (const auto& [mid, m] : models_) {
    if (m->plan.key == key) {
      ++stats_.model_register_dedup_hits;
      return ModelId{mid};
    }
  }
  models_.emplace(key, std::move(model));
  ++stats_.models_registered;
  return ModelId{key};
}

std::shared_ptr<const RegisteredModel> Engine::model(ModelId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_throw(models_, id.key, "Engine::model: unknown model handle");
}

Ticket Engine::submit(GraphId id, DenseMatrix b, const SubmitOptions& options) {
  auto state = std::make_shared<detail::RequestState>();
  std::unique_lock<std::mutex> lock(mu_);
  const RegisteredGraph& g =
      find_or_throw(graphs_, id.key, "Engine::submit: unknown graph handle");
  if (b.rows() != g.csr->cols) {
    throw std::invalid_argument("Engine::submit: B must have A.cols rows");
  }
  if (b.cols() <= 0) {
    throw std::invalid_argument("Engine::submit: B must have at least one column");
  }
  // Snapshot the graph's current state and identity: the version-bearing
  // key means requests straddling an apply_update land in different
  // scheduler queues (never one batch), and the captured base/overlay/
  // shards stay valid however the registry moves on.
  state->graph_key = g.current_key;
  state->graph = g.csr;
  state->overlay = g.overlay;
  state->shards = g.shards;
  state->reduce = options.reduce;
  state->sched_width = b.cols();
  state->b = std::move(b);
  return enqueue_or_shed(std::move(state), options, std::move(lock));
}

Ticket Engine::submit_model(ModelId id, DenseMatrix features,
                            const SubmitOptions& options) {
  auto state = std::make_shared<detail::RequestState>();
  std::unique_lock<std::mutex> lock(mu_);
  const std::shared_ptr<const RegisteredModel>& m = find_or_throw(
      models_, id.key, "Engine::submit_model: unknown model handle");
  if (features.rows() != m->plan.num_nodes) {
    throw std::invalid_argument(
        "Engine::submit_model: features must have one row per graph node");
  }
  if (features.cols() != m->plan.in_feats) {
    throw std::invalid_argument(
        "Engine::submit_model: feature width must match the model's input "
        "width");
  }
  state->model = m;
  state->graph = m->graph;
  state->graph_key = m->plan.graph_key;
  state->reduce = m->spec.reduce;
  // One ticket covers the whole forward pass; the model's summed
  // per-layer SpMM width is what the pass costs the queue's DRR budget,
  // so model and plain traffic compete on equal (width) terms.
  state->sched_width = m->plan.total_spmm_width;
  state->b = std::move(features);
  return enqueue_or_shed(std::move(state), options, std::move(lock));
}

Ticket Engine::enqueue_or_shed(std::shared_ptr<detail::RequestState> state,
                               const SubmitOptions& options,
                               std::unique_lock<std::mutex> lock) {
  // Tenant index = position in the sorted roster (the scheduler's order).
  const auto tenant = opt_.tenants.find(options.tenant);
  if (tenant == opt_.tenants.end()) {
    throw std::invalid_argument("Engine: unknown tenant \"" + options.tenant +
                                "\" (not in ServeOptions::tenants)");
  }
  state->priority = options.priority;
  state->tenant =
      static_cast<std::uint32_t>(std::distance(opt_.tenants.begin(), tenant));
  state->tenant_name = options.tenant;
  state->deadline_ms = options.deadline_ms;
  if (state->b.layout() != kernels::Layout::RowMajor) {
    throw std::invalid_argument("Engine: the dense operand must be row-major");
  }
  if (!std::isfinite(options.deadline_ms)) {
    throw std::invalid_argument(
        "Engine: deadline_ms must be finite (<= 0 means no deadline)");
  }
  if (shutting_down_) {
    throw std::runtime_error("Engine: engine is shut down");
  }
  const AdmissionDecision d =
      admission_.admit(options.priority, scheduler_.pending(),
                       tenant->second, options.deadline_ms,
                       virtual_now_ms_);
  TenantServeStats& ts = stats_.tenants[state->tenant];
  if (d.admitted) {
    state->seq = next_seq_++;
    scheduler_.enqueue({state->seq, state->graph_key, state->sched_width, state->reduce,
                        state->priority, state->model != nullptr, state->tenant});
    pending_states_.emplace(state->seq, state);
    ++stats_.submitted;
    ++ts.submitted;
    if (state->model != nullptr) ++stats_.model_requests;
    lock.unlock();
    cv_.notify_one();
    return Ticket(std::move(state));
  }
  ++stats_.shed;
  ++ts.shed;
  lock.unlock();
  // The ticket contract for shed requests: complete immediately with a
  // typed status; wait() returns rather than throwing. The ticket gets a
  // fresh state, so the request's payload (features, graph snapshot) is
  // freed on return — shedding must bound memory even while callers hold
  // the ticket.
  RequestResult res;
  res.status = RequestStatus::Shed;
  res.shed_reason = d.reason;
  res.priority = options.priority;
  res.tenant = options.tenant;
  res.deadline_ms = options.deadline_ms;
  res.deadline_met = d.reason != ShedReason::DeadlineExceeded;
  res.batch_size = 0;
  auto shed = std::make_shared<detail::RequestState>();
  shed->fulfill(std::move(res));
  return Ticket(std::move(shed));
}

UpdateReport Engine::apply_update(GraphId id, const EdgeBatch& batch) {
  // The whole update runs under mu_: it serializes with submissions, so a
  // request sees either the old state or the new one, never a mix. The
  // O(touched)/O(nnz) work this holds the lock for is the price of that
  // atomicity; updates are expected to be far rarer than submits.
  std::lock_guard<std::mutex> lock(mu_);
  if (shutting_down_) {
    throw std::runtime_error("Engine::apply_update: engine is shut down");
  }
  RegisteredGraph& g =
      find_or_throw(graphs_, id.key, "Engine::apply_update: unknown graph handle");
  const std::uint64_t old_key = g.current_key;

  // Compute the graph's next state fully before committing anything, so a
  // contract violation (DeltaOverlay::apply throws before any state
  // mutates) or a capacity failure below leaves the registry untouched.
  RegisteredGraph next = g;
  next.overlay = DeltaOverlay::apply(*g.csr, g.overlay.get(), batch);
  next.fp.version += 1;
  UpdateReport rep;
  rep.version = next.fp.version;
  std::vector<std::uint64_t> stale_keys;  // plan-cache keys to invalidate

  const std::shared_ptr<const DeltaOverlay> overlay = next.overlay;
  const bool compact =
      static_cast<double>(overlay->overlay_nnz()) >
      opt_.delta.compact_nnz_fraction * static_cast<double>(g.csr->nnz());
  if (compact) {
    // Fold the overlay into a fresh CSR; the structural fingerprint
    // fields refresh here (the O(nnz) pass is being paid anyway) while
    // the bumped version carries forward, keeping the compacted identity
    // distinct from any static registration of the same content.
    next.csr = std::make_shared<const Csr>(overlay->materialize(*g.csr));
    next.fp = fingerprint(*next.csr);
    next.fp.version = rep.version;
    next.overlay = nullptr;
    rep.compacted = true;
  }

  const std::size_t capacity = device_capacity();
  if (g.shards != nullptr) {
    // Sharded path: the row partition stays fixed between compactions and
    // only the touched slices rebuild (their content-addressed keys roll
    // forward by themselves); a compaction re-balances the partition from
    // scratch, like registration would.
    auto plan = std::make_shared<ShardPlan>();
    if (compact) {
      *plan = plan_shards(*next.csr, static_cast<int>(opt_.devices.size()));
      for (const auto& s : g.shards->shards) stale_keys.push_back(s.key);
      rep.shards_replanned = plan->num_shards();
    } else {
      *plan = *g.shards;
      for (GraphShard& s : plan->shards) {
        if (!overlay->touches(s.row_begin, s.row_end)) continue;
        stale_keys.push_back(s.key);
        Csr slice = overlay->materialize_rows(*g.csr, s.row_begin, s.row_end);
        s = make_shard_from_slice(std::move(slice), s.index, s.row_begin,
                                  s.row_end);
        ++rep.shards_replanned;
      }
    }
    if (plan->max_shard_bytes() > capacity) {
      throw std::runtime_error(
          "Engine::apply_update: a shard of the updated operand no longer "
          "fits its device (lower DeltaOptions::compact_nnz_fraction)");
    }
    plan->graph_key = next.fp.key();
    next.shards = std::move(plan);
  } else {
    if (compact && csr_bytes(*next.csr) > capacity) {
      throw std::runtime_error(
          "Engine::apply_update: compacted operand exceeds the device "
          "capacity (updates cannot re-shard an unsharded graph)");
    }
    // Unsharded plans key on the graph's current fingerprint key, so the
    // version bump already reroutes new batches; erase the now-stale old
    // generation eagerly instead of waiting for LRU pressure.
    stale_keys.push_back(old_key);
  }

  // Commit.
  next.current_key = next.fp.key();
  g = std::move(next);
  rep.overlay_nnz = g.overlay == nullptr ? 0 : g.overlay->overlay_nnz();

  for (const std::uint64_t k : stale_keys) {
    rep.plans_invalidated += plan_cache_.invalidate(k);
  }

  // Rebind models compiled against the pre-update state: recompile over
  // the new effective CSR under the same registry key, so ModelId handles
  // stay stable. In-flight model tickets hold their own RegisteredModel
  // (and with it the old CSR snapshot) and finish against it. The O(nnz)
  // effective CSR is materialized only when some model needs it.
  std::shared_ptr<const Csr> effective;
  for (auto& kv : models_) {
    std::shared_ptr<const RegisteredModel>& m = kv.second;
    if (m->plan.graph_key != old_key) continue;
    if (effective == nullptr) effective = effective_graph(g);
    ModelPlan plan = compile_model(g.current_key, *effective, m->spec);
    m = std::make_shared<const RegisteredModel>(
        RegisteredModel{std::move(plan), m->spec, effective});
  }

  ++stats_.graph_updates;
  if (rep.compacted) ++stats_.graph_compactions;
  stats_.shards_replanned += static_cast<std::uint64_t>(rep.shards_replanned);
  return rep;
}

void Engine::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  for (int i = 0; i < opt_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Engine::shutdown() {
  start();  // a paused engine still owes its queue a drain
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) w.join();
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats st = stats_;
  st.admission = admission_.stats();
  st.graphs = scheduler_.stats();
  const PlanCacheStats ps = plan_cache_.stats();
  st.plan_predicted_builds = ps.predicted_builds;
  st.plan_exact_builds = ps.exact_builds;
  st.plan_retunes = ps.retunes;
  st.plan_mispredicts = ps.mispredicts;
  st.plan_hybrid_builds = ps.hybrid_builds;
  st.plan_invalidations = ps.invalidations;
  for (const DeviceServeStats& ds : st.devices) {
    st.plan_cache_hits += ds.plan_cache_hits;
    st.plan_cache_misses += ds.plan_cache_misses;
  }
  return st;
}

double Engine::virtual_now_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

void Engine::worker_loop() {
  for (;;) {
    std::vector<std::shared_ptr<detail::RequestState>> batch;
    std::size_t device_index = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !scheduler_.empty() || shutting_down_; });
      if (scheduler_.empty()) return;  // shutting down and fully drained

      const std::vector<std::uint64_t> seqs = scheduler_.next_batch();
      for (const std::uint64_t seq : seqs) {
        auto it = pending_states_.find(seq);
        batch.push_back(std::move(it->second));
        pending_states_.erase(it);
      }
      device_index = next_device_++ % opt_.devices.size();
    }
    if (batch.front()->model != nullptr) {
      // The scheduler ships model requests as singleton batches.
      execute_model(std::move(batch.front()), device_index);
    } else {
      execute_batch(std::move(batch), device_index);
    }
  }
}

namespace {

/// Copy the rows x cols block of `src` at (sr, sc) into `dst` at (dr, dc).
void copy_block(const DenseMatrix& src, index_t sr, index_t sc, DenseMatrix& dst,
                index_t dr, index_t dc, index_t rows, index_t cols) {
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) dst.at(dr + i, dc + j) = src.at(sr + i, sc + j);
  }
}

/// Column-wise coalesce of a batch's feature matrices:
/// B_all = [B_1 | B_2 | ...]. Returns a pointer into `storage` (or the
/// single request's own matrix): column independence of SpMM makes the
/// split outputs bitwise identical to per-request execution.
const DenseMatrix* coalesce_features(
    const std::vector<std::shared_ptr<detail::RequestState>>& batch,
    index_t b_rows, index_t total_n, DenseMatrix* storage) {
  if (batch.size() == 1) return &batch.front()->b;
  *storage = DenseMatrix(b_rows, total_n);
  index_t col0 = 0;
  for (const auto& r : batch) {
    copy_block(r->b, 0, 0, *storage, 0, col0, b_rows, r->b.cols());
    col0 += r->b.cols();
  }
  return storage;
}

/// One contiguous row range of a batch's output and what running and
/// pricing it takes. The CSR is borrowed from the batch's request
/// snapshot (the registered graph or one of its shard slices).
struct RowPart {
  const Csr* csr;
  /// First output row the part's rows land at.
  index_t row_begin;
  /// Pending update rows to patch over the part's output, or nullptr.
  const DeltaOverlay* overlay;
  PlanKey key;
  std::size_t device;
  /// B rows the part must gather from peer devices before it runs.
  index_t halo_cols;
};

/// The fields every executed request's result shares: status, service
/// class, tenant, and its deadline judged on the batch's completion stamp.
RequestResult finished_result(const detail::RequestState& r, double completed_at) {
  RequestResult res;
  res.status = RequestStatus::Ok;
  res.priority = r.priority;
  res.tenant = r.tenant_name;
  res.completed_at_ms = completed_at;
  res.deadline_ms = r.deadline_ms;
  res.deadline_met = r.deadline_ms <= 0.0 || completed_at <= r.deadline_ms;
  return res;
}

}  // namespace

void Engine::execute_batch(std::vector<std::shared_ptr<detail::RequestState>> batch,
                           std::size_t device_index) {
  const detail::RequestState& head = *batch.front();
  const Csr& a = *head.graph;
  const ReduceKind reduce = head.reduce;

  index_t total_n = 0;
  for (const auto& r : batch) total_n += r->b.cols();
  DenseMatrix coalesced;
  const DenseMatrix* b_all = coalesce_features(batch, a.cols, total_n, &coalesced);

  // An unsharded graph is one part covering every row on the round-robin
  // device; a sharded graph is one part per shard, shard i on devices[i]
  // under its shard-qualified key (its slice already holds the effective
  // content, so it carries no overlay).
  std::vector<RowPart> parts;
  if (head.shards == nullptr) {
    parts.push_back({&a, 0, head.overlay.get(),
                     {head.graph_key, opt_.devices[device_index].name, total_n, reduce},
                     device_index, 0});
  } else {
    for (const GraphShard& s : head.shards->shards) {
      const auto dev = static_cast<std::size_t>(s.index);
      parts.push_back({&s.csr, s.row_begin, nullptr,
                       {s.key, opt_.devices[dev].name, total_n, reduce, s.index},
                       dev, s.halo_cols});
    }
  }

  DenseMatrix c_all;  // allocated once part 0's plan is in hand, below
  std::vector<DeviceCharge> charges;
  double gather_total_ms = 0.0;
  double makespan_ms = 0.0;
  std::shared_ptr<const CachedPlan> plan0;  // names the batch's algo/steps
  bool all_hit = true;
  for (const RowPart& p : parts) {
    // The lease pins the part's plan while its kernel runs (an in-flight
    // plan is never evicted, so concurrent same-shape batches hit) and
    // drops before any ticket can wake, so a caller that quiesces the
    // engine and then calls apply_update gets deterministic targeted
    // invalidation.
    const PlanLease lease =
        plan_cache_.acquire(p.key, *p.csr, opt_.devices[p.device]);
    if (plan0 == nullptr) {
      // Allocating the output only now keeps a cold plan build's
      // temporaries from landing above it in the heap: allocated before
      // the build, it cost the cold-plan benchmark workload about 3 ms
      // of p50 latency and 20 MiB of peak RSS.
      plan0 = lease.plan();
      c_all = DenseMatrix(a.rows, total_n);
    }

    // A part covering every row computes straight into the batch output;
    // a shard's rows land in their slice of it. Row-parallel SpMM keeps
    // every row's accumulation order, so the merge is bitwise the
    // unsharded kernel.
    if (p.csr->rows == a.rows) {
      kernels::spmm_host_parallel(*p.csr, *b_all, c_all, reduce);
    } else {
      DenseMatrix c_part(p.csr->rows, total_n);
      kernels::spmm_host_parallel(*p.csr, *b_all, c_part, reduce);
      copy_block(c_part, 0, 0, c_all, p.row_begin, 0, p.csr->rows, total_n);
    }
    // Dynamic overlay: touched rows are recomputed from their post-update
    // (canonical) form and overwrite the base kernel's rows — bitwise the
    // materialized CSR, since patch rows run the same per-row
    // accumulation order compaction would store. The plan stays priced on
    // the base: the overlay is bounded by the compaction fraction.
    if (p.overlay != nullptr) {
      const Csr& patch = p.overlay->patch();
      DenseMatrix c_patch(patch.rows, total_n);
      kernels::spmm_host_parallel(patch, *b_all, c_patch, reduce);
      const std::vector<index_t>& prows = p.overlay->rows();
      for (index_t i = 0; i < patch.rows; ++i) {
        copy_block(c_patch, i, 0, c_all, p.row_begin + prows[static_cast<std::size_t>(i)],
                   0, 1, total_n);
      }
    }

    // Before a shard's kernel can run it gathers the B rows it references
    // but does not own (its halo columns) from peer devices, priced
    // against the modelled interconnect and charged to its device clock.
    // Cold plans charge their selection cost (the sweep's extra profiling
    // runs) apart from exec_ms, so the makespan stays an execution metric.
    const double gather_ms =
        p.halo_cols == 0
            ? 0.0
            : static_cast<double>(p.halo_cols) * static_cast<double>(total_n) *
                  sizeof(value_t) / (opt_.sharding.interconnect_gbps * 1e6);
    gather_total_ms += gather_ms;
    const double exec_ms = lease->modelled_ms + gather_ms;
    makespan_ms = std::max(makespan_ms, exec_ms);
    const bool hit = lease.hit();
    all_hit = all_hit && hit;
    charges.push_back({p.device, exec_ms, hit ? 0.0 : lease->build_ms,
                       hit ? 1u : 0u, hit ? 0u : 1u});
  }

  const int shards = head.shards == nullptr ? 0 : static_cast<int>(parts.size());
  const double completed_at = account(batch, charges, gather_total_ms,
                                      static_cast<std::uint64_t>(shards), 0.0);
  index_t col0 = 0;
  for (const auto& r : batch) {
    const index_t n_r = r->b.cols();
    RequestResult res = finished_result(*r, completed_at);
    if (batch.size() == 1) {
      res.c = std::move(c_all);
    } else {
      res.c = DenseMatrix(a.rows, n_r);
      copy_block(c_all, 0, col0, res.c, 0, 0, a.rows, n_r);
    }
    col0 += n_r;
    res.algo = plan0->algo;
    res.plan_steps = plan0->steps;
    res.device = opt_.devices[parts.front().device].name;
    res.modelled_ms = makespan_ms * n_r / total_n;
    res.plan_cache_hit = all_hit;
    res.batch_size = static_cast<int>(batch.size());
    res.shards = shards;
    r->fulfill(std::move(res));
  }
}

double Engine::account(std::span<const std::shared_ptr<detail::RequestState>> batch,
                       const std::vector<DeviceCharge>& charges,
                       double gather_ms, std::uint64_t shard_launches,
                       double fused_saved_ms) {
  // Account before fulfilling: once a ticket reads ready, its batch is
  // visible in stats(). Each participating device's clock advances by its
  // own charge; the batch completes when the busiest of them does — the
  // virtual-clock stamp latency percentiles and deadlines are judged on.
  std::lock_guard<std::mutex> lock(mu_);
  double completed_at = 0.0;
  for (const DeviceCharge& c : charges) {
    DeviceServeStats& ds = stats_.devices[c.device];
    ds.requests += batch.size();
    ds.batches += 1;
    ds.modelled_ms += c.exec_ms + c.build_ms;
    completed_at = std::max(completed_at, ds.modelled_ms);
    ds.plan_cache_hits += c.hits;
    ds.plan_cache_misses += c.misses;
    stats_.modelled_ms += c.exec_ms + c.build_ms;
    stats_.plan_build_ms += c.build_ms;
  }
  virtual_now_ms_ = std::max(virtual_now_ms_, completed_at);
  stats_.completed += batch.size();
  stats_.batches += 1;
  if (batch.size() > 1) stats_.coalesced_requests += batch.size();
  stats_.shard_launches += shard_launches;
  stats_.gather_ms += gather_ms;
  stats_.fused_saved_ms += fused_saved_ms;
  for (const auto& r : batch) {
    TenantServeStats& ts = stats_.tenants[r->tenant];
    ++ts.completed;
    ts.served_width += static_cast<std::uint64_t>(r->sched_width);
    if (r->deadline_ms > 0.0 && completed_at > r->deadline_ms) {
      ++stats_.deadline_missed;
    }
  }
  return completed_at;
}

void Engine::execute_model(std::shared_ptr<detail::RequestState> state,
                           std::size_t device_index) {
  const gpusim::DeviceSpec& dev = opt_.devices[device_index];
  const RegisteredModel& m = *state->model;
  const Csr& a = *state->graph;
  const gnn::DeviceCost cost(dev);

  // One arena per pass: hidden layers share widths, so after the first
  // layer every intermediate comes out of the pool instead of a fresh
  // allocation (ModelPlan::max_width bounds each slot).
  ModelArena arena;
  DenseMatrix h = std::move(state->b);
  // The device's clock advances by the *fused* pass time (exec_ms) — that
  // is what serving pays. Cold layer plans charge their selection cost on
  // top (0 under Predict), kept out of res.modelled_ms.
  DeviceCharge charge{.device = device_index};
  double composed_ms = 0.0;
  std::shared_ptr<const CachedPlan> last;  // compile_model rejects 0 layers
  for (std::size_t l = 0; l < m.plan.layers.size(); ++l) {
    const LayerStep& s = m.plan.layers[l];
    // Per-layer plan reuse: the aggregation keys into the same PlanCache
    // as plain SpMM traffic, so layers of one model, repeated passes and
    // standalone requests at the same (graph, width, reduce) all share
    // one autotuned plan. The lease pins it for the layer's duration.
    const PlanKey key{m.plan.graph_key, dev.name, s.spmm_width, s.reduce};
    const PlanLease lease = plan_cache_.acquire(key, a, dev);
    (lease.hit() ? charge.hits : charge.misses) += 1;
    if (!lease.hit()) charge.build_ms += lease->build_ms;
    last = lease.plan();
    const LayerCost lc = price_layer(s, a.rows, lease->modelled_ms, cost);
    charge.exec_ms += lc.fused_ms;
    composed_ms += lc.composed_ms;

    DenseMatrix out = arena.take(a.rows, s.out_width);
    run_layer(a, s, h, m.spec.weights[l], m.spec.bias[l], out, arena);
    arena.put(std::move(h));
    h = std::move(out);
  }

  const double completed_at =
      account({&state, 1}, {charge}, 0.0, 0, composed_ms - charge.exec_ms);
  RequestResult res = finished_result(*state, completed_at);
  res.c = std::move(h);
  res.algo = last->algo;
  res.plan_steps = last->steps;
  res.device = dev.name;
  res.modelled_ms = charge.exec_ms;
  res.composed_ms = composed_ms;
  res.plan_cache_hit = charge.misses == 0;
  res.model_layers = static_cast<int>(m.plan.layers.size());
  state->fulfill(std::move(res));
}

}  // namespace gespmm::serve
