/// Accounting golden for the serving engine's execute paths: one fixed,
/// paused submission set run over four graph states (unsharded clean,
/// unsharded with a pending update overlay, 2-shard clean, 2-shard after
/// an update), each with batches of three and of one request. Outputs are
/// pinned bitwise against the sequential host reference on the effective
/// operand; every per-request clock field and every engine/device counter
/// is pinned to exact recorded values, so a refactor of execution or
/// accounting that moves any modelled number by one ulp fails here.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/shard.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::EdgeBatch;
using serve::Engine;
using serve::EngineStats;
using serve::GraphId;
using serve::RequestResult;
using serve::RequestStatus;
using serve::ServeOptions;
using serve::Ticket;

struct ResultPin {
  double modelled_ms;
  double completed_at_ms;
  const char* device;
  int shards;
  bool plan_cache_hit;
  int batch_size;
  bool deadline_met;
};

struct DevicePin {
  std::uint64_t requests;
  std::uint64_t batches;
  std::uint64_t plan_cache_hits;
  std::uint64_t plan_cache_misses;
  double modelled_ms;
};

struct StatePin {
  std::vector<ResultPin> results;
  std::uint64_t batches;
  std::uint64_t plan_cache_hits;
  std::uint64_t plan_cache_misses;
  std::uint64_t shard_launches;
  std::uint64_t deadline_missed;
  double modelled_ms;
  double gather_ms;
  double plan_build_ms;
  DevicePin devices[2];
};

struct Outcome {
  std::vector<RequestResult> results;
  /// Host-reference output per SpMM request (model tickets excluded).
  std::vector<DenseMatrix> want;
  EngineStats stats;
};

constexpr index_t kRows = 1024;
const index_t kWidths[] = {8, 16, 8, 32, 8, 16, 8, 32};

Csr golden_graph() { return sparse::uniform_random(kRows, kRows, 8192, 4242); }

/// Touches only shard 1 of a 2-way split: 40 inserts into its first row
/// (inside its first simulated block) and one delete of an existing edge
/// in the last non-empty row. Far below the compaction fraction.
EdgeBatch golden_update(const Csr& a) {
  EdgeBatch batch;
  const index_t row = serve::plan_shards(a, 2).shards[1].row_begin;
  for (index_t j = 0; j < 40; ++j) {
    batch.inserts.push_back({row, 3 * j, 0.5f + 0.01f * static_cast<value_t>(j)});
  }
  index_t last = kRows - 1;
  while (a.rowptr[static_cast<std::size_t>(last)] ==
         a.rowptr[static_cast<std::size_t>(last) + 1]) {
    --last;
  }
  batch.deletes = {{last, a.colind[static_cast<std::size_t>(
                              a.rowptr[static_cast<std::size_t>(last)])]}};
  return batch;
}

/// Runs the fixed submission set on a fresh paused engine over both
/// default devices. A batch holds at most three requests and 32 columns,
/// so the eight Sum requests ship as [3][1][3][1], every batch 32 wide:
/// round-robin puts batches 0/2 and 1/3 on one device each, so the
/// second pair hits the first pair's plans (a sharded graph runs every
/// batch on both devices, so only batch 0 misses). Request 3 carries a
/// deadline it must miss, request 7 one it meets. Unsharded states then
/// run one 2-layer GCN model ticket.
Outcome run_state(bool sharded, bool update) {
  const Csr a = golden_graph();
  ServeOptions opt;
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.sample_blocks = 128;
  opt.batch.max_batch_requests = 3;
  opt.batch.max_batch_n = 32;
  opt.sharding.device_capacity_bytes = sharded ? serve::csr_bytes(a) - 1 : 0;
  Engine eng(opt);
  const GraphId id = eng.register_graph(a);
  EXPECT_EQ(eng.shard_plan(id) != nullptr, sharded);
  if (update) {
    const serve::UpdateReport rep = eng.apply_update(id, golden_update(a));
    EXPECT_FALSE(rep.compacted);
    EXPECT_EQ(rep.shards_replanned, sharded ? 1 : 0);
  }
  const auto effective = eng.graph(id);

  Outcome out;
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < std::size(kWidths); ++i) {
    DenseMatrix b(kRows, kWidths[i]);
    kernels::fill_random(b, 900 + i);
    DenseMatrix want(kRows, kWidths[i]);
    kernels::spmm_host_reference(*effective, b, want, ReduceKind::Sum);
    out.want.push_back(std::move(want));
    const double deadline = i == 3 ? 1e-6 : i == 7 ? 1e9 : 0.0;
    tickets.push_back(eng.submit(id, std::move(b), {.deadline_ms = deadline}));
  }
  if (!sharded) {
    const serve::ModelId mid = eng.register_model(
        id, serve::make_model_spec(serve::ServedModelKind::Gcn, 16, 16, 4, 2));
    DenseMatrix x(kRows, 16);
    kernels::fill_random(x, 990);
    tickets.push_back(eng.submit_model(mid, std::move(x)));
  }
  eng.start();
  for (const Ticket& t : tickets) out.results.push_back(t.wait());
  eng.shutdown();
  out.stats = eng.stats();
  return out;
}

void expect_pinned(const Outcome& got, const StatePin& pin) {
  ASSERT_EQ(got.results.size(), pin.results.size());
  for (std::size_t i = 0; i < pin.results.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestResult& r = got.results[i];
    const ResultPin& p = pin.results[i];
    ASSERT_EQ(r.status, RequestStatus::Ok);
    if (i < got.want.size()) {
      EXPECT_EQ(r.c.max_abs_diff(got.want[i]), 0.0) << "output not bitwise";
    }
    EXPECT_EQ(r.modelled_ms, p.modelled_ms);
    EXPECT_EQ(r.completed_at_ms, p.completed_at_ms);
    EXPECT_EQ(r.device, p.device);
    EXPECT_EQ(r.shards, p.shards);
    EXPECT_EQ(r.plan_cache_hit, p.plan_cache_hit);
    EXPECT_EQ(r.batch_size, p.batch_size);
    EXPECT_EQ(r.deadline_met, p.deadline_met);
  }
  const EngineStats& st = got.stats;
  EXPECT_EQ(st.completed, pin.results.size());
  EXPECT_EQ(st.batches, pin.batches);
  EXPECT_EQ(st.plan_cache_hits, pin.plan_cache_hits);
  EXPECT_EQ(st.plan_cache_misses, pin.plan_cache_misses);
  EXPECT_EQ(st.shard_launches, pin.shard_launches);
  EXPECT_EQ(st.deadline_missed, pin.deadline_missed);
  EXPECT_EQ(st.modelled_ms, pin.modelled_ms);
  EXPECT_EQ(st.gather_ms, pin.gather_ms);
  EXPECT_EQ(st.plan_build_ms, pin.plan_build_ms);
  ASSERT_EQ(st.devices.size(), 2u);
  for (std::size_t d = 0; d < 2; ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    EXPECT_EQ(st.devices[d].requests, pin.devices[d].requests);
    EXPECT_EQ(st.devices[d].batches, pin.devices[d].batches);
    EXPECT_EQ(st.devices[d].plan_cache_hits, pin.devices[d].plan_cache_hits);
    EXPECT_EQ(st.devices[d].plan_cache_misses, pin.devices[d].plan_cache_misses);
    EXPECT_EQ(st.devices[d].modelled_ms, pin.devices[d].modelled_ms);
  }
}

// Recorded values (%.17g, exact double round-trip).
const StatePin kUnshardedClean{
    {
        {0.0017871652892561983, 0.0071486611570247931, "gtx1080ti", 0, false, 3, true},
        {0.0035743305785123965, 0.0071486611570247931, "gtx1080ti", 0, false, 3, true},
        {0.0017871652892561983, 0.0071486611570247931, "gtx1080ti", 0, false, 3, true},
        {0.008155357142857143, 0.008155357142857143, "rtx2080", 0, false, 1, false},
        {0.0017871652892561983, 0.014297322314049586, "gtx1080ti", 0, true, 3, true},
        {0.0035743305785123965, 0.014297322314049586, "gtx1080ti", 0, true, 3, true},
        {0.0017871652892561983, 0.014297322314049586, "gtx1080ti", 0, true, 3, true},
        {0.008155357142857143, 0.016310714285714286, "rtx2080", 0, true, 1, true},
        {0.01443625344352617, 0.028733575757575756, "gtx1080ti", 0, true, 1, true},
    },
    5, 4, 2, 0, 1,
    0.045044290043290046, 0, 0,
    {{7, 3, 3, 1, 0.028733575757575756},
     {2, 2, 1, 1, 0.016310714285714286}}};

const StatePin kUnshardedOverlay{
    {
        {0.0017871652892561983, 0.0071486611570247931, "gtx1080ti", 0, false, 3, true},
        {0.0035743305785123965, 0.0071486611570247931, "gtx1080ti", 0, false, 3, true},
        {0.0017871652892561983, 0.0071486611570247931, "gtx1080ti", 0, false, 3, true},
        {0.008155357142857143, 0.008155357142857143, "rtx2080", 0, false, 1, false},
        {0.0017871652892561983, 0.014297322314049586, "gtx1080ti", 0, true, 3, true},
        {0.0035743305785123965, 0.014297322314049586, "gtx1080ti", 0, true, 3, true},
        {0.0017871652892561983, 0.014297322314049586, "gtx1080ti", 0, true, 3, true},
        {0.008155357142857143, 0.016310714285714286, "rtx2080", 0, true, 1, true},
        {0.01443625344352617, 0.028733575757575756, "gtx1080ti", 0, true, 1, true},
    },
    5, 4, 2, 0, 1,
    0.045044290043290046, 0, 0,
    {{7, 3, 3, 1, 0.028733575757575756},
     {2, 2, 1, 1, 0.016310714285714286}}};

const StatePin kShardedClean{
    {
        {0.0016916362710837761, 0.0067665450843351045, "gtx1080ti", 2, false, 3, true},
        {0.0033832725421675523, 0.0067665450843351045, "gtx1080ti", 2, false, 3, true},
        {0.0016916362710837761, 0.0067665450843351045, "gtx1080ti", 2, false, 3, true},
        {0.0067665450843351045, 0.013533090168670209, "gtx1080ti", 2, true, 1, false},
        {0.0016916362710837761, 0.020299635253005315, "gtx1080ti", 2, true, 3, true},
        {0.0033832725421675523, 0.020299635253005315, "gtx1080ti", 2, true, 3, true},
        {0.0016916362710837761, 0.020299635253005315, "gtx1080ti", 2, true, 3, true},
        {0.0067665450843351045, 0.027066180337340418, "gtx1080ti", 2, true, 1, true},
    },
    4, 6, 2, 8, 1,
    0.052786077712366597, 0.00172032, 0,
    {{8, 4, 3, 1, 0.025719897375026179},
     {8, 4, 3, 1, 0.027066180337340418}}};

const StatePin kShardedUpdated{
    {
        {0.0021539733333333332, 0.0086158933333333326, "gtx1080ti", 2, false, 3, true},
        {0.0043079466666666663, 0.0086158933333333326, "gtx1080ti", 2, false, 3, true},
        {0.0021539733333333332, 0.0086158933333333326, "gtx1080ti", 2, false, 3, true},
        {0.0086158933333333326, 0.017231786666666665, "gtx1080ti", 2, true, 1, false},
        {0.0021539733333333332, 0.025847679999999998, "gtx1080ti", 2, true, 3, true},
        {0.0043079466666666663, 0.025847679999999998, "gtx1080ti", 2, true, 3, true},
        {0.0021539733333333332, 0.025847679999999998, "gtx1080ti", 2, true, 3, true},
        {0.0086158933333333326, 0.034463573333333331, "gtx1080ti", 2, true, 1, true},
    },
    4, 6, 2, 8, 1,
    0.060183470708359506, 0.0017220266666666665, 0,
    {{8, 4, 3, 1, 0.025719897375026179},
     {8, 4, 3, 1, 0.034463573333333331}}};

TEST(ServeAccounting, UnshardedCleanGolden) {
  expect_pinned(run_state(/*sharded=*/false, /*update=*/false), kUnshardedClean);
}

TEST(ServeAccounting, UnshardedOverlayGolden) {
  expect_pinned(run_state(/*sharded=*/false, /*update=*/true), kUnshardedOverlay);
}

TEST(ServeAccounting, ShardedCleanGolden) {
  expect_pinned(run_state(/*sharded=*/true, /*update=*/false), kShardedClean);
}

TEST(ServeAccounting, ShardedUpdatedGolden) {
  expect_pinned(run_state(/*sharded=*/true, /*update=*/true), kShardedUpdated);
}

}  // namespace
}  // namespace gespmm
