#pragma once
/// \file reference.hpp
/// Independent output checks. The benchmark keeps its own copy of every
/// graph it serves (`EdgeSet`), applies each update to it, and checks
/// responses against a double-precision reference computed from that copy,
/// never from the library's kernels. The acceptance rule is a rounding
/// bound any correct float SpMM meets whatever its summation order:
///   |c - ref| <= gamma(len + 2) * sum |a * b|,  gamma(k) = k u / (1 - k u),
/// with u = 2^-24 and len the row's nonzero count. It pins no bits of
/// today's kernels.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "serve/delta.hpp"
#include "serve/model_plan.hpp"
#include "sparse/csr.hpp"
#include "sparse/rng.hpp"

namespace perfbench {

using gespmm::kernels::DenseMatrix;
using gespmm::serve::EdgeBatch;
using gespmm::sparse::Csr;
using gespmm::sparse::index_t;
using gespmm::sparse::SplitMix64;

/// Relative rounding bound for a float accumulation of `terms` terms.
double rounding_bound(std::size_t terms);

/// Row-major float matrix with entries uniform in [-1, 1).
DenseMatrix random_dense(index_t rows, index_t cols, SplitMix64& rng);

/// The benchmark's own adjacency: per-row entries sorted by column.
class EdgeSet {
 public:
  struct Entry {
    index_t col = 0;
    float val = 0.0f;
  };

  explicit EdgeSet(const Csr& a);

  index_t rows() const { return static_cast<index_t>(rows_.size()); }
  index_t cols() const { return cols_; }
  std::int64_t nnz() const { return nnz_; }
  std::span<const Entry> row(index_t i) const { return rows_[static_cast<std::size_t>(i)]; }
  /// Bumped by every `apply`.
  std::uint64_t version() const { return version_; }

  /// Upsert the inserts, then erase the deletes. Throws
  /// std::invalid_argument for a delete of a missing edge.
  void apply(const EdgeBatch& batch);

  /// A batch of `inserts` new edges and `deletes` existing ones, all on
  /// distinct (row, col) pairs, so the batch is valid against this set.
  EdgeBatch random_batch(SplitMix64& rng, int inserts, int deletes) const;

  /// The `k` rows with the most nonzeros, heaviest first.
  std::vector<index_t> heaviest_rows(std::size_t k) const;

  /// CSR with rows in ascending column order.
  Csr to_csr() const;

 private:
  index_t cols_ = 0;
  std::int64_t nnz_ = 0;
  std::uint64_t version_ = 0;
  std::vector<std::vector<Entry>> rows_;
};

/// Checks Sum-SpMM responses C = A * B against an EdgeSet.
class SpmmChecker {
 public:
  /// `heavy` of the heaviest rows are checked in every response, plus
  /// `sampled` rows drawn per response.
  SpmmChecker(const EdgeSet& graph, std::size_t heavy, std::size_t sampled);

  /// Mismatching elements over the heavy rows, the drawn rows and `extra`.
  std::size_t check_sampled(const DenseMatrix& b, const DenseMatrix& c, SplitMix64& rng,
                            std::span<const index_t> extra = {});
  /// Mismatching elements over every row.
  std::size_t check_full(const DenseMatrix& b, const DenseMatrix& c) const;

 private:
  struct RowRef {
    std::vector<double> ref;
    std::vector<double> tol;
  };
  RowRef reference_row(const DenseMatrix& b, index_t i) const;
  std::size_t compare_row(const RowRef& r, const DenseMatrix& c, index_t i) const;

  const EdgeSet& graph_;
  std::size_t heavy_count_;
  std::size_t sampled_;
  /// Heavy-row references per B matrix, valid for `cache_version_`.
  std::uint64_t cache_version_ = UINT64_MAX;
  std::vector<index_t> heavy_;
  std::map<const DenseMatrix*, std::vector<RowRef>> cache_;
};

/// Checks GCN forward passes out = act(A * H * W + b) (ReLU on every layer
/// but the last) against a double-precision pass over an EdgeSet.
class GcnChecker {
 public:
  explicit GcnChecker(const gespmm::serve::ModelSpec& spec);

  /// Mismatching elements of `out` on `rows` of the forward pass of
  /// `features` over `graph`.
  std::size_t check_rows(const EdgeSet& graph, const DenseMatrix& features,
                         const DenseMatrix& out, const std::vector<index_t>& rows);

 private:
  struct Dense {
    std::size_t cols = 0;
    std::vector<double> v;    // row-major value
    std::vector<double> mag;  // matching magnitude bound
  };
  /// features * W0 and its magnitude, per feature matrix.
  const Dense& first_transform(const DenseMatrix& features);

  const gespmm::serve::ModelSpec& spec_;
  std::map<const DenseMatrix*, Dense> transformed_;
};

}  // namespace perfbench
