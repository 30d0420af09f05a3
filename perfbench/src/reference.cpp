#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double rounding_bound(std::size_t terms) {
  constexpr double u = 1.0 / 16777216.0;  // 2^-24, float unit roundoff
  const double k = static_cast<double>(terms);
  // The double-precision reference's own error is far below 2^-40.
  return k * u / (1.0 - k * u) + std::ldexp(1.0, -40);
}

DenseMatrix random_dense(index_t rows, index_t cols, SplitMix64& rng) {
  DenseMatrix m(rows, cols);
  float* p = m.device().data();
  for (std::size_t i = 0; i < m.size(); ++i) p[i] = rng.next_float(-1.0f, 1.0f);
  return m;
}

// ---------------------------------------------------------------- EdgeSet

EdgeSet::EdgeSet(const Csr& a) : cols_(a.cols), nnz_(a.nnz()) {
  rows_.resize(static_cast<std::size_t>(a.rows));
  for (index_t i = 0; i < a.rows; ++i) {
    auto& r = rows_[static_cast<std::size_t>(i)];
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      r.push_back({a.colind[static_cast<std::size_t>(p)], a.val[static_cast<std::size_t>(p)]});
    }
    std::sort(r.begin(), r.end(), [](const Entry& x, const Entry& y) { return x.col < y.col; });
  }
}

void EdgeSet::apply(const EdgeBatch& batch) {
  auto find = [](std::vector<Entry>& r, index_t col) {
    return std::lower_bound(r.begin(), r.end(), col,
                            [](const Entry& e, index_t c) { return e.col < c; });
  };
  for (const auto& e : batch.inserts) {
    auto& r = rows_[static_cast<std::size_t>(e.row)];
    auto it = find(r, e.col);
    if (it != r.end() && it->col == e.col) {
      it->val = e.val;
    } else {
      r.insert(it, {e.col, e.val});
      ++nnz_;
    }
  }
  for (const auto& d : batch.deletes) {
    auto& r = rows_[static_cast<std::size_t>(d.row)];
    auto it = find(r, d.col);
    if (it == r.end() || it->col != d.col) {
      throw std::invalid_argument("EdgeSet::apply: delete of a missing edge");
    }
    r.erase(it);
    --nnz_;
  }
  ++version_;
}

EdgeBatch EdgeSet::random_batch(SplitMix64& rng, int inserts, int deletes) const {
  EdgeBatch b;
  std::set<std::pair<index_t, index_t>> used;
  auto exists = [&](index_t row, index_t col) {
    const auto& r = rows_[static_cast<std::size_t>(row)];
    return std::binary_search(r.begin(), r.end(), Entry{col, 0.0f},
                              [](const Entry& x, const Entry& y) { return x.col < y.col; });
  };
  while (static_cast<int>(b.inserts.size()) < inserts) {
    const auto row = static_cast<index_t>(rng.next_below(rows_.size()));
    const auto col = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(cols_)));
    if (exists(row, col) || !used.insert({row, col}).second) continue;
    b.inserts.push_back({row, col, rng.next_float(0.25f, 1.0f)});
  }
  while (static_cast<int>(b.deletes.size()) < deletes) {
    const auto row = static_cast<index_t>(rng.next_below(rows_.size()));
    const auto& r = rows_[static_cast<std::size_t>(row)];
    if (r.empty()) continue;
    const index_t col = r[rng.next_below(r.size())].col;
    if (!used.insert({row, col}).second) continue;
    b.deletes.push_back({row, col});
  }
  return b;
}

std::vector<index_t> EdgeSet::heaviest_rows(std::size_t k) const {
  std::vector<index_t> ids(rows_.size());
  std::iota(ids.begin(), ids.end(), 0);
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k), ids.end(),
                    [&](index_t x, index_t y) {
                      const auto nx = rows_[static_cast<std::size_t>(x)].size();
                      const auto ny = rows_[static_cast<std::size_t>(y)].size();
                      return nx != ny ? nx > ny : x < y;
                    });
  ids.resize(k);
  return ids;
}

Csr EdgeSet::to_csr() const {
  Csr a(rows(), cols_);
  a.colind.reserve(static_cast<std::size_t>(nnz_));
  a.val.reserve(static_cast<std::size_t>(nnz_));
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    for (const auto& e : rows_[i]) {
      a.colind.push_back(e.col);
      a.val.push_back(e.val);
    }
    a.rowptr[i + 1] = static_cast<index_t>(a.colind.size());
  }
  return a;
}

// ------------------------------------------------------------ SpmmChecker

SpmmChecker::SpmmChecker(const EdgeSet& graph, std::size_t heavy, std::size_t sampled)
    : graph_(graph), heavy_count_(heavy), sampled_(sampled) {}

SpmmChecker::RowRef SpmmChecker::reference_row(const DenseMatrix& b, index_t i) const {
  const auto row = graph_.row(i);
  const index_t n = b.cols();
  RowRef r;
  r.ref.assign(static_cast<std::size_t>(n), 0.0);
  r.tol.assign(static_cast<std::size_t>(n), 0.0);
  for (const auto& e : row) {
    const float* brow = b.device().data() + static_cast<std::size_t>(e.col) * n;
    for (index_t j = 0; j < n; ++j) {
      const double t = static_cast<double>(e.val) * static_cast<double>(brow[j]);
      r.ref[static_cast<std::size_t>(j)] += t;
      r.tol[static_cast<std::size_t>(j)] += std::abs(t);
    }
  }
  const double eps = rounding_bound(row.size() + 2);
  for (auto& t : r.tol) t *= eps;
  return r;
}

std::size_t SpmmChecker::compare_row(const RowRef& r, const DenseMatrix& c, index_t i) const {
  std::size_t bad = 0;
  for (index_t j = 0; j < c.cols(); ++j) {
    const double d = std::abs(static_cast<double>(c.at(i, j)) - r.ref[static_cast<std::size_t>(j)]);
    if (!(d <= r.tol[static_cast<std::size_t>(j)])) ++bad;
  }
  return bad;
}

std::size_t SpmmChecker::check_sampled(const DenseMatrix& b, const DenseMatrix& c,
                                       SplitMix64& rng, std::span<const index_t> extra) {
  if (c.rows() != graph_.rows() || c.cols() != b.cols()) return c.size() + 1;
  if (cache_version_ != graph_.version()) {
    cache_.clear();
    heavy_ = graph_.heaviest_rows(heavy_count_);
    cache_version_ = graph_.version();
  }
  auto [it, fresh] = cache_.try_emplace(&b);
  if (fresh) {
    for (const index_t i : heavy_) it->second.push_back(reference_row(b, i));
  }
  std::size_t bad = 0;
  for (std::size_t k = 0; k < heavy_.size(); ++k) bad += compare_row(it->second[k], c, heavy_[k]);
  for (std::size_t k = 0; k < sampled_; ++k) {
    const auto i = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(c.rows())));
    bad += compare_row(reference_row(b, i), c, i);
  }
  for (const index_t i : extra) bad += compare_row(reference_row(b, i), c, i);
  return bad;
}

std::size_t SpmmChecker::check_full(const DenseMatrix& b, const DenseMatrix& c) const {
  if (c.rows() != graph_.rows() || c.cols() != b.cols()) return c.size() + 1;
  std::size_t bad = 0;
  for (index_t i = 0; i < c.rows(); ++i) bad += compare_row(reference_row(b, i), c, i);
  return bad;
}

// ------------------------------------------------------------- GcnChecker

GcnChecker::GcnChecker(const gespmm::serve::ModelSpec& spec) : spec_(spec) {
  if (spec.kind != gespmm::serve::ServedModelKind::Gcn ||
      spec.reduce != gespmm::kernels::ReduceKind::Sum) {
    throw std::invalid_argument("GcnChecker: only sum-aggregating GCN specs are checked");
  }
}

const GcnChecker::Dense& GcnChecker::first_transform(const DenseMatrix& features) {
  auto [it, fresh] = transformed_.try_emplace(&features);
  if (!fresh) return it->second;
  const DenseMatrix& w = spec_.weights.front();
  const std::size_t rows = static_cast<std::size_t>(features.rows());
  const std::size_t in = static_cast<std::size_t>(w.rows());
  const std::size_t out = static_cast<std::size_t>(w.cols());
  Dense& d = it->second;
  d.cols = out;
  d.v.assign(rows * out, 0.0);
  d.mag.assign(rows * out, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t k = 0; k < in; ++k) {
      const double h = features.at(static_cast<index_t>(i), static_cast<index_t>(k));
      for (std::size_t j = 0; j < out; ++j) {
        const double t =
            h * static_cast<double>(w.at(static_cast<index_t>(k), static_cast<index_t>(j)));
        d.v[i * out + j] += t;
        d.mag[i * out + j] += std::abs(t);
      }
    }
  }
  return d;
}

std::size_t GcnChecker::check_rows(const EdgeSet& graph, const DenseMatrix& features,
                                   const DenseMatrix& out, const std::vector<index_t>& rows) {
  const std::size_t layers = spec_.weights.size();
  const auto out_cols = static_cast<std::size_t>(spec_.weights.back().cols());
  if (out.rows() != graph.rows() || static_cast<std::size_t>(out.cols()) != out_cols) {
    return out.size() + 1;
  }
  // needed[l]: rows whose layer-l aggregation is required; needed[L-1] are
  // the checked output rows, each earlier set the neighbourhood of the next.
  std::vector<std::set<index_t>> needed(layers);
  needed[layers - 1].insert(rows.begin(), rows.end());
  std::size_t max_deg = 0;
  for (std::size_t l = layers - 1; l > 0; --l) {
    for (const index_t i : needed[l]) {
      for (const auto& e : graph.row(i)) needed[l - 1].insert(e.col);
    }
  }
  for (index_t i = 0; i < graph.rows(); ++i) max_deg = std::max(max_deg, graph.row(i).size());

  // Transformed input of the current layer (H_l * W_l) and its magnitude,
  // keyed by row; layer 0's comes from the cached full transform.
  const Dense& t0 = first_transform(features);
  std::unordered_map<index_t, std::pair<std::vector<double>, std::vector<double>>> t;
  auto t_row = [&](std::size_t l, index_t j) -> std::pair<const double*, const double*> {
    if (l == 0) {
      const std::size_t off = static_cast<std::size_t>(j) * t0.cols;
      return {t0.v.data() + off, t0.mag.data() + off};
    }
    const auto& p = t.at(j);
    return {p.first.data(), p.second.data()};
  };

  double eps = 0.0;
  std::unordered_map<index_t, std::pair<std::vector<double>, std::vector<double>>> z;
  for (std::size_t l = 0; l < layers; ++l) {
    const DenseMatrix& bias = spec_.bias[l];
    const auto width = static_cast<std::size_t>(spec_.weights[l].cols());
    const std::size_t in = static_cast<std::size_t>(spec_.weights[l].rows());
    eps = (1.0 + eps) * (1.0 + rounding_bound(in + max_deg + 2)) - 1.0;
    z.clear();
    for (const index_t i : needed[l]) {
      std::vector<double> v(width, 0.0), m(width, 0.0);
      for (const auto& e : graph.row(i)) {
        const auto [tv, tm] = t_row(l, e.col);
        for (std::size_t j = 0; j < width; ++j) {
          v[j] += static_cast<double>(e.val) * tv[j];
          m[j] += std::abs(static_cast<double>(e.val)) * tm[j];
        }
      }
      for (std::size_t j = 0; j < width; ++j) {
        const double bj = bias.at(0, static_cast<index_t>(j));
        v[j] += bj;
        m[j] += std::abs(bj);
      }
      z.emplace(i, std::make_pair(std::move(v), std::move(m)));
    }
    if (l + 1 == layers) break;
    // ReLU, then the next layer's transform.
    const DenseMatrix& w = spec_.weights[l + 1];
    const auto next = static_cast<std::size_t>(w.cols());
    decltype(t) next_t;
    for (auto& [i, vm] : z) {
      std::vector<double> v(next, 0.0), m(next, 0.0);
      for (std::size_t k = 0; k < width; ++k) {
        const double h = std::max(vm.first[k], 0.0);
        for (std::size_t j = 0; j < next; ++j) {
          const double wk = w.at(static_cast<index_t>(k), static_cast<index_t>(j));
          v[j] += h * wk;
          m[j] += vm.second[k] * std::abs(wk);
        }
      }
      next_t.emplace(i, std::make_pair(std::move(v), std::move(m)));
    }
    t = std::move(next_t);
  }

  std::size_t bad = 0;
  for (const index_t i : rows) {
    const auto& [v, m] = z.at(i);
    for (std::size_t j = 0; j < out_cols; ++j) {
      const double d = std::abs(static_cast<double>(out.at(i, static_cast<index_t>(j))) - v[j]);
      if (!(d <= eps * m[j])) ++bad;
    }
  }
  return bad;
}

}  // namespace perfbench
