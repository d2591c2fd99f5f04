#include "src/serve/forward.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

#include "src/kernels/kernels.h"
#include "src/obs/trace.h"

namespace rgae {
namespace serve {

namespace {

// Row-restricted counterparts of the training kernels, built on the same
// MatMulRow/SpmmRow stubs the full ops dispatch to (kernels.h). The stub
// contract guarantees a row's bits equal that row of the full op under
// whatever ISA is selected, so a recomputed row carries exactly the bits a
// full-pass row would — the incremental path never drifts from the
// reference forward.

void MatMulRowInto(const Matrix& a, const Matrix& b, int i, Matrix* out) {
  double* out_row = out->row(i);
  std::fill(out_row, out_row + out->cols(), 0.0);
  kernels::MatMulRow(a.row(i), b.data(), out_row, a.cols(), b.cols());
}

void SpmmRowInto(const CsrMatrix& s, const Matrix& x, int r, Matrix* out) {
  double* out_row = out->row(r);
  std::fill(out_row, out_row + out->cols(), 0.0);
  const std::vector<int>& row_ptr = s.row_ptr();
  const std::vector<int>& col_idx = s.col_idx();
  const std::vector<double>& values = s.values();
  kernels::SpmmRow(col_idx.data() + row_ptr[r], values.data() + row_ptr[r],
                   row_ptr[r + 1] - row_ptr[r], x.data(), x.cols(), out_row);
}

void ReluRow(Matrix* m, int r) {
  double* p = m->row(r);
  for (int c = 0; c < m->cols(); ++c) p[c] = std::max(p[c], 0.0);
}

}  // namespace

Matrix ForwardEngine::FullForward(const ModelSnapshot& snapshot) {
  RGAE_SPAN("serve.full_forward");
  Matrix xw0 = MatMul(snapshot.features, snapshot.w0);
  Matrix h = snapshot.filter.Multiply(xw0);
  for (int r = 0; r < h.rows(); ++r) ReluRow(&h, r);
  return snapshot.filter.Multiply(MatMul(h, snapshot.w1));
}

ForwardEngine::ForwardEngine(ModelSnapshot snapshot)
    : snapshot_(std::move(snapshot)), graph_(GraphFromSnapshot(snapshot_)) {
  RGAE_SPAN("serve.engine_build");
  xw0_ = MatMul(snapshot_.features, snapshot_.w0);
  h_ = snapshot_.filter.Multiply(xw0_);
  for (int r = 0; r < h_.rows(); ++r) ReluRow(&h_, r);
  hw1_ = MatMul(h_, snapshot_.w1);
  z_ = snapshot_.filter.Multiply(hw1_);
  z_valid_.assign(static_cast<size_t>(z_.rows()), 1);
}

void ForwardEngine::RecomputeZRows(const std::vector<int>& rows) {
  for (int r : rows) {
    SpmmRowInto(snapshot_.filter, hw1_, r, &z_);
    z_valid_[static_cast<size_t>(r)] = 1;
  }
}

void ForwardEngine::InvalidateZRows(const std::vector<int>& rows) {
  for (int r : rows) z_valid_[static_cast<size_t>(r)] = 0;
}

Matrix ForwardEngine::EmbedRows(const std::vector<int>& nodes) {
  RGAE_SPAN("serve.embed_rows");
  std::vector<int> stale;
  for (int v : nodes) {
    assert(v >= 0 && v < num_nodes());
    if (!z_valid_[static_cast<size_t>(v)]) stale.push_back(v);
  }
  if (!stale.empty()) {
    std::sort(stale.begin(), stale.end());
    stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
    RGAE_COUNT("serve.z_recompute_batches");
    RecomputeZRows(stale);
  }
  return z_.GatherRows(nodes);
}

Matrix ForwardEngine::AssignRows(const std::vector<int>& nodes) {
  return SoftAssignRows(snapshot_, EmbedRows(nodes));
}

const Matrix& ForwardEngine::Z() {
  std::vector<int> stale;
  for (int r = 0; r < num_nodes(); ++r) {
    if (!z_valid_[static_cast<size_t>(r)]) stale.push_back(r);
  }
  RecomputeZRows(stale);
  return z_;
}

std::vector<int> ForwardEngine::UpdateGraph(const AttributedGraph& next) {
  RGAE_SPAN("serve.update_graph");
  assert(next.num_nodes() == graph_.num_nodes());
  assert(next.features().rows() == snapshot_.features.rows() &&
         next.features().cols() == snapshot_.features.cols());
  const int n = graph_.num_nodes();

  std::set<int> feature_dirty;
  const Matrix& new_x = next.features();
  for (int r = 0; r < n; ++r) {
    const double* a = snapshot_.features.row(r);
    const double* b = new_x.row(r);
    if (!std::equal(a, a + snapshot_.features.cols(), b)) {
      feature_dirty.insert(r);
    }
  }

  std::vector<std::pair<int, int>> changed_edges;
  std::set_symmetric_difference(graph_.edges().begin(), graph_.edges().end(),
                                next.edges().begin(), next.edges().end(),
                                std::back_inserter(changed_edges));

  if (feature_dirty.empty() && changed_edges.empty()) {
    last_update_ = UpdateStats();
    return {};
  }
  RGAE_COUNT("serve.graph_updates");

  // A filter entry Ã(r, c) = 1/sqrt(d_r d_c) scales by both endpoint
  // degrees, so a degree change at an endpoint dirties the endpoint's row
  // and every row incident to it — in the old graph (entries that shrink or
  // vanish) and the new one (entries that appear or grow).
  std::set<int> endpoints;
  for (const auto& [u, v] : changed_edges) {
    endpoints.insert(u);
    endpoints.insert(v);
  }
  const CsrMatrix new_filter = next.NormalizedAdjacency();
  std::set<int> filter_dirty;
  for (int e : endpoints) {
    filter_dirty.insert(e);
    for (int c : snapshot_.filter.RowCols(e)) filter_dirty.insert(c);
    for (int c : new_filter.RowCols(e)) filter_dirty.insert(c);
  }

  // Stage 1: row i of X·W0 depends only on feature row i.
  for (int r : feature_dirty) {
    MatMulRowInto(new_x, snapshot_.w0, r, &xw0_);
  }

  // Stage 2: H row r reads filter row r plus the X·W0 rows in its support,
  // so it is dirty when its filter row changed or a supporting X·W0 row did
  // (the filter is symmetric, so the rows reading column c are RowCols(c)).
  std::set<int> h_dirty = filter_dirty;
  for (int c : feature_dirty) {
    for (int r : new_filter.RowCols(c)) h_dirty.insert(r);
  }
  for (int r : h_dirty) {
    SpmmRowInto(new_filter, xw0_, r, &h_);
    ReluRow(&h_, r);
    // Row r of H·W1 depends only on H row r.
    MatMulRowInto(h_, snapshot_.w1, r, &hw1_);
  }

  // Stage 3: Z row r reads filter row r plus the H·W1 rows in its support —
  // the 2-hop closure of the original mutation.
  std::set<int> z_dirty = filter_dirty;
  for (int c : h_dirty) {
    for (int r : new_filter.RowCols(c)) z_dirty.insert(r);
  }

  snapshot_.features = new_x;
  snapshot_.filter = new_filter;
  graph_ = next;

  std::vector<int> invalidated(z_dirty.begin(), z_dirty.end());
  InvalidateZRows(invalidated);
  last_update_.xw0_rows = static_cast<int>(feature_dirty.size());
  last_update_.h_rows = static_cast<int>(h_dirty.size());
  last_update_.z_rows = static_cast<int>(invalidated.size());
  return invalidated;
}

}  // namespace serve
}  // namespace rgae
