#include "gnn/layers.hpp"

#include <cassert>

#include "sta/timing_graph.hpp"

namespace tmm {

GnnGraph GnnGraph::from_timing_graph(const TimingGraph& g) {
  GnnGraph out;
  out.num_nodes = g.num_nodes();
  std::vector<std::uint32_t> deg(out.num_nodes, 0);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const auto& arc = g.arc(a);
    if (arc.dead) continue;
    ++deg[arc.from];
    ++deg[arc.to];
  }
  out.offsets.assign(out.num_nodes + 1, 0);
  for (std::size_t v = 0; v < out.num_nodes; ++v)
    out.offsets[v + 1] = out.offsets[v] + deg[v];
  out.neighbors.resize(out.offsets.back());
  std::vector<std::uint32_t> cursor(out.offsets.begin(),
                                    out.offsets.end() - 1);
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const auto& arc = g.arc(a);
    if (arc.dead) continue;
    out.neighbors[cursor[arc.from]++] = arc.to;
    out.neighbors[cursor[arc.to]++] = arc.from;
  }
  return out;
}

void mean_aggregate(const GnnGraph& g, const Matrix& x, Matrix& out) {
  assert(out.rows() == x.rows() && out.cols() == x.cols());
  out.fill(0.0f);
  for (std::size_t v = 0; v < g.num_nodes; ++v) {
    const std::size_t d = g.degree(v);
    if (d == 0) continue;
    auto orow = out.row(v);
    for (std::size_t k = g.offsets[v]; k < g.offsets[v + 1]; ++k) {
      const auto urow = x.row(g.neighbors[k]);
      for (std::size_t c = 0; c < urow.size(); ++c) orow[c] += urow[c];
    }
    const float inv = 1.0f / static_cast<float>(d);
    for (float& v2 : orow) v2 *= inv;
  }
}

void mean_aggregate_backward(const GnnGraph& g, const Matrix& dout,
                             Matrix& dx) {
  assert(dx.rows() == dout.rows() && dx.cols() == dout.cols());
  for (std::size_t v = 0; v < g.num_nodes; ++v) {
    const std::size_t d = g.degree(v);
    if (d == 0) continue;
    const float inv = 1.0f / static_cast<float>(d);
    const auto drow = dout.row(v);
    for (std::size_t k = g.offsets[v]; k < g.offsets[v + 1]; ++k) {
      auto urow = dx.row(g.neighbors[k]);
      for (std::size_t c = 0; c < urow.size(); ++c) urow[c] += inv * drow[c];
    }
  }
}

// ------------------------------------------------------------- SageLayer

SageLayer::SageLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng) {
  w_self_.init_glorot(in_dim, out_dim, rng);
  w_neigh_.init_glorot(in_dim, out_dim, rng);
  bias_.init_zero(1, out_dim);
}

SageBuffers SageLayer::buffers(std::size_t num_nodes, bool backward) const {
  const std::size_t in = w_self_.value.rows();
  const std::size_t out = w_self_.value.cols();
  SageBuffers b;
  b.hn = Matrix(num_nodes, in);
  b.h = Matrix(num_nodes, out);
  if (backward) {
    b.dz = Matrix(num_nodes, out);
    b.g_self = Matrix(in, out);
    b.g_neigh = Matrix(in, out);
    b.wt = Matrix(out, in);
  }
  return b;
}

void SageLayer::forward(const GnnGraph& g, const Matrix& x, SageBuffers& b,
                        Matrix& zn) const {
  if (!b.hn_fixed) mean_aggregate(g, x, b.hn);
  matmul(x, w_self_.value, b.h);
  matmul(b.hn, w_neigh_.value, zn);
  add_inplace(b.h, zn);
  add_bias(b.h, bias_.value.data());
  relu_forward(b.h);
}

void SageLayer::backward(const GnnGraph& g, const Matrix& x, SageBuffers& b,
                         Matrix* dx, Matrix& dhn) const {
  relu_backward(b.dz, b.h);
  matmul_at_b(x, b.dz, b.g_self);
  matmul_at_b(b.hn, b.dz, b.g_neigh);
  if (dx == nullptr) return;
  matmul_a_bt(b.dz, w_self_.value, b.wt, *dx);
  matmul_a_bt(b.dz, w_neigh_.value, b.wt, dhn);
  mean_aggregate_backward(g, dhn, *dx);
}

void SageLayer::accumulate(const SageBuffers& b) {
  add_inplace(w_self_.grad, b.g_self);
  add_inplace(w_neigh_.grad, b.g_neigh);
  add_column_sums(bias_.grad, b.dz);
}

// ------------------------------------------------------------ DenseLayer

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng) {
  w_.init_glorot(in_dim, out_dim, rng);
  bias_.init_zero(1, out_dim);
}

DenseBuffers DenseLayer::buffers(std::size_t num_nodes, bool backward) const {
  const std::size_t in = w_.value.rows();
  const std::size_t out = w_.value.cols();
  DenseBuffers b;
  b.z = Matrix(num_nodes, out);
  if (backward) {
    b.dz = Matrix(num_nodes, out);
    b.g_w = Matrix(in, out);
    b.wt = Matrix(out, in);
  }
  return b;
}

void DenseLayer::forward(const Matrix& x, DenseBuffers& b) const {
  matmul(x, w_.value, b.z);
  add_bias(b.z, bias_.value.data());
}

void DenseLayer::backward(const Matrix& x, DenseBuffers& b, Matrix* dx) const {
  matmul_at_b(x, b.dz, b.g_w);
  if (dx != nullptr) matmul_a_bt(b.dz, w_.value, b.wt, *dx);
}

void DenseLayer::accumulate(const DenseBuffers& b) {
  add_inplace(w_.grad, b.g_w);
  add_column_sums(bias_.grad, b.dz);
}

}  // namespace tmm
