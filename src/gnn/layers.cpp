#include "gnn/layers.hpp"

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
  out = Matrix(x.rows(), x.cols());
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
  if (dx.rows() != dout.rows() || dx.cols() != dout.cols())
    dx = Matrix(dout.rows(), dout.cols());
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

Matrix SageLayer::forward(const GnnGraph& g, const Matrix& x) {
  x_cache_ = x;
  mean_aggregate(g, x, hn_cache_);
  Matrix z;
  matmul(x, w_self_.value, z);
  Matrix zn;
  matmul(hn_cache_, w_neigh_.value, zn);
  add_inplace(z, zn);
  add_bias(z, bias_.value.data());
  relu_forward(z, relu_mask_);
  return z;
}

Matrix SageLayer::backward(const GnnGraph& g, const Matrix& dout) {
  Matrix dz = dout;
  relu_backward(dz, relu_mask_);

  Matrix gw;
  matmul_at_b(x_cache_, dz, gw);
  add_inplace(w_self_.grad, gw);
  matmul_at_b(hn_cache_, dz, gw);
  add_inplace(w_neigh_.grad, gw);
  add_column_sums(bias_.grad, dz);

  Matrix dx;
  matmul_a_bt(dz, w_self_.value, dx);
  Matrix dhn;
  matmul_a_bt(dz, w_neigh_.value, dhn);
  mean_aggregate_backward(g, dhn, dx);
  return dx;
}

// ------------------------------------------------------------ DenseLayer

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng) {
  w_.init_glorot(in_dim, out_dim, rng);
  bias_.init_zero(1, out_dim);
}

Matrix DenseLayer::forward(const Matrix& x) {
  x_cache_ = x;
  Matrix z;
  matmul(x, w_.value, z);
  add_bias(z, bias_.value.data());
  return z;
}

Matrix DenseLayer::backward(const Matrix& dout) {
  Matrix gw;
  matmul_at_b(x_cache_, dout, gw);
  add_inplace(w_.grad, gw);
  add_column_sums(bias_.grad, dout);
  Matrix dx;
  matmul_a_bt(dout, w_.value, dx);
  return dx;
}

}  // namespace tmm
