#pragma once
// GNN building blocks with manual backpropagation: the mean-aggregator
// GraphSAGE layer of Eq. 3-4 and a dense output head.

#include <cstdint>
#include <vector>

#include "gnn/tensor.hpp"

namespace tmm {

class TimingGraph;

/// Undirected neighbor structure in CSR form.
struct GnnGraph {
  std::size_t num_nodes = 0;
  std::vector<std::uint32_t> offsets;    ///< size num_nodes + 1
  std::vector<std::uint32_t> neighbors;  ///< concatenated adjacency

  std::size_t degree(std::size_t v) const {
    return offsets[v + 1] - offsets[v];
  }

  /// Build from a timing graph: delay arcs, both directions (timing
  /// influence flows forward with values and backward with required
  /// times, mirroring Fig. 3's propagation analogy). Dead nodes keep an
  /// empty neighborhood.
  static GnnGraph from_timing_graph(const TimingGraph& g);
};

/// Mean aggregation: out[v] = mean_{u in N(v)} x[u] (zero if isolated).
void mean_aggregate(const GnnGraph& g, const Matrix& x, Matrix& out);
/// Backward of mean aggregation: dx[u] += sum_{v: u in N(v)} dout[v]/deg(v).
void mean_aggregate_backward(const GnnGraph& g, const Matrix& dout,
                             Matrix& dx);

/// A trainable parameter with its gradient accumulator.
struct Param {
  Matrix value;
  Matrix grad;

  void init_glorot(std::size_t rows, std::size_t cols, Rng& rng) {
    value = Matrix::glorot(rows, cols, rng);
    grad = Matrix(rows, cols);
  }
  void init_zero(std::size_t rows, std::size_t cols) {
    value = Matrix(rows, cols);
    grad = Matrix(rows, cols);
  }
  void zero_grad() { grad.fill(0.0f); }
};

/// GraphSAGE layer (mean aggregator):
///   h_v = relu(W_self * x_v + W_neigh * mean(x_u) + b)   (Eq. 3-4 with
/// CONCAT expressed as two weight blocks).
class SageLayer {
 public:
  SageLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  Matrix forward(const GnnGraph& g, const Matrix& x);
  /// Returns gradient w.r.t. the layer input; accumulates param grads.
  Matrix backward(const GnnGraph& g, const Matrix& dout);

  std::vector<Param*> params() { return {&w_self_, &w_neigh_, &bias_}; }

 private:
  Param w_self_;   // in x out
  Param w_neigh_;  // in x out
  Param bias_;     // 1 x out
  // forward caches
  Matrix x_cache_;
  Matrix hn_cache_;
  Matrix relu_mask_;
};

/// Dense head: logits = x * W + b.
class DenseLayer {
 public:
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  Matrix forward(const Matrix& x);
  Matrix backward(const Matrix& dout);

  std::vector<Param*> params() { return {&w_, &bias_}; }

 private:
  Param w_;
  Param bias_;
  Matrix x_cache_;
};

}  // namespace tmm
