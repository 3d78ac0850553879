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

/// One SageLayer's buffers in a pass over a graph of n nodes
/// (GnnWorkspace). The gradient buffers are empty in inference passes.
struct SageBuffers {
  Matrix hn;       ///< mean of the layer input over neighbors (n x in)
  Matrix h;        ///< ReLU output (n x out)
  Matrix dz;       ///< dL/d pre-activation (n x out): the bias gradient rows
  Matrix g_self;   ///< this pass's W_self gradient (in x out)
  Matrix g_neigh;  ///< this pass's W_neigh gradient (in x out)
  Matrix wt;       ///< scratch for a transposed weight (out x in)
};

/// GraphSAGE layer (mean aggregator):
///   h_v = relu(W_self * x_v + W_neigh * mean(x_u) + b)   (Eq. 3-4 with
/// CONCAT expressed as two weight blocks).
/// Passes are const and write only their buffers, so passes over
/// different samples may run concurrently.
class SageLayer {
 public:
  SageLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  SageBuffers buffers(std::size_t num_nodes, bool backward) const;

  /// Fills b.hn and b.h; `zn` (n x out) is scratch.
  void forward(const GnnGraph& g, const Matrix& x, SageBuffers& b,
               Matrix& zn) const;
  /// On entry b.dz holds dL/dh, on return dL/d pre-activation; fills
  /// b.g_self and b.g_neigh. When `dx` is non-null it receives dL/dx,
  /// with `dhn` (n x in) as scratch.
  void backward(const GnnGraph& g, const Matrix& x, SageBuffers& b,
                Matrix* dx, Matrix& dhn) const;
  /// Adds a pass's gradients to the parameter accumulators.
  void accumulate(const SageBuffers& b);

  std::vector<Param*> params() { return {&w_self_, &w_neigh_, &bias_}; }

 private:
  Param w_self_;   // in x out
  Param w_neigh_;  // in x out
  Param bias_;     // 1 x out
};

/// The dense head's buffers in a pass over a graph of n nodes.
struct DenseBuffers {
  Matrix z;    ///< output (n x out): the logits
  Matrix dz;   ///< dL/dz (n x out), set by the loss: the bias gradient rows
  Matrix g_w;  ///< this pass's W gradient (in x out)
  Matrix wt;   ///< scratch for the transposed weight (out x in)
};

/// Dense head: logits = x * W + b.
class DenseLayer {
 public:
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  DenseBuffers buffers(std::size_t num_nodes, bool backward) const;

  void forward(const Matrix& x, DenseBuffers& b) const;
  /// Fills b.g_w from b.dz; when `dx` is non-null it receives dL/dx.
  void backward(const Matrix& x, DenseBuffers& b, Matrix* dx) const;
  void accumulate(const DenseBuffers& b);

  std::vector<Param*> params() { return {&w_, &bias_}; }

 private:
  Param w_;
  Param bias_;
};

}  // namespace tmm
