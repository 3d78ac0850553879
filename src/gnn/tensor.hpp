#pragma once
// Minimal dense row-major float matrix for the GNN engine. The paper
// trained with PyTorch; reimplementing the handful of kernels GraphSAGE
// needs (matmul, bias, activations, scatter-mean) keeps the whole
// framework a single dependency-free C++ library.

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace tmm {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }

  float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  std::span<float> row(std::size_t r) { return {&data_[r * cols_], cols_}; }
  std::span<const float> row(std::size_t r) const {
    return {&data_[r * cols_], cols_};
  }
  std::span<float> data() noexcept { return data_; }
  std::span<const float> data() const noexcept { return data_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Glorot/Xavier-uniform initialization.
  static Matrix glorot(std::size_t rows, std::size_t cols, Rng& rng);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// Every kernel writes into an output the caller has already sized (a
// pass reuses its buffers, so kernels never allocate); an output a
// kernel overwrites starts at 0.0f and accumulates in ascending `p`.

/// out = a * b   (a: m x k, b: k x n, out: m x n). Skips zero `a`
/// entries.
void matmul(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a^T * b (a: k x m, b: k x n, out: m x n). Skips zero `a`
/// entries.
void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out);
/// out = a * b^T (a: m x k, b: n x k, out: m x n). `bt` (k x n)
/// receives b^T so each output row accumulates lane by lane; every
/// element adds a(i, p) * b(j, p) in ascending p, no zero skip.
void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& bt, Matrix& out);

/// y += x (same shape).
void add_inplace(Matrix& y, const Matrix& x);
/// Add a row vector (bias) to every row.
void add_bias(Matrix& y, std::span<const float> bias);
/// grad_row (1 x n) += column sums of dz (m x n), rows in ascending
/// order: the bias gradient of a layer with output gradient dz.
void add_column_sums(Matrix& grad_row, const Matrix& dz);

/// Elementwise ReLU in place: every entry not > 0 (NaN included)
/// becomes +0.
void relu_forward(Matrix& x);
/// grad *= (h > 0 ? 1 : 0), with h the ReLU output: the sign of a zero
/// gradient and NaN payloads pass through as a multiply leaves them.
void relu_backward(Matrix& grad, const Matrix& h);

/// Numerically stable logistic sigmoid.
float sigmoidf(float x);

}  // namespace tmm
