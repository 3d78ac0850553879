#include "gnn/tensor.hpp"

#include <cassert>
#include <cmath>

namespace tmm {

Matrix Matrix::glorot(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (float& v : m.data_) v = static_cast<float>(rng.uniform(-limit, limit));
  return m;
}

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  out = Matrix(a.rows(), b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a(i, p);
      if (av == 0.0f) continue;
      const auto brow = b.row(p);
      auto orow = out.row(i);
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  out = Matrix(a.cols(), b.cols());
  for (std::size_t p = 0; p < a.rows(); ++p) {
    const auto arow = a.row(p);
    const auto brow = b.row(p);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      auto orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  out = Matrix(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const auto brow = b.row(j);
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += arow[p] * brow[p];
      out(i, j) = acc;
    }
  }
}

void add_inplace(Matrix& y, const Matrix& x) {
  assert(y.size() == x.size());
  auto yd = y.data();
  auto xd = x.data();
  for (std::size_t i = 0; i < yd.size(); ++i) yd[i] += xd[i];
}

void add_bias(Matrix& y, std::span<const float> bias) {
  assert(y.cols() == bias.size());
  for (std::size_t r = 0; r < y.rows(); ++r) {
    auto row = y.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += bias[c];
  }
}

void add_column_sums(Matrix& grad_row, const Matrix& dz) {
  assert(grad_row.rows() == 1 && grad_row.cols() == dz.cols());
  auto brow = grad_row.row(0);
  for (std::size_t r = 0; r < dz.rows(); ++r) {
    const auto row = dz.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) brow[c] += row[c];
  }
}

void relu_forward(Matrix& x, Matrix& mask) {
  mask = Matrix(x.rows(), x.cols());
  auto xd = x.data();
  auto md = mask.data();
  for (std::size_t i = 0; i < xd.size(); ++i) {
    if (xd[i] > 0.0f) {
      md[i] = 1.0f;
    } else {
      xd[i] = 0.0f;
    }
  }
}

void relu_backward(Matrix& grad, const Matrix& mask) {
  auto gd = grad.data();
  auto md = mask.data();
  for (std::size_t i = 0; i < gd.size(); ++i) gd[i] *= md[i];
}

float sigmoidf(float x) {
  if (x >= 0.0f) {
    const float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

}  // namespace tmm
