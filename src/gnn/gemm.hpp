#pragma once
// Internal to src/gnn: the one GEMM body behind matmul, matmul_at_b and
// matmul_a_bt (tensor.hpp), in both of its instantiations. tensor.cpp
// picks one per process; this header lets a test run both on one host.

#include <cstddef>

#include "gnn/tensor.hpp"

namespace tmm::gemm {

/// out(i, j) = sum over p of A(i, p) * B(p, j) for i < m, j < n, p < k,
/// with A(i, p) = a[i * a_row + p * a_col], B(p, j) = b[p * n + j] and
/// `out` row-major m x n. Every element starts at +0.0f and adds
/// A(i, p) * B(p, j) in ascending p, one IEEE multiply and one add per
/// term (never fused); with `skip_zero` a term whose A(i, p) is +-0 is
/// not added, so a zero entry never meets an inf or NaN in B.
struct Args {
  const float* a = nullptr;
  std::size_t a_row = 0;
  std::size_t a_col = 0;
  const float* b = nullptr;
  float* out = nullptr;
  std::size_t m = 0;
  std::size_t k = 0;
  std::size_t n = 0;
  bool skip_zero = false;
};

/// The arguments of matmul(a, b, out), matmul_at_b(a, b, out) and, once
/// `bt` holds b^T, matmul_a_bt(a, b, bt, out).
Args for_matmul(const Matrix& a, const Matrix& b, Matrix& out);
Args for_matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out);
Args for_matmul_a_bt(const Matrix& a, const Matrix& bt, Matrix& out);

/// 4-lane vectors: SSE2 on x86-64, so it runs on every host.
void run_baseline(const Args& g);
/// 8-lane AVX2 vectors (no FMA). Call only where has_avx2(); on a
/// non-x86 build it is run_baseline.
void run_avx2(const Args& g);
/// Whether this CPU and OS run AVX2 code.
bool has_avx2();

}  // namespace tmm::gemm
