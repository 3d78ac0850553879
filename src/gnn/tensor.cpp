#include "gnn/tensor.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "gnn/gemm.hpp"

namespace tmm {

namespace gemm {
namespace {

typedef float V4 __attribute__((vector_size(16)));
typedef float V8 __attribute__((vector_size(32)));

// One row of an output tile: four V vectors, kept in registers. Every
// member is always_inline and takes vectors by reference, so no
// function passes or returns a V: the 8-lane instantiation never
// crosses an ABI boundary outside its AVX2 caller.
template <class V>
struct Quad {
  static constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  V x0{}, x1{}, x2{}, x3{};

  [[gnu::always_inline]] void load(const float* src) {
    std::memcpy(&x0, src, sizeof(V));
    std::memcpy(&x1, src + kLanes, sizeof(V));
    std::memcpy(&x2, src + 2 * kLanes, sizeof(V));
    std::memcpy(&x3, src + 3 * kLanes, sizeof(V));
  }
  [[gnu::always_inline]] void store(float* dst) const {
    std::memcpy(dst, &x0, sizeof(V));
    std::memcpy(dst + kLanes, &x1, sizeof(V));
    std::memcpy(dst + 2 * kLanes, &x2, sizeof(V));
    std::memcpy(dst + 3 * kLanes, &x3, sizeof(V));
  }
  /// this += av * b lane by lane: a multiply, then an add.
  [[gnu::always_inline]] void add_product(float av, const Quad& b) {
    x0 += av * b.x0;
    x1 += av * b.x1;
    x2 += av * b.x2;
    x3 += av * b.x3;
  }
};

// Rows [i, i + kRows) of the output, kRows 1 or 2. Each tile of
// 4 * kLanes columns accumulates in registers over the whole p loop
// and is stored once; columns past the last whole tile take a scalar
// loop in the same order.
template <class V, bool kSkipZero, std::size_t kRows>
[[gnu::always_inline]] inline void band(const Args& g, std::size_t i) {
  constexpr std::size_t kTile = 4 * Quad<V>::kLanes;
  const auto a = [&](std::size_t r, std::size_t p) {
    return g.a[(i + r) * g.a_row + p * g.a_col];
  };
  std::size_t j = 0;
  for (; j + kTile <= g.n; j += kTile) {
    Quad<V> c0;
    Quad<V> c1;
    for (std::size_t p = 0; p < g.k; ++p) {
      Quad<V> b;
      b.load(g.b + p * g.n + j);
      const float a0 = a(0, p);
      if (!kSkipZero || a0 != 0.0f) c0.add_product(a0, b);
      if constexpr (kRows == 2) {
        const float a1 = a(1, p);
        if (!kSkipZero || a1 != 0.0f) c1.add_product(a1, b);
      }
    }
    c0.store(g.out + i * g.n + j);
    if constexpr (kRows == 2) c1.store(g.out + (i + 1) * g.n + j);
  }
  for (; j < g.n; ++j) {
    float s0 = 0.0f;
    float s1 = 0.0f;
    for (std::size_t p = 0; p < g.k; ++p) {
      const float bv = g.b[p * g.n + j];
      const float a0 = a(0, p);
      if (!kSkipZero || a0 != 0.0f) s0 += a0 * bv;
      if constexpr (kRows == 2) {
        const float a1 = a(1, p);
        if (!kSkipZero || a1 != 0.0f) s1 += a1 * bv;
      }
    }
    g.out[i * g.n + j] = s0;
    if constexpr (kRows == 2) g.out[(i + 1) * g.n + j] = s1;
  }
}

// Two output rows per band share each loaded B vector; an odd last
// row runs alone.
template <class V, bool kSkipZero>
[[gnu::always_inline]] inline void body(const Args& g) {
  std::size_t i = 0;
  for (; i + 2 <= g.m; i += 2) band<V, kSkipZero, 2>(g, i);
  if (i < g.m) band<V, kSkipZero, 1>(g, i);
}

// Whether b[0, count) holds no inf or NaN: a test of the exponent bits,
// V lanes at a time.
template <class V>
[[gnu::always_inline]] inline bool all_finite(const float* b,
                                              std::size_t count) {
  using Bits = decltype(V{} == V{});
  constexpr std::size_t kLanes = Quad<V>::kLanes;
  constexpr std::int32_t kExp = 0x7f800000;
  Bits bad{};
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    Bits x;
    std::memcpy(&x, b + i, sizeof x);
    bad |= (x & kExp) == kExp;
  }
  bool any = false;
  for (std::size_t l = 0; l < kLanes; ++l) any |= bad[l] != 0;
  for (; i < count; ++i) any |= !std::isfinite(b[i]);
  return !any;
}

// A skipped zero term only matters when B holds an inf or NaN: for a
// finite B(p, j), A(i, p) = +-0 adds +-0, and a sum that starts at +0
// is never -0, so s + +-0 is s. With a finite B (every training pass)
// the zero skip is dropped, which leaves the bits and takes the
// data-dependent branch out of the inner loop.
template <class V>
[[gnu::always_inline]] inline void run(const Args& g) {
  if (g.skip_zero && !all_finite<V>(g.b, g.k * g.n))
    body<V, true>(g);
  else
    body<V, false>(g);
}

}  // namespace

Args for_matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  return {.a = a.data().data(), .a_row = a.cols(), .a_col = 1,
          .b = b.data().data(), .out = out.data().data(), .m = a.rows(),
          .k = a.cols(), .n = b.cols(), .skip_zero = true};
}

Args for_matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  return {.a = a.data().data(), .a_row = 1, .a_col = a.cols(),
          .b = b.data().data(), .out = out.data().data(), .m = a.cols(),
          .k = a.rows(), .n = b.cols(), .skip_zero = true};
}

Args for_matmul_a_bt(const Matrix& a, const Matrix& bt, Matrix& out) {
  return {.a = a.data().data(), .a_row = a.cols(), .a_col = 1,
          .b = bt.data().data(), .out = out.data().data(), .m = a.rows(),
          .k = a.cols(), .n = bt.cols(), .skip_zero = false};
}

void run_baseline(const Args& g) { run<V4>(g); }

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void run_avx2(const Args& g) { run<V8>(g); }

bool has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#else
void run_avx2(const Args& g) { run_baseline(g); }

bool has_avx2() { return false; }
#endif

}  // namespace gemm

Matrix Matrix::glorot(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (float& v : m.data_) v = static_cast<float>(rng.uniform(-limit, limit));
  return m;
}

namespace {

// The GEMM body picked once per process: the AVX2 instantiation where
// the CPU has it, else the baseline one. Both give the same bits.
void run_gemm(const gemm::Args& g) {
  static const auto body =
      gemm::has_avx2() ? &gemm::run_avx2 : &gemm::run_baseline;
  body(g);
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  assert(out.rows() == a.rows() && out.cols() == b.cols());
  run_gemm(gemm::for_matmul(a, b, out));
}

void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  assert(out.rows() == a.cols() && out.cols() == b.cols());
  run_gemm(gemm::for_matmul_at_b(a, b, out));
}

void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& bt, Matrix& out) {
  assert(a.cols() == b.cols());
  assert(bt.rows() == b.cols() && bt.cols() == b.rows());
  assert(out.rows() == a.rows() && out.cols() == b.rows());
  for (std::size_t j = 0; j < b.rows(); ++j)
    for (std::size_t p = 0; p < b.cols(); ++p) bt(p, j) = b(j, p);
  run_gemm(gemm::for_matmul_a_bt(a, bt, out));
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

void relu_forward(Matrix& x) {
  // Stores every entry, so the loop vectorizes as a compare and blend.
  for (float& v : x.data()) v = v > 0.0f ? v : 0.0f;
}

void relu_backward(Matrix& grad, const Matrix& h) {
  assert(grad.size() == h.size());
  auto gd = grad.data();
  auto hd = h.data();
  for (std::size_t i = 0; i < gd.size(); ++i)
    gd[i] *= hd[i] > 0.0f ? 1.0f : 0.0f;
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
