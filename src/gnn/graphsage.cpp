#include "gnn/graphsage.hpp"

#include <limits>

namespace tmm {

std::size_t param_count(const GnnModelConfig& cfg) {
  constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();
  std::size_t total = 0;
  // `blocks` weight matrices of rows x cols plus a 1 x cols bias.
  const auto add = [&](std::size_t rows, std::size_t cols, std::size_t blocks) {
    std::size_t n = 0;
    if (__builtin_mul_overflow(rows, cols, &n) ||
        __builtin_mul_overflow(n, blocks, &n) ||
        __builtin_add_overflow(n, cols, &n) ||
        __builtin_add_overflow(total, n, &total))
      total = kSaturated;
  };
  std::size_t in = cfg.input_dim;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    add(in, cfg.hidden_dim, 2);  // w_self, w_neigh
    in = cfg.hidden_dim;
  }
  add(in, 1, 1);  // head
  return total;
}

GnnModel::GnnModel(GnnModelConfig cfg) : cfg_(cfg) {
  Rng rng(cfg.seed);
  std::size_t in = cfg.input_dim;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    sage_.emplace_back(in, cfg.hidden_dim, rng);
    in = cfg.hidden_dim;
  }
  head_.emplace(in, 1, rng);
}

Matrix GnnModel::forward(const GnnGraph& g, const Matrix& x) {
  Matrix h = x;
  for (auto& layer : sage_) h = layer.forward(g, h);
  return head_->forward(h);
}

void GnnModel::backward(const GnnGraph& g, const Matrix& dlogits) {
  Matrix grad = head_->backward(dlogits);
  for (auto it = sage_.rbegin(); it != sage_.rend(); ++it)
    grad = it->backward(g, grad);
}

std::vector<Param*> GnnModel::params() {
  std::vector<Param*> out;
  for (auto& l : sage_)
    for (Param* p : l.params()) out.push_back(p);
  for (Param* p : head_->params()) out.push_back(p);
  return out;
}

std::vector<float> GnnModel::predict(const GnnGraph& g, const Matrix& x) {
  Matrix logits = forward(g, x);
  std::vector<float> probs(logits.rows());
  for (std::size_t i = 0; i < probs.size(); ++i)
    probs[i] = sigmoidf(logits(i, 0));
  return probs;
}

}  // namespace tmm
