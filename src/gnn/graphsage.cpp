#include "gnn/graphsage.hpp"

#include <limits>
#include <string>

#include "fault/fault.hpp"

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

GnnWorkspace GnnModel::workspace(std::size_t num_nodes, bool backward) const {
  GnnWorkspace ws;
  for (const SageLayer& layer : sage_)
    ws.sage.push_back(layer.buffers(num_nodes, backward));
  ws.head = head_->buffers(num_nodes, backward);
  if (!sage_.empty()) ws.scratch = Matrix(num_nodes, cfg_.hidden_dim);
  return ws;
}

std::string GnnModel::input_mismatch(const GnnGraph& g,
                                     const Matrix& x) const {
  if (x.rows() == g.num_nodes && x.cols() == cfg_.input_dim) return "";
  return "features are " + std::to_string(x.rows()) + "x" +
         std::to_string(x.cols()) + ", the model needs " +
         std::to_string(g.num_nodes) + "x" + std::to_string(cfg_.input_dim) +
         " (one row of " + std::to_string(cfg_.input_dim) +
         " features per node)";
}

void GnnModel::forward(const GnnGraph& g, const Matrix& x,
                       GnnWorkspace& ws) const {
  const Matrix* h = &x;
  for (std::size_t l = 0; l < sage_.size(); ++l) {
    sage_[l].forward(g, *h, ws.sage[l], ws.scratch);
    h = &ws.sage[l].h;
  }
  head_->forward(*h, ws.head);
}

void GnnModel::backward(const GnnGraph& g, const Matrix& x,
                        GnnWorkspace& ws) const {
  // Layer l reads layer l - 1's output and writes dL/d(that output)
  // into its dz; layer 0's input gradient has no reader.
  const auto input = [&](std::size_t l) -> const Matrix& {
    return l == 0 ? x : ws.sage[l - 1].h;
  };
  const auto input_grad = [&](std::size_t l) {
    return l == 0 ? nullptr : &ws.sage[l - 1].dz;
  };
  const std::size_t layers = sage_.size();
  head_->backward(input(layers), ws.head, input_grad(layers));
  for (std::size_t l = layers; l-- > 0;)
    sage_[l].backward(g, input(l), ws.sage[l], input_grad(l), ws.scratch);
}

void GnnModel::accumulate(const GnnWorkspace& ws) {
  for (std::size_t l = 0; l < sage_.size(); ++l)
    sage_[l].accumulate(ws.sage[l]);
  head_->accumulate(ws.head);
}

std::vector<Param*> GnnModel::params() {
  std::vector<Param*> out;
  for (auto& l : sage_)
    for (Param* p : l.params()) out.push_back(p);
  for (Param* p : head_->params()) out.push_back(p);
  return out;
}

std::vector<float> GnnModel::predict(const GnnGraph& g,
                                     const Matrix& x) const {
  if (std::string err = input_mismatch(g, x); !err.empty())
    throw fault::FlowError(fault::ErrorCode::kConfig, "gnn.infer",
                           std::move(err));
  GnnWorkspace ws = workspace(g.num_nodes, false);
  return predict(g, x, ws);
}

std::vector<float> GnnModel::predict(const GnnGraph& g, const Matrix& x,
                                     GnnWorkspace& ws) const {
  forward(g, x, ws);
  std::vector<float> probs(ws.head.z.rows());
  for (std::size_t i = 0; i < probs.size(); ++i)
    probs[i] = sigmoidf(ws.head.z(i, 0));
  return probs;
}

}  // namespace tmm
