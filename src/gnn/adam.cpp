#include "gnn/adam.hpp"

#include <cmath>

namespace tmm {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

Adam::Adam(std::vector<Param*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto w = params_[i]->value.data();
    auto g = params_[i]->grad.data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t k = 0; k < w.size(); ++k) {
      const float grad = g[k];
      m[k] = kBeta1 * m[k] + (1.0f - kBeta1) * grad;
      v[k] = kBeta2 * v[k] + (1.0f - kBeta2) * grad * grad;
      const float mh = m[k] / bc1;
      const float vh = v[k] / bc2;
      w[k] -= lr_ * mh / (std::sqrt(vh) + kEps);
    }
  }
  zero_grad();
}

void Adam::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

}  // namespace tmm
