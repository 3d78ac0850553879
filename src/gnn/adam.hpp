#pragma once
// Adam optimizer over a flat list of parameters (moment decays 0.9 and
// 0.999, epsilon 1e-8, no weight decay).

#include <vector>

#include "gnn/layers.hpp"

namespace tmm {

class Adam {
 public:
  Adam(std::vector<Param*> params, float lr);

  /// Apply one update from the accumulated gradients, then zero them.
  void step();
  void zero_grad();
  std::size_t steps() const noexcept { return t_; }

 private:
  std::vector<Param*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  float lr_;
  std::size_t t_ = 0;
};

}  // namespace tmm
