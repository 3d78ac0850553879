#pragma once
// The pin-classification GNN (Section 5.1): a stack of mean-aggregator
// GraphSAGE message-passing layers followed by a dense head producing
// one logit per pin; sigmoid(logit) is the predicted probability that
// the pin is timing-variant.

#include <iosfwd>
#include <optional>
#include <string>

#include "gnn/layers.hpp"

namespace tmm {

struct GnnModelConfig {
  std::size_t input_dim = 8;   ///< 8 basic features, 9 with is_CPPR
  std::size_t hidden_dim = 32;
  std::size_t num_layers = 2;  ///< message-passing layers
  std::uint64_t seed = 99;
};

class GnnModel {
 public:
  explicit GnnModel(GnnModelConfig cfg);

  const GnnModelConfig& config() const noexcept { return cfg_; }

  /// Forward pass producing one logit per node (n x 1).
  Matrix forward(const GnnGraph& g, const Matrix& x);
  /// Backprop from dL/dlogits; accumulates parameter gradients.
  void backward(const GnnGraph& g, const Matrix& dlogits);

  std::vector<Param*> params();

  /// Per-node probabilities sigmoid(logit).
  std::vector<float> predict(const GnnGraph& g, const Matrix& x);

  /// Text form, weights at 9 significant digits. Formats into its own
  /// buffer: the caller's stream precision and flags are left alone.
  void save(std::ostream& os) const;
  /// Malformed or non-finite weight files raise fault::FlowError
  /// (kParse) with `source`:line context.
  static GnnModel load(std::istream& is, std::string source = "<gnn>");

 private:
  GnnModelConfig cfg_;
  std::vector<SageLayer> sage_;
  std::optional<DenseLayer> head_;
};

/// Number of weights a model of `cfg` holds (the sum of its params()
/// sizes), saturated at SIZE_MAX. Lets a reader refuse a header before
/// the model is built.
std::size_t param_count(const GnnModelConfig& cfg);

/// GnnModel::load from a file, with the path as error context.
GnnModel load_gnn_file(const std::string& path);

/// Atomic save to `path` (util::atomic_write_file): interrupted runs
/// never leave torn weight files.
void save_gnn_file(const GnnModel& model, const std::string& path);

}  // namespace tmm
