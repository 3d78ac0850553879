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

/// Buffers of one forward/backward pass over one graph, sized once by
/// GnnModel::workspace and reused for every pass over that graph: a
/// pass allocates nothing.
struct GnnWorkspace {
  std::vector<SageBuffers> sage;  ///< one per message-passing layer
  DenseBuffers head;  ///< head.z: the logits; head.dz: dL/dlogits
  Matrix scratch;     ///< n x hidden
};

class GnnModel {
 public:
  explicit GnnModel(GnnModelConfig cfg);

  const GnnModelConfig& config() const noexcept { return cfg_; }

  /// Buffers for passes over a graph of `num_nodes` nodes; `backward`
  /// adds the gradient buffers training needs.
  GnnWorkspace workspace(std::size_t num_nodes, bool backward) const;
  /// Computes layer 1's neighbor mean of `x` into `ws` once; forward
  /// passes over `ws` then reuse it, so `ws` may only ever see this `x`.
  void fix_input(const GnnGraph& g, const Matrix& x, GnnWorkspace& ws) const;
  /// Empty when `x` holds one row of config().input_dim features per
  /// node of `g`; otherwise what does not fit.
  std::string input_mismatch(const GnnGraph& g, const Matrix& x) const;

  /// Forward pass: ws.head.z receives one logit per node.
  void forward(const GnnGraph& g, const Matrix& x, GnnWorkspace& ws) const;
  /// Backprop from ws.head.dz after forward() on the same inputs. Fills
  /// the workspace's gradients and leaves the parameters alone, so
  /// passes over different samples may run concurrently.
  void backward(const GnnGraph& g, const Matrix& x, GnnWorkspace& ws) const;
  /// Adds a pass's gradients to the parameter accumulators, bias rows
  /// in ascending order: one call per sample in sample order adds what
  /// a serial forward/backward loop over the samples adds, bit for bit.
  void accumulate(const GnnWorkspace& ws);

  std::vector<Param*> params();

  /// Per-node probabilities sigmoid(logit). Throws
  /// fault::FlowError(kConfig) on an input_mismatch.
  std::vector<float> predict(const GnnGraph& g, const Matrix& x) const;
  /// The same forward into `ws`, a workspace for g.num_nodes nodes.
  std::vector<float> predict(const GnnGraph& g, const Matrix& x,
                             GnnWorkspace& ws) const;

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
