// GnnModel save/load: a small text format holding the config and every
// parameter matrix in params() order (construction is deterministic, so
// shapes always line up). Malformed or non-finite weight files raise
// fault::FlowError(kParse) with source:line context; file-level helpers
// write atomically so interrupted runs never leave torn weights.

#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "fault/token_reader.hpp"
#include "gnn/graphsage.hpp"
#include "util/atomic_io.hpp"
#include "util/text_out.hpp"

namespace tmm {

namespace {

std::string format_gnn(const GnnModel& model) {
  const GnnModelConfig& cfg = model.config();
  util::TextOut out(9);
  out << "gnn " << cfg.input_dim << ' ' << cfg.hidden_dim << ' '
      << cfg.num_layers << ' ' << static_cast<int>(cfg.engine) << ' '
      << cfg.seed << '\n';
  for (Param* p : const_cast<GnnModel&>(model).params()) {
    out << p->value.rows() << ' ' << p->value.cols() << '\n';
    for (float v : p->value.data()) out << v << ' ';
    out << '\n';
  }
  return std::move(out).take();
}

}  // namespace

void GnnModel::save(std::ostream& os) const { os << format_gnn(*this); }

GnnModel GnnModel::load(std::istream& is, std::string source) {
  fault::inject("gnn.load");
  io::TokenReader tr(is, std::move(source));
  GnnModelConfig cfg;
  tr.expect("gnn");
  constexpr std::size_t kMaxDim = 1'000'000;
  cfg.input_dim = tr.size_at_most("input dim", kMaxDim);
  cfg.hidden_dim = tr.size_at_most("hidden dim", kMaxDim);
  cfg.num_layers = tr.size_at_most("layer count", 1'000);
  cfg.engine = static_cast<GnnEngine>(tr.integer_in(
      "engine kind", 0, static_cast<int>(GnnEngine::kGraphSagePool)));
  cfg.seed = tr.size("seed");
  GnnModel model(cfg);
  for (Param* p : model.params()) {
    const std::size_t rows = tr.size("parameter rows");
    const std::size_t cols = tr.size("parameter cols");
    if (rows != p->value.rows() || cols != p->value.cols())
      tr.fail("parameter shape mismatch: file has " + std::to_string(rows) +
              "x" + std::to_string(cols) + ", model expects " +
              std::to_string(p->value.rows()) + "x" +
              std::to_string(p->value.cols()));
    for (float& v : p->value.data()) v = tr.number_f("parameter value");
  }
  return model;
}

GnnModel load_gnn_file(const std::string& path) {
  std::ifstream is(path);
  if (!is)
    throw fault::FlowError(fault::ErrorCode::kIo, "gnn.load",
                           "cannot open " + path);
  return GnnModel::load(is, path);
}

void save_gnn_file(const GnnModel& model, const std::string& path) {
  fault::inject("gnn.save");
  util::atomic_write_file(path, format_gnn(model)).or_throw("gnn.save");
}

}  // namespace tmm
