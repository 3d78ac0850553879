#include "flow/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/fault.hpp"
#include "fault/token_reader.hpp"
#include "util/atomic_io.hpp"
#include "util/log.hpp"

namespace tmm::flow {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Exact round-trip serialization: %a for doubles (strtod parses
/// hexfloat), so resumed runs see bit-identical values.
void put_hex(std::ostringstream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  os << buf;
}

void write_atomic_or_throw(const std::string& path, const std::string& data,
                           const char* stage, const std::string& design) {
  util::atomic_write_file(path, data).or_throw(stage, design);
}

constexpr int kManifestVersion = 1;
constexpr int kSensVersion = 1;

}  // namespace

// Design names are identifiers in practice, but never trust them as
// path components.
std::string sanitize_design_name(const std::string& name) {
  std::string out = name.empty() ? "_" : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  if (out[0] == '.') out[0] = '_';
  return out;
}

std::uint64_t library_fingerprint(const Library& lib) {
  std::ostringstream os;
  lib.write(os);
  return fnv1a(os.str());
}

std::uint64_t flow_fingerprint(const FlowConfig& cfg) {
  // Canonical serialization of every field that changes the generated
  // sensitivity data or the trained model. Fields that only change
  // performance (threads) or the evaluation stage (eval_*) are
  // deliberately excluded. v2 added the
  // liberty-library hash: TS labels depend on cell timing, so a
  // swapped library must invalidate --resume.
  std::ostringstream os;
  os << "v2|" << cfg.library_fingerprint << '|' << cfg.cppr << '|'
     << cfg.cppr_feature << '|'
     << cfg.label_all_remained << '|' << cfg.regression << '|';
  os << cfg.aocv.enabled << '|';
  put_hex(os, cfg.aocv.late_derate);
  os << '|';
  put_hex(os, cfg.aocv.early_derate);
  os << '|';
  put_hex(os, cfg.aocv.depth_constant);
  os << '|' << cfg.data.cppr_labels << '|';
  put_hex(os, cfg.data.ts_zero_epsilon);
  // The filter's former PI slew (t_min, t_max) and PO load options are
  // written as the constants they became (2, 60 and 4, see
  // sensitivity/filter.cpp), so older checkpoint directories still
  // resume.
  os << '|';
  put_hex(os, 2.0);
  os << '|';
  put_hex(os, 60.0);
  os << '|';
  put_hex(os, 4.0);
  os << '|';
  put_hex(os, cfg.data.filter.z_threshold);
  const auto& ts = cfg.data.ts;
  os << '|' << ts.num_constraint_sets << '|' << ts.seed << '|' << ts.cppr
     << '|';
  const auto& cg = ts.constraint_gen;
  for (double v : {cg.clock_period_ps, cg.pi_at_min, cg.pi_at_max,
                   cg.pi_slew_min, cg.pi_slew_max, cg.po_load_min,
                   cg.po_load_max, cg.po_rat_frac_min, cg.po_rat_frac_max}) {
    put_hex(os, v);
    os << '|';
  }
  const auto& m = ts.merge;
  os << m.max_fan_product << '|' << m.single_fanin_only << '|'
     << m.index.max_points << '|' << m.index.error_driven << '|';
  put_hex(os, m.index.tolerance_ps);
  // Fields of since-removed GNN options are written as the constants
  // they always held (engine 0, weight decay 0, auto positive weight 0,
  // min delta 1e-5), so older checkpoint directories still resume.
  os << '|' << cfg.gnn.input_dim << '|' << cfg.gnn.hidden_dim << '|'
     << cfg.gnn.num_layers << "|0|" << cfg.gnn.seed << '|';
  os << cfg.train.epochs << '|' << static_cast<int>(cfg.train.loss) << '|';
  put_hex(os, cfg.train.lr);
  os << '|';
  put_hex(os, 0.0);
  os << '|';
  put_hex(os, 0.0);
  os << '|' << cfg.train.patience << '|';
  put_hex(os, 1e-5);
  return fnv1a(os.str());
}

Checkpoint Checkpoint::open(const std::string& dir, const FlowConfig& cfg) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "ts", ec);
  if (!ec) fs::create_directories(fs::path(dir) / "results", ec);
  if (ec)
    throw fault::FlowError(fault::ErrorCode::kIo, "checkpoint.open",
                           "cannot create checkpoint directory '" + dir +
                               "': " + ec.message());

  // Remove atomic-write debris from a killed run: a `<name>.tmp.<pid>`
  // file was never renamed into place, so its contents are untrusted.
  std::size_t stale = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename().string().find(".tmp.") == std::string::npos)
      continue;
    fs::remove(entry.path(), ec);
    ++stale;
  }
  if (stale > 0)
    log_warn("checkpoint: removed %zu stale tmp file(s) from an "
             "interrupted run in %s",
             stale, dir.c_str());

  const std::uint64_t want = flow_fingerprint(cfg);
  const std::string manifest = (fs::path(dir) / "MANIFEST").string();
  std::ifstream in(manifest);
  if (in) {
    io::TokenReader tr(in, manifest);
    tr.expect("tmm-checkpoint");
    tr.integer_in("manifest version", kManifestVersion, kManifestVersion);
    tr.expect("fingerprint");
    const std::string tok(tr.token("fingerprint value"));
    std::uint64_t have = 0;
    if (std::sscanf(tok.c_str(), "%" SCNx64, &have) != 1)
      tr.fail("malformed fingerprint '" + tok + "'");
    if (have != want)
      throw fault::FlowError(
          fault::ErrorCode::kConfig, "checkpoint.open",
          "checkpoint '" + dir +
              "' was written under a different flow configuration "
              "(fingerprint mismatch) — resuming would mix incompatible "
              "data; use a fresh directory or the original config");
  } else {
    char buf[96];
    std::snprintf(buf, sizeof buf, "tmm-checkpoint %d\nfingerprint %016" PRIx64 "\n",
                  kManifestVersion, want);
    write_atomic_or_throw(manifest, buf, "checkpoint.open", {});
  }

  Checkpoint c;
  c.dir_ = dir;
  return c;
}

std::string Checkpoint::sens_path(const std::string& design) const {
  return (fs::path(dir_) / "ts" / (sanitize_design_name(design) + ".sens")).string();
}

std::string Checkpoint::model_path() const {
  return (fs::path(dir_) / "model.gnn").string();
}

std::string Checkpoint::result_path(const std::string& design) const {
  return (fs::path(dir_) / "results" / (sanitize_design_name(design) + ".res")).string();
}

std::optional<SensCheckpoint> Checkpoint::load_sens(
    const std::string& design) const {
  if (!enabled()) return std::nullopt;
  const std::string path = sens_path(design);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  try {
    io::TokenReader tr(in, path);
    tr.expect("tmm-sens");
    tr.integer_in("sens version", kSensVersion, kSensVersion);
    tr.expect("design");
    tr.token("design name");
    SensCheckpoint s;
    tr.expect("nodes");
    s.nodes = tr.size_at_most("node count", 100'000'000);
    tr.expect("positives");
    s.positives = tr.size_at_most("positive count", s.nodes);
    tr.expect("filtered_fraction");
    s.filtered_fraction = tr.number("filtered fraction");
    tr.expect("failed_pins");
    s.failed_pins = tr.size_at_most("failed pin count", s.nodes);
    tr.expect("skipped_sets");
    s.skipped_sets = tr.size_at_most("skipped set count", 1'000'000);
    tr.expect("labels");
    s.labels.reserve(s.nodes);
    for (std::size_t i = 0; i < s.nodes; ++i)
      s.labels.push_back(tr.number_f("label"));
    tr.expect("ts");
    s.ts.reserve(s.nodes);
    for (std::size_t i = 0; i < s.nodes; ++i)
      s.ts.push_back(tr.number("ts value"));
    tr.expect("end");
    return s;
  } catch (const std::exception& e) {
    // A corrupt checkpoint is a cache miss, not a fatal error: warn and
    // recompute. (Torn files cannot happen — writes are atomic — so
    // this is manual editing or media corruption.)
    log_warn("checkpoint: ignoring corrupt sensitivity file %s (%s)",
             path.c_str(), e.what());
    return std::nullopt;
  }
}

void Checkpoint::save_sens(const std::string& design,
                           const SensCheckpoint& s) const {
  if (!enabled()) return;
  fault::inject("checkpoint.save_sens");
  std::ostringstream os;
  os << "tmm-sens " << kSensVersion << "\ndesign " << sanitize_design_name(design)
     << "\nnodes " << s.nodes << "\npositives " << s.positives
     << "\nfiltered_fraction ";
  put_hex(os, s.filtered_fraction);
  os << "\nfailed_pins " << s.failed_pins << "\nskipped_sets "
     << s.skipped_sets << "\nlabels\n";
  for (std::size_t i = 0; i < s.labels.size(); ++i) {
    put_hex(os, static_cast<double>(s.labels[i]));
    os << ((i + 1) % 8 == 0 ? '\n' : ' ');
  }
  os << "\nts\n";
  for (std::size_t i = 0; i < s.ts.size(); ++i) {
    put_hex(os, s.ts[i]);
    os << ((i + 1) % 8 == 0 ? '\n' : ' ');
  }
  os << "\nend\n";
  write_atomic_or_throw(sens_path(design), os.str(), "checkpoint.save_sens",
                        design);
}

bool Checkpoint::has_model() const {
  return enabled() && fs::exists(model_path());
}

GnnModel Checkpoint::load_model() const {
  return load_gnn_file(model_path());
}

void Checkpoint::save_model(const GnnModel& model) const {
  if (!enabled()) return;
  fault::inject("checkpoint.save_model");
  save_gnn_file(model, model_path());
}

bool Checkpoint::has_result(const std::string& design) const {
  return enabled() && fs::exists(result_path(design));
}

std::optional<std::string> Checkpoint::load_result(
    const std::string& design) const {
  if (!enabled()) return std::nullopt;
  std::ifstream in(result_path(design));
  if (!in) return std::nullopt;
  return io::read_rest(in);
}

void Checkpoint::save_result(const std::string& design,
                             const std::string& text) const {
  if (!enabled()) return;
  write_atomic_or_throw(result_path(design), text, "checkpoint.save_result",
                        design);
}

}  // namespace tmm::flow
