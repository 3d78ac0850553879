#include "analysis/serve_lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "analysis/model_lint.hpp"
#include "fault/fault.hpp"
#include "fault/token_reader.hpp"
#include "serve/tmb.hpp"

namespace tmm::analysis {

namespace {

void add_image_error(LintReport& report, const std::string& source,
                     std::string message) {
  report.add(rule::kTmbImage, Severity::kError, source, std::move(message),
             "re-pack the model with `tmm pack`; a torn write cannot "
             "produce a valid image (writes are atomic)");
}

}  // namespace

LintReport lint_tmb_image(const std::string& image,
                          const std::string& source) {
  LintReport report;
  serve::TmbLayout layout;
  if (std::string problem = serve::walk_tmb(image, layout); !problem.empty()) {
    add_image_error(report, source, std::move(problem));
    return report;
  }

  // Exhaustive arena-bounds pass (S002), then the loader + model rules.
  // A bounds violation means unpack_model would throw on the same
  // record, so stop there rather than report the failure twice.
  bool in_bounds = true;
  for (std::size_t i = 0; i < layout.tables.size(); ++i) {
    const serve::TmbLut& t = layout.tables[i];
    if (t.fits(layout.arena_doubles)) continue;
    in_bounds = false;
    report.add(rule::kTmbArena, Severity::kError,
               source + " table " + std::to_string(i),
               "lut record [" + std::to_string(t.off) + ", " +
                   std::to_string(t.off + t.doubles()) + ") escapes the " +
                   std::to_string(layout.arena_doubles) + "-double arena",
               "the image was not produced by pack_model; re-pack "
               "from the source .macro");
  }
  if (!in_bounds) return report;

  try {
    const MacroModel model = serve::unpack_model(image, source);
    report.merge(lint_model(model));
  } catch (const fault::FlowError& e) {
    add_image_error(report, source, e.message());
  }
  return report;
}

LintReport lint_tmb_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    LintReport report;
    report.add(rule::kTmbImage, Severity::kError, path, "cannot open file",
               "check the path and permissions");
    return report;
  }
  return lint_tmb_image(io::read_rest(is), path);
}

LintReport lint_registry_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  LintReport report;
  std::error_code ec;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tmb")
      files.push_back(entry.path().string());
  }
  if (ec) {
    report.add(rule::kTmbImage, Severity::kError, dir,
               "cannot read directory: " + ec.message(),
               "check the path and permissions");
    return report;
  }
  std::sort(files.begin(), files.end());

  // design name -> first file that claimed it (S003).
  std::map<std::string, std::string> names;
  for (const std::string& path : files) {
    LintReport file_report = lint_tmb_file(path);
    const bool loadable = file_report.count(rule::kTmbImage) == 0 &&
                          file_report.count(rule::kTmbArena) == 0;
    report.merge(std::move(file_report));
    if (!loadable) continue;
    std::ifstream is(path, std::ios::binary);
    const std::string image = io::read_rest(is);
    serve::TmbLayout layout;
    if (!serve::walk_tmb(image, layout).empty()) continue;
    const std::string name(layout.design_name);
    const auto [it, inserted] = names.emplace(name, path);
    if (!inserted)
      report.add(rule::kRegistryDupName, Severity::kError, path,
                 "design name '" + name + "' already provided by " +
                     it->second + " (the registry keeps only one)",
                 "rename or remove one of the conflicting models");
  }
  return report;
}

}  // namespace tmm::analysis
