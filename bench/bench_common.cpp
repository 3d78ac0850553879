#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

#include "util/json.hpp"

// Short git SHA of the checkout, stamped at configure time by
// bench/CMakeLists.txt; "unknown" outside a git checkout.
#ifndef TMM_GIT_SHA
#define TMM_GIT_SHA "unknown"
#endif

namespace tmm::bench {

namespace {

/// Seconds of sensitivity-data generation: the flow.train.design:*
/// stages summed (0 when tracing is off).
double data_generation_seconds(const TrainingSummary& sum) {
  double seconds = 0.0;
  for (const obs::SpanTotal& st : sum.stage_timings)
    if (st.name.starts_with("flow.train.design:")) seconds += st.seconds;
  return seconds;
}

}  // namespace

TrainingSummary train_framework(Framework& fw, std::size_t train_scale) {
  const Library& lib = generate_library();  // only for suite signatures
  const auto suite = training_suite(lib, train_scale);
  static Library persistent_lib = generate_library();
  std::vector<Design> designs;
  designs.reserve(suite.size());
  for (const auto& entry : suite)
    designs.push_back(generate_design(persistent_lib, entry.cfg));
  std::printf("# training on %zu designs (scale 1/%zu)...\n", designs.size(),
              train_scale);
  const TrainingSummary sum = fw.train(designs);
  std::printf(
      "# trained: %zu pins labeled, %zu positives, filter removed %.1f%%, "
      "%zu epochs, loss %.4f, data-gen %.1fs, train %.1fs\n",
      sum.labeled_pins, sum.positives, sum.mean_filtered_fraction * 100.0,
      sum.report.epochs_run, sum.report.final_loss,
      data_generation_seconds(sum), sum.report.seconds);
  return sum;
}

Design make_design(const SuiteEntry& entry) {
  static Library lib = generate_library();
  return generate_design(lib, entry.cfg);
}

std::string fmt_err(double ps) { return AsciiTable::num(ps, 4); }

std::string fmt_size_kb(std::size_t bytes) {
  return AsciiTable::num(static_cast<double>(bytes) / 1024.0, 1);
}

std::string fmt_seconds(double s) { return AsciiTable::num(s, 3); }

std::string fmt_mb(std::size_t bytes) {
  return AsciiTable::num(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

namespace {

/// JSON has no NaN/Inf literals; clamp them so the file always parses.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_kv_object(std::ofstream& os,
                     const std::vector<std::pair<std::string, double>>& kv,
                     const char* indent) {
  os << "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    os << (i ? "," : "") << "\n" << indent << "  "
       << util::json_quoted(kv[i].first) << ": " << json_num(kv[i].second);
  }
  if (!kv.empty()) os << "\n" << indent;
  os << "}";
}

void write_stages(std::ofstream& os, const std::vector<obs::SpanTotal>& stages,
                  const char* indent) {
  std::vector<std::pair<std::string, double>> kv;
  kv.reserve(stages.size());
  for (const auto& st : stages) kv.emplace_back(st.name, st.seconds);
  write_kv_object(os, kv, indent);
}

}  // namespace

void JsonReport::set_meta(const std::string& key, double value) {
  meta_.emplace_back(key, value);
}

void JsonReport::add_training(const std::string& label,
                              const TrainingSummary& sum) {
  trainings_.push_back({label, sum});
  obs::reset_trace();
}

void JsonReport::add_result(const std::string& design, const std::string& impl,
                            const DesignResult& r) {
  RowRec rec;
  rec.design = design;
  rec.impl = impl;
  rec.metrics = {
      {"avg_err_ps", r.acc.avg_err_ps},
      {"max_err_ps", r.acc.max_err_ps},
      {"compared_values", static_cast<double>(r.acc.compared_values)},
      {"structural_mismatches",
       static_cast<double>(r.acc.structural_mismatches)},
      {"model_file_bytes", static_cast<double>(r.model_file_bytes)},
      {"model_memory_bytes", static_cast<double>(r.model_memory_bytes)},
      {"generation_seconds", r.gen.generation_seconds},
      {"generation_peak_rss_bytes",
       static_cast<double>(r.gen.generation_peak_rss)},
      {"usage_seconds", r.acc.usage_seconds},
      {"usage_peak_rss_bytes", static_cast<double>(r.usage_peak_rss)},
      {"inference_seconds", r.inference_seconds},
      {"ilm_pins", static_cast<double>(r.gen.ilm_pins)},
      {"pins_kept", static_cast<double>(r.gen.pins_kept)},
      {"model_pins", static_cast<double>(r.gen.model_pins)},
  };
  rec.stages = r.stage_timings;
  rows_.push_back(std::move(rec));
  obs::reset_trace();  // the stages are copied; hold one run's spans at most
}

void JsonReport::add_row(
    const std::string& design, const std::string& impl,
    std::vector<std::pair<std::string, double>> metrics) {
  rows_.push_back({design, impl, std::move(metrics), {}});
}

void JsonReport::set_summary(const std::string& key, double value) {
  summary_.emplace_back(key, value);
}

bool JsonReport::write() const {
  std::string path = "BENCH_" + name_ + ".json";
  if (const char* dir = std::getenv("TMM_BENCH_JSON_DIR"))
    if (*dir) path = std::string(dir) + "/" + path;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "# bench: cannot write %s\n", path.c_str());
    return false;
  }
  // Reproducibility metadata: which build produced this file, when, and
  // on how many cores — so archived BENCH_*.json files stay comparable.
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr)
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc);
  os << "{\n  \"bench\": " << util::json_quoted(name_)
     << ",\n  \"environment\": {\n    \"git_sha\": "
     << util::json_quoted(TMM_GIT_SHA) << ",\n    \"utc_timestamp\": \""
     << stamp << "\",\n    \"host_cores\": "
     << std::thread::hardware_concurrency() << "\n  },\n  \"meta\": ";
  write_kv_object(os, meta_, "  ");
  os << ",\n  \"training\": [";
  for (std::size_t i = 0; i < trainings_.size(); ++i) {
    const TrainingRec& t = trainings_[i];
    os << (i ? "," : "") << "\n    {\n      \"label\": "
       << util::json_quoted(t.label) << ",\n      \"designs\": "
       << t.sum.designs << ",\n      \"labeled_pins\": " << t.sum.labeled_pins
       << ",\n      \"positives\": " << t.sum.positives
       << ",\n      \"mean_filtered_fraction\": "
       << json_num(t.sum.mean_filtered_fraction)
       << ",\n      \"data_generation_seconds\": "
       << json_num(data_generation_seconds(t.sum))
       << ",\n      \"epochs_run\": " << t.sum.report.epochs_run
       << ",\n      \"final_loss\": " << json_num(t.sum.report.final_loss)
       << ",\n      \"train_seconds\": " << json_num(t.sum.report.seconds)
       << ",\n      \"stages\": ";
    write_stages(os, t.sum.stage_timings, "      ");
    os << "\n    }";
  }
  if (!trainings_.empty()) os << "\n  ";
  os << "],\n  \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const RowRec& r = rows_[i];
    os << (i ? "," : "") << "\n    {\n      \"design\": "
       << util::json_quoted(r.design) << ",\n      \"impl\": "
       << util::json_quoted(r.impl) << ",\n      \"metrics\": ";
    write_kv_object(os, r.metrics, "      ");
    os << ",\n      \"stages\": ";
    write_stages(os, r.stages, "      ");
    os << "\n    }";
  }
  if (!rows_.empty()) os << "\n  ";
  os << "],\n  \"summary\": ";
  write_kv_object(os, summary_, "  ");
  os << "\n}\n";
  os.flush();
  if (!os) {
    std::fprintf(stderr, "# bench: error writing %s\n", path.c_str());
    return false;
  }
  std::printf("# wrote %s\n", path.c_str());
  return true;
}

double mean_ratio(const std::vector<double>& baseline,
                  const std::vector<double>& ours) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(baseline.size(), ours.size()); ++i) {
    if (ours[i] <= 0.0 || baseline[i] <= 0.0) continue;
    log_sum += std::log(baseline[i] / ours[i]);
    ++n;
  }
  return n == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace tmm::bench
