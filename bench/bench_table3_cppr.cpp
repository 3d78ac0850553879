// Reproduces Table 3: TAU 2016 + TAU 2017 benchmarks **with CPPR**.
// Ours (GNN framework) vs iTimerM-like [5] vs LibAbs-like [4]
// (the latter only on the TAU 2016 designs, as in the paper).
//
// Shapes to expect (see EXPERIMENTS.md): max error — ours == iTimerM,
// several times better than [4]; model size — ours ~10% smaller than
// iTimerM and much smaller than [4].

#include <cstdio>

#include "bench_common.hpp"
#include "util/instrument.hpp"

using namespace tmm;
using namespace tmm::bench;

int main() {
  const std::size_t scale = env_scale("TMM_TEST_SCALE", 100);
  const std::size_t train_scale = env_scale("TMM_TRAIN_SCALE", 10);
  std::printf("== Table 3: TAU 2016/2017 with CPPR (designs at 1/%zu TAU "
              "scale) ==\n",
              scale);

  JsonReport report("table3_cppr");
  obs::set_tracing_enabled(true);  // rows carry span stage timings
  report.set_meta("scale", static_cast<double>(scale));
  report.set_meta("train_scale", static_cast<double>(train_scale));

  FlowConfig cfg;
  cfg.cppr = true;
  cfg.cppr_feature = true;
  Framework fw(cfg);
  report.add_training("gnn", train_framework(fw, train_scale));

  const Library lib = generate_library();
  const auto suite = tau_testing_suite(lib, scale);

  AsciiTable table({"Design", "Impl", "Avg Err (ps)", "Max Err (ps)",
                    "Size (KB)", "Gen (s)", "Gen Mem (MB)", "Use (s)",
                    "Use Mem (MB)"});
  std::vector<double> size_ours16, size_itm16, size_lib16;
  std::vector<double> size_ours17, size_itm17;
  std::vector<double> gen_ours16, gen_itm16, gen_lib16;
  std::vector<double> gen_ours17, gen_itm17;
  std::vector<double> use_ours16, use_itm16, use_lib16;
  std::vector<double> use_ours17, use_itm17;
  double max_err_gap16 = 0.0, max_err_gap17 = 0.0, max_err_gap_lib = 0.0;

  for (std::size_t i = 0; i < 10; ++i) {  // matrix_mult is Table-5 only
    const auto& entry = suite[i];
    const bool tau16 = entry.name.find("_eval") != std::string::npos;
    const Design d = make_design(entry);
    std::fprintf(stderr, "# %s: %zu pins\n", entry.name.c_str(),
                 d.num_pins());

    const DesignResult ours = fw.run_design(d);
    const DesignResult itm = fw.run_itimerm(d);
    auto add = [&](const char* impl, const DesignResult& r) {
      table.add_row({entry.name, impl, fmt_err(r.acc.avg_err_ps),
                     fmt_err(r.acc.max_err_ps),
                     fmt_size_kb(r.model_file_bytes),
                     fmt_seconds(r.gen.generation_seconds),
                     fmt_mb(r.gen.generation_peak_rss),
                     fmt_seconds(r.acc.usage_seconds),
                     fmt_mb(r.model_memory_bytes)});
    };
    add("Ours", ours);
    add("iTimerM", itm);
    report.add_result(entry.name, "ours", ours);
    report.add_result(entry.name, "itimerm", itm);
    auto& size_ours = tau16 ? size_ours16 : size_ours17;
    auto& size_itm = tau16 ? size_itm16 : size_itm17;
    auto& gen_ours = tau16 ? gen_ours16 : gen_ours17;
    auto& gen_itm = tau16 ? gen_itm16 : gen_itm17;
    auto& use_ours = tau16 ? use_ours16 : use_ours17;
    auto& use_itm = tau16 ? use_itm16 : use_itm17;
    size_ours.push_back(static_cast<double>(ours.model_file_bytes));
    size_itm.push_back(static_cast<double>(itm.model_file_bytes));
    gen_ours.push_back(ours.gen.generation_seconds);
    gen_itm.push_back(itm.gen.generation_seconds);
    use_ours.push_back(ours.acc.usage_seconds);
    use_itm.push_back(itm.acc.usage_seconds);
    auto& gap = tau16 ? max_err_gap16 : max_err_gap17;
    gap = std::max(gap, itm.acc.max_err_ps - ours.acc.max_err_ps);

    if (tau16) {
      const DesignResult lb = fw.run_libabs(d);
      add("[4]", lb);
      report.add_result(entry.name, "libabs", lb);
      size_lib16.push_back(static_cast<double>(lb.model_file_bytes));
      gen_lib16.push_back(lb.gen.generation_seconds);
      use_lib16.push_back(lb.acc.usage_seconds);
      max_err_gap_lib = std::max(max_err_gap_lib,
                                 lb.acc.max_err_ps - ours.acc.max_err_ps);
    }
    table.add_separator();
  }

  std::printf("%s", table.to_string().c_str());

  std::printf("\nTAU 2016 averages (compared result / our result):\n");
  std::printf("  ratio1 (iTimerM/ours)  size %.3f  gen %.3f  usage %.3f  "
              "max-err difference %.4f ps\n",
              mean_ratio(size_itm16, size_ours16),
              mean_ratio(gen_itm16, gen_ours16),
              mean_ratio(use_itm16, use_ours16), max_err_gap16);
  std::printf("  ratio2 ([4]/ours)      size %.3f  gen %.3f  usage %.3f  "
              "max-err difference %.4f ps\n",
              mean_ratio(size_lib16, size_ours16),
              mean_ratio(gen_lib16, gen_ours16),
              mean_ratio(use_lib16, use_ours16), max_err_gap_lib);
  std::printf("TAU 2017 averages:\n");
  std::printf("  ratio  (iTimerM/ours)  size %.3f  gen %.3f  usage %.3f  "
              "max-err difference %.4f ps\n",
              mean_ratio(size_itm17, size_ours17),
              mean_ratio(gen_itm17, gen_ours17),
              mean_ratio(use_itm17, use_ours17), max_err_gap17);
  std::printf("\nPaper shape: ours matches iTimerM max error; size ratio ~1.1 "
              "(ours ~10%% smaller); [4] size ratio ~1.8 and ~0.2 ps worse "
              "max error.\n");
  report.set_summary("tau16_size_ratio_itimerm",
                     mean_ratio(size_itm16, size_ours16));
  report.set_summary("tau16_gen_ratio_itimerm",
                     mean_ratio(gen_itm16, gen_ours16));
  report.set_summary("tau16_usage_ratio_itimerm",
                     mean_ratio(use_itm16, use_ours16));
  report.set_summary("tau16_max_err_gap_ps", max_err_gap16);
  report.set_summary("tau16_size_ratio_libabs",
                     mean_ratio(size_lib16, size_ours16));
  report.set_summary("tau16_gen_ratio_libabs",
                     mean_ratio(gen_lib16, gen_ours16));
  report.set_summary("tau16_usage_ratio_libabs",
                     mean_ratio(use_lib16, use_ours16));
  report.set_summary("tau16_max_err_gap_libabs_ps", max_err_gap_lib);
  report.set_summary("tau17_size_ratio_itimerm",
                     mean_ratio(size_itm17, size_ours17));
  report.set_summary("tau17_gen_ratio_itimerm",
                     mean_ratio(gen_itm17, gen_ours17));
  report.set_summary("tau17_usage_ratio_itimerm",
                     mean_ratio(use_itm17, use_ours17));
  report.set_summary("tau17_max_err_gap_ps", max_err_gap17);
  report.write();
  return 0;
}
