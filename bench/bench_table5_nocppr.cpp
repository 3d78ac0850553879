// Reproduces Table 5: TAU 2017 benchmark **without CPPR**, including
// mgc_matrix_mult. Ours vs iTimerM-like [5] vs the ETM-based ATM-like
// [6] baseline.
//
// Expected shape: ours == iTimerM accuracy with a slightly smaller
// model; ATM's port-to-port models are orders of magnitude smaller but
// an order of magnitude less accurate, with far larger generation
// runtimes (its characterization re-analyzes the ILM hundreds of
// times) and near-zero usage runtimes.

#include <cstdio>

#include "bench_common.hpp"

using namespace tmm;
using namespace tmm::bench;

int main() {
  const std::size_t scale = env_scale("TMM_TEST_SCALE", 200);
  const std::size_t train_scale = env_scale("TMM_TRAIN_SCALE", 10);
  std::printf("== Table 5: TAU 2017 without CPPR (designs at 1/%zu TAU "
              "scale) ==\n",
              scale);

  JsonReport report("table5_nocppr");
  obs::set_tracing_enabled(true);  // rows carry span stage timings
  report.set_meta("scale", static_cast<double>(scale));
  report.set_meta("train_scale", static_cast<double>(train_scale));

  FlowConfig cfg;
  cfg.cppr = false;
  cfg.cppr_feature = false;
  Framework fw(cfg);
  report.add_training("gnn", train_framework(fw, train_scale));

  EtmConfig etm_cfg;
  etm_cfg.slew_samples = {2.0, 6.0, 15.0, 35.0, 70.0};
  etm_cfg.load_samples = {1.0, 5.0, 12.0};

  const Library lib = generate_library();
  const auto suite = tau_testing_suite(lib, scale);

  AsciiTable table({"Design", "Impl", "Avg Err (ps)", "Max Err (ps)",
                    "Size (KB)", "Gen (s)", "Use (s)"});
  std::vector<double> size_itm, size_ours, size_etm;
  std::vector<double> gen_itm, gen_ours, gen_etm;
  std::vector<double> use_itm, use_ours, use_etm;
  double diff1 = 0.0, diff2 = 0.0, avg2 = 0.0;
  std::size_t rows = 0;

  for (std::size_t i = 5; i < suite.size(); ++i) {  // TAU 2017 entries
    const auto& entry = suite[i];
    const Design d = make_design(entry);
    std::fprintf(stderr, "# %s: %zu pins\n", entry.name.c_str(),
                 d.num_pins());
    const DesignResult ours = fw.run_design(d);
    const DesignResult itm = fw.run_itimerm(d);
    const DesignResult etm = fw.run_etm(d, etm_cfg);
    auto add = [&](const char* impl, const DesignResult& r) {
      table.add_row({entry.name, impl, fmt_err(r.acc.avg_err_ps),
                     fmt_err(r.acc.max_err_ps),
                     fmt_size_kb(r.model_file_bytes),
                     fmt_seconds(r.gen.generation_seconds),
                     fmt_seconds(r.acc.usage_seconds)});
    };
    add("Ours", ours);
    add("iTimerM", itm);
    add("ATM", etm);
    report.add_result(entry.name, "ours", ours);
    report.add_result(entry.name, "itimerm", itm);
    report.add_result(entry.name, "etm", etm);
    table.add_separator();
    size_ours.push_back(static_cast<double>(ours.model_file_bytes));
    size_itm.push_back(static_cast<double>(itm.model_file_bytes));
    size_etm.push_back(static_cast<double>(etm.model_file_bytes));
    gen_ours.push_back(ours.gen.generation_seconds);
    gen_itm.push_back(itm.gen.generation_seconds);
    gen_etm.push_back(etm.gen.generation_seconds);
    use_ours.push_back(ours.acc.usage_seconds);
    use_itm.push_back(itm.acc.usage_seconds);
    use_etm.push_back(etm.acc.usage_seconds);
    diff1 = std::max(diff1, itm.acc.max_err_ps - ours.acc.max_err_ps);
    diff2 = std::max(diff2, etm.acc.max_err_ps - ours.acc.max_err_ps);
    avg2 += etm.acc.avg_err_ps - ours.acc.avg_err_ps;
    ++rows;
  }

  std::printf("%s", table.to_string().c_str());
  std::printf("\nAverages (compared result / our result):\n");
  std::printf("  ratio1 (iTimerM/ours) size %.3f  gen %.3f  usage %.3f  "
              "max-err difference %.4f ps\n",
              mean_ratio(size_itm, size_ours), mean_ratio(gen_itm, gen_ours),
              mean_ratio(use_itm, use_ours), diff1);
  std::printf("  ratio2 (ATM/ours)     size %.3f  gen %.3f  usage %.3f  "
              "max-err difference %.4f ps  avg-err difference %.4f ps\n",
              mean_ratio(size_etm, size_ours), mean_ratio(gen_etm, gen_ours),
              mean_ratio(use_etm, use_ours), diff2,
              avg2 / static_cast<double>(std::max<std::size_t>(1, rows)));
  std::printf("\nPaper shape: ratio1 size ~1.09 with zero max-err "
              "difference; ratio2 size ~0.03 (ATM tiny), gen ~18x slower, "
              "usage ~0.03x, max-err difference ~+0.27 ps.\n");
  report.set_summary("size_ratio_itimerm", mean_ratio(size_itm, size_ours));
  report.set_summary("gen_ratio_itimerm", mean_ratio(gen_itm, gen_ours));
  report.set_summary("usage_ratio_itimerm", mean_ratio(use_itm, use_ours));
  report.set_summary("max_err_gap_itimerm_ps", diff1);
  report.set_summary("size_ratio_etm", mean_ratio(size_etm, size_ours));
  report.set_summary("gen_ratio_etm", mean_ratio(gen_etm, gen_ours));
  report.set_summary("usage_ratio_etm", mean_ratio(use_etm, use_ours));
  report.set_summary("max_err_gap_etm_ps", diff2);
  report.set_summary(
      "avg_err_gap_etm_ps",
      avg2 / static_cast<double>(std::max<std::size_t>(1, rows)));
  report.write();
  return 0;
}
