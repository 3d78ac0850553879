// Reproduces Table 4: the effect of the CPPR-dedicated feature
// (is_CPPR). Two frameworks are trained — one on the 8 basic features
// ("Before"), one with the dedicated 9th feature ("After") — and both
// are compared against the iTimerM-like baseline on the TAU suites with
// CPPR, exactly the Difference/Ratio presentation of the paper.
//
// Expected shape: both variants match iTimerM's accuracy; the dedicated
// feature nudges the size ratio further in our favor.

#include <cstdio>

#include "bench_common.hpp"

using namespace tmm;
using namespace tmm::bench;

namespace {

struct Agg {
  std::vector<double> size_base, size_ours, gen_base, gen_ours;
  double err_diff = 0.0;
  double avg_diff = 0.0;
  std::size_t rows = 0;

  void add(const DesignResult& ours, const DesignResult& itm) {
    size_base.push_back(static_cast<double>(itm.model_file_bytes));
    size_ours.push_back(static_cast<double>(ours.model_file_bytes));
    gen_base.push_back(itm.gen.generation_seconds);
    gen_ours.push_back(ours.gen.generation_seconds);
    err_diff = std::max(err_diff, itm.acc.max_err_ps - ours.acc.max_err_ps);
    avg_diff += itm.acc.avg_err_ps - ours.acc.avg_err_ps;
    ++rows;
  }
};

}  // namespace

int main() {
  const std::size_t scale = env_scale("TMM_TEST_SCALE", 100);
  const std::size_t train_scale = env_scale("TMM_TRAIN_SCALE", 10);
  std::printf("== Table 4: with vs without the CPPR-dedicated feature "
              "(CPPR mode, designs at 1/%zu TAU scale) ==\n",
              scale);

  Framework before([] {
    FlowConfig c;
    c.cppr = true;
    c.cppr_feature = false;
    return c;
  }());
  Framework after([] {
    FlowConfig c;
    c.cppr = true;
    c.cppr_feature = true;
    return c;
  }());
  JsonReport report("table4_cppr_feature");
  obs::set_tracing_enabled(true);  // rows carry span stage timings
  report.set_meta("scale", static_cast<double>(scale));
  report.set_meta("train_scale", static_cast<double>(train_scale));
  std::printf("-- training 'Before' (8 basic features)\n");
  report.add_training("before_basic_features",
                      train_framework(before, train_scale));
  std::printf("-- training 'After' (+ is_CPPR)\n");
  report.add_training("after_is_cppr", train_framework(after, train_scale));

  const Library lib = generate_library();
  const auto suite = tau_testing_suite(lib, scale);

  Agg agg16_before, agg16_after, agg17_before, agg17_after;
  for (std::size_t i = 0; i < 10; ++i) {
    const Design d = make_design(suite[i]);
    const bool tau16 = suite[i].name.find("_eval") != std::string::npos;
    std::fprintf(stderr, "# %s (%zu pins)\n", suite[i].name.c_str(),
                 d.num_pins());
    const DesignResult itm = after.run_itimerm(d);
    const DesignResult rb = before.run_design(d);
    const DesignResult ra = after.run_design(d);
    report.add_result(suite[i].name, "itimerm", itm);
    report.add_result(suite[i].name, "before_basic_features", rb);
    report.add_result(suite[i].name, "after_is_cppr", ra);
    (tau16 ? agg16_before : agg17_before).add(rb, itm);
    (tau16 ? agg16_after : agg17_after).add(ra, itm);
  }

  AsciiTable table({"Benchmark", "Variant", "Avg Err Diff (ps)",
                    "Max Err Diff (ps)", "Size Ratio", "Gen Ratio"});
  auto row = [&](const char* bench, const char* variant, const Agg& a) {
    table.add_row({bench, variant,
                   AsciiTable::num(a.avg_diff / std::max<std::size_t>(1, a.rows), 4),
                   AsciiTable::num(a.err_diff, 4),
                   AsciiTable::num(mean_ratio(a.size_base, a.size_ours), 3),
                   AsciiTable::num(mean_ratio(a.gen_base, a.gen_ours), 3)});
  };
  row("TAU2016", "Before (basic features)", agg16_before);
  row("TAU2016", "After  (+ is_CPPR)", agg16_after);
  table.add_separator();
  row("TAU2017", "Before (basic features)", agg17_before);
  row("TAU2017", "After  (+ is_CPPR)", agg17_after);
  std::printf("%s", table.to_string().c_str());
  std::printf("\nPaper shape: error differences ~0 in both variants; the "
              "size ratio improves from ~1.06 to ~1.10-1.12 once the "
              "dedicated feature is added.\n");
  auto summarize = [&](const char* prefix, const Agg& a) {
    const double rows_d = static_cast<double>(std::max<std::size_t>(1, a.rows));
    report.set_summary(std::string(prefix) + "_avg_err_diff_ps",
                       a.avg_diff / rows_d);
    report.set_summary(std::string(prefix) + "_max_err_diff_ps", a.err_diff);
    report.set_summary(std::string(prefix) + "_size_ratio",
                       mean_ratio(a.size_base, a.size_ours));
    report.set_summary(std::string(prefix) + "_gen_ratio",
                       mean_ratio(a.gen_base, a.gen_ours));
  };
  summarize("tau16_before", agg16_before);
  summarize("tau16_after", agg16_after);
  summarize("tau17_before", agg17_before);
  summarize("tau17_after", agg17_after);
  report.write();
  return 0;
}
