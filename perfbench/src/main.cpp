// tmm_perfbench — runs one benchmark workload and prints its metrics.
//
//   tmm_perfbench --workload train|generate|serve --seed N --seconds S
//                 --trace 0|1
//
// Run from the repository root (the generate workload reads
// examples/blif). Scratch files go to .bench_work/ and are removed; a
// traced run also writes its spans to .bench_trace/. The last line of
// stdout is the result as one JSON object. Exit 0 on a completed run
// (output checks included in the result), 1 on an error, 2 on bad usage.

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "workloads.hpp"

int main(int argc, char** argv) {
  pb::Args args;
  try {
    args = pb::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmm_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    pb::Report report;
    if (args.workload == "train")
      report = pb::run_train(args);
    else if (args.workload == "generate")
      report = pb::run_generate(args);
    else if (args.workload == "serve")
      report = pb::run_serve(args);
    else
      throw std::invalid_argument("unknown workload " + args.workload);
    if (args.trace) {
      std::filesystem::create_directories(".bench_trace");
      pb::trace::write_chrome_json(".bench_trace/" + args.workload + "-" +
                                   std::to_string(args.seed) + ".json");
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmm_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
