#pragma once
// Shared plumbing of the benchmark binary: command line, result report,
// statistics, seeded input generation and the scratch work directory.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/design_gen.hpp"

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (all threads), in seconds. Time the
/// host takes away from the guest is not counted, so it stays steady on
/// a shared machine where wall time does not.
double process_cpu_s();

/// Process CPU seconds of one pass of a fixed reference kernel (random
/// reads over a 16 MB table, then sorting 300k doubles): the host's
/// current speed. Body CPU time divided by it is steady across the speed
/// changes of a shared machine.
double calibration_cpu_s();

/// Median of `n` calibration passes.
double calibration(int n);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: a readable report on stdout, then the result as
/// the last line (one JSON object).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;   ///< the result line's metrics
  std::vector<Metric> extra;     ///< printed only (ops, self times, shares)
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  /// Records a failed output check covering `ops` operations (counted
  /// in `failed`); the run stays `correct` only if none was recorded.
  void fail(const std::string& what, std::uint64_t ops = 1);
  void print() const;
};

double median(std::vector<double> v);
/// Quantile by linear interpolation between closest ranks, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// splitmix64 finalizer: derives independent seeds from the benchmark
/// seed and a stream tag.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag);

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  return fnv1a(s.data(), s.size(), h);
}

double peak_rss_mb();

/// The cell library every generated design uses (built once).
const tmm::Library& library();

/// A suite with every design's generator seed replaced by one derived
/// from `seed`; pin counts (and so the work) do not depend on the seed.
std::vector<tmm::SuiteEntry> seeded(std::vector<tmm::SuiteEntry> suite,
                                    std::uint64_t seed);

/// The `n` smallest entries of a suite, in suite order.
std::vector<tmm::SuiteEntry> smallest(std::vector<tmm::SuiteEntry> suite,
                                      std::size_t n);

/// Scratch directory under the current directory, removed on exit.
class WorkDir {
 public:
  explicit WorkDir(const std::string& tag);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path);

}  // namespace pb
