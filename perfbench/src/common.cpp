#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "liberty/library_gen.hpp"
#include "util/instrument.hpp"

namespace pb {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

void Report::fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  failed += ops;
  problems.push_back(what);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::print() const {
  for (const Metric& m : metrics)
    std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : extra)
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%-32s %16llu count\n", "ops",
              static_cast<unsigned long long>(attempted));
  std::printf("%-32s %16llu count\n", "ops_failed",
              static_cast<unsigned long long>(failed));
  for (const std::string& p : problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double process_cpu_s() {
  timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double calibration_cpu_s() {
  static std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 22);
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    return t;
  }();
  static std::vector<double> keys(300000);
  const double c0 = process_cpu_s();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sum = 0;
  for (int i = 0; i < 3000000; ++i) sum += table[next() & (table.size() - 1)];
  for (double& k : keys) k = static_cast<double>(next() >> 11);
  std::sort(keys.begin(), keys.end());
  volatile std::uint64_t sink = sum + static_cast<std::uint64_t>(keys[0]);
  (void)sink;
  return process_cpu_s() - c0;
}

double calibration(int n) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) t.push_back(calibration_cpu_s());
  return median(t);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mb() {
  return static_cast<double>(tmm::peak_rss_bytes()) / (1024.0 * 1024.0);
}

const tmm::Library& library() {
  static const tmm::Library lib = tmm::generate_library();
  return lib;
}

std::vector<tmm::SuiteEntry> seeded(std::vector<tmm::SuiteEntry> suite,
                                    std::uint64_t seed) {
  for (std::size_t i = 0; i < suite.size(); ++i)
    suite[i].cfg.seed = mix(seed, 0x5eed0000 + i) | 1;
  return suite;
}

std::vector<tmm::SuiteEntry> smallest(std::vector<tmm::SuiteEntry> suite,
                                      std::size_t n) {
  std::vector<std::size_t> order(suite.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return suite[a].tau_pins < suite[b].tau_pins;
  });
  order.resize(std::min(n, order.size()));
  std::sort(order.begin(), order.end());
  std::vector<tmm::SuiteEntry> out;
  for (std::size_t i : order) out.push_back(suite[i]);
  return out;
}

WorkDir::WorkDir(const std::string& tag) {
  path_ = ".bench_work/" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::remove(".bench_work", ec);  // only when empty
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace pb
