// serve_loadgen — open-loop load generator and correctness checker for
// `tmm serve` (docs/SERVING.md).
//
// Drives two sweeps against a running server and emits BENCH_serve.json:
//   cold: every request carries a unique constraint set (all cache
//         misses) — measures raw evaluation throughput;
//   warm: requests cycle through --warm-keys shared constraint sets
//         (cache hits after the first lap) — measures cached throughput.
//
// Every response is verified bit-identical against a local evaluation
// of the same packed model (the offline `tmm evaluate` path uses the
// same Sta engine), so the bench doubles as the end-to-end correctness
// gate the CI smoke job runs.
//
// Client robustness: connects and requests retry with the shared
// capped exponential backoff + jitter (serve/client.hpp) on
// connection-refused, kShuttingDown and kOverloaded — the server's shed
// responses are flow control, not failures. Retries are counted in the
// JSON report (connect_retries / response_retries summaries).
//
// --soak S replaces the cold/warm sweeps with a saturation soak: each
// client pipelines --burst frames per write for S seconds, a mid-run
// kReload is fired at S/2 on its own connection, and the report gains
// p99/p99.9, the shed rate, and reload_swap_us — the zero-downtime
// hot-reload gate (shed responses are expected; malformed ones fail).
//
// Usage:
//   serve_loadgen (--socket path | --port N) --model-dir dir
//                 [--threads N] [--seconds S] [--qps Q] [--warm-keys K]
//                 [--seed S] [--no-verify] [--soak S] [--burst N]
//
// Exit codes: 0 all responses ok and bit-identical; 1 any error or
// mismatch (soak: any malformed response, bit mismatch, or failed
// reload); 2 bad usage.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/evaluator.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "sta/constraints.hpp"
#include "util/rng.hpp"

namespace {

using namespace tmm;

struct Options {
  serve::Endpoint endpoint;  ///< --socket path or --port N
  std::string model_dir;
  std::size_t threads = 8;
  double seconds = 3.0;
  double qps = 0.0;  ///< 0 = closed loop
  std::size_t warm_keys = 16;
  std::uint64_t seed = 0x10ad;
  bool verify = true;
  double soak_seconds = 0.0;  ///< > 0 switches to the soak harness
  std::size_t burst = 8;      ///< pipelined frames per write in soak
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "serve_loadgen: %s\nusage: serve_loadgen (--socket path | "
               "--port N) --model-dir dir [--threads N] [--seconds S] "
               "[--qps Q] [--warm-keys K] [--seed S] [--no-verify] "
               "[--soak S] [--burst N]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) try {
  Options opt;
  bool have_endpoint = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--socket" || a == "--port") {
      opt.endpoint = a == "--socket" ? serve::unix_endpoint(next())
                                     : serve::tcp_endpoint(std::stol(next()));
      have_endpoint = true;
    } else if (a == "--model-dir")
      opt.model_dir = next();
    else if (a == "--threads")
      opt.threads = std::stoul(next());
    else if (a == "--seconds")
      opt.seconds = std::stod(next());
    else if (a == "--qps")
      opt.qps = std::stod(next());
    else if (a == "--warm-keys")
      opt.warm_keys = std::stoul(next());
    else if (a == "--seed")
      opt.seed = std::stoull(next());
    else if (a == "--no-verify")
      opt.verify = false;
    else if (a == "--soak")
      opt.soak_seconds = std::stod(next());
    else if (a == "--burst")
      opt.burst = std::stoul(next());
    else
      usage_error("unknown option " + a);
  }
  if (!have_endpoint) usage_error("--socket or --port is required");
  if (opt.model_dir.empty()) usage_error("--model-dir is required");
  if (opt.threads == 0) usage_error("--threads must be >= 1");
  if (opt.warm_keys == 0) usage_error("--warm-keys must be >= 1");
  if (opt.burst == 0) usage_error("--burst must be >= 1");
  return opt;
} catch (const std::exception& e) {  // bad number, bad endpoint
  usage_error(e.what());
}

/// Client-wide retry tallies, surfaced as report summaries so a CI run
/// can see how hard the clients had to work to get their answers.
std::atomic<std::uint64_t> g_connect_retries{0};
std::atomic<std::uint64_t> g_response_retries{0};

/// Connect with up to `attempts` tries, backing off between them —
/// rides out a server still binding or briefly refusing during
/// restart. -1 only after every attempt failed.
int connect_with_retry(const Options& opt, Rng& rng, int attempts = 8) {
  serve::Backoff backoff(rng, /*base_s=*/0.05, /*cap_s=*/1.0);
  for (int attempt = 0;; ++attempt) {
    try {
      return serve::connect_endpoint(opt.endpoint);
    } catch (const std::exception&) {
      if (attempt + 1 >= attempts) return -1;
    }
    g_connect_retries.fetch_add(1);
    backoff.sleep_next();
  }
}

/// The constraint set of logical key `key` for `entry`, derived purely
/// from (seed, key) so client threads and the verifier agree.
BoundaryConstraints make_constraints(const serve::RegistryEntry& entry,
                                     std::uint64_t seed, std::uint64_t key) {
  Rng rng(seed ^ (key * 0x9e3779b97f4a7c15ull) ^ 0x5eed);
  return random_constraints(entry.num_pis, entry.num_pos, {}, rng);
}

bool bit_identical(const BoundarySnapshot& a, const BoundarySnapshot& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return same(a.slew, b.slew) && same(a.at, b.at) && same(a.rat, b.rat) &&
         same(a.slack, b.slack);
}

struct PhaseResult {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;      ///< non-ok responses + socket failures
  std::uint64_t mismatches = 0;  ///< responses not bit-identical
  std::uint64_t cache_hits = 0;  ///< server-reported
  double elapsed_s = 0.0;
  std::vector<double> latencies_us;  ///< one entry per request
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Run one sweep. `unique_keys` = 0 means every request gets a fresh
/// key (cold); otherwise keys cycle modulo unique_keys (warm).
PhaseResult run_phase(const Options& opt, const serve::ModelRegistry& registry,
                      serve::Evaluator* verifier, std::uint64_t key_base,
                      std::uint64_t unique_keys) {
  std::vector<const serve::RegistryEntry*> models;
  std::vector<std::string> names;
  for (const auto& [name, entry] : registry.entries()) {
    models.push_back(&entry);
    names.push_back(name);
  }

  std::atomic<std::uint64_t> next_index{0};
  std::atomic<std::uint64_t> errors{0}, mismatches{0}, hits{0}, done{0};
  std::vector<std::vector<double>> per_thread_lat(opt.threads);
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(opt.seconds));

  auto client = [&](std::size_t tid) {
    Rng rng(opt.seed ^ (tid * 0x9e3779b9ull + 0xbac0ffull));
    int fd = connect_with_retry(opt, rng);
    if (fd < 0) {
      errors.fetch_add(1);
      return;
    }
    serve::Evaluator::Scratch scratch;
    BoundarySnapshot expected;
    while (std::chrono::steady_clock::now() < deadline) {
      const std::uint64_t index = next_index.fetch_add(1);
      if (opt.qps > 0) {
        // Open-loop pacing: request i fires at t0 + i/qps, regardless
        // of how long earlier requests took.
        const auto fire =
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(
                         static_cast<double>(index) / opt.qps));
        if (fire >= deadline) break;
        std::this_thread::sleep_until(fire);
      }
      const std::uint64_t key =
          unique_keys == 0 ? key_base + index
                           : key_base + (index % unique_keys);
      const std::size_t mi = static_cast<std::size_t>(
          (unique_keys == 0 ? index : key) % models.size());
      serve::Request req;
      req.request_id = index;
      req.model = names[mi];
      req.bc = make_constraints(*models[mi], opt.seed, key);

      // One logical request, up to kAttempts tries: socket failures
      // reconnect, kShuttingDown/kOverloaded back off and resend — the
      // server's shed answers are flow control, not failures. Latency
      // is end-to-end (first send to final answer, backoff included).
      const auto sent = std::chrono::steady_clock::now();
      constexpr int kAttempts = 5;
      serve::Backoff backoff(rng, /*base_s=*/0.01, /*cap_s=*/0.5);
      serve::Response resp;
      bool answered = false;
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        if (attempt > 0) {
          g_response_retries.fetch_add(1);
          backoff.sleep_next();
        }
        if (fd < 0) {
          fd = connect_with_retry(opt, rng, /*attempts=*/2);
          if (fd < 0) continue;
        }
        try {
          resp = serve::call(fd, req);
        } catch (const std::exception&) {
          ::close(fd);  // e.g. the server drained this connection under us
          fd = -1;
          continue;
        }
        if (resp.status == serve::ResponseStatus::kShuttingDown ||
            resp.status == serve::ResponseStatus::kOverloaded)
          continue;
        answered = true;
        break;
      }
      if (!answered) {
        errors.fetch_add(1);
        continue;
      }
      per_thread_lat[tid].push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - sent)
              .count());
      done.fetch_add(1);

      if (resp.status != serve::ResponseStatus::kOk ||
          resp.request_id != req.request_id) {
        errors.fetch_add(1);
        continue;
      }
      if (resp.cache_hit) hits.fetch_add(1);
      if (verifier != nullptr) {
        try {
          verifier->evaluate(req.model, req.bc, expected, scratch);
        } catch (const std::exception&) {
          errors.fetch_add(1);
          continue;
        }
        if (!bit_identical(resp.snap, expected)) mismatches.fetch_add(1);
      }
    }
    if (fd >= 0) ::close(fd);
  };

  std::vector<std::thread> threads;
  threads.reserve(opt.threads);
  for (std::size_t t = 0; t < opt.threads; ++t)
    threads.emplace_back(client, t);
  for (std::thread& t : threads) t.join();

  PhaseResult res;
  res.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  res.requests = done.load();
  res.errors = errors.load();
  res.mismatches = mismatches.load();
  res.cache_hits = hits.load();
  for (const auto& lat : per_thread_lat)
    res.latencies_us.insert(res.latencies_us.end(), lat.begin(), lat.end());
  std::sort(res.latencies_us.begin(), res.latencies_us.end());
  return res;
}

void report_phase(bench::JsonReport& report, const char* impl,
                  PhaseResult& r) {
  const double qps =
      r.elapsed_s > 0 ? static_cast<double>(r.requests) / r.elapsed_s : 0.0;
  const double p50 = percentile(r.latencies_us, 0.50);
  const double p95 = percentile(r.latencies_us, 0.95);
  const double p99 = percentile(r.latencies_us, 0.99);
  std::printf("%-5s %8llu req in %6.2f s  (%8.1f qps)  p50 %8.1f us  p95 "
              "%8.1f us  p99 %8.1f us  %llu hit(s), %llu error(s), %llu "
              "mismatch(es)\n",
              impl, static_cast<unsigned long long>(r.requests),
              r.elapsed_s, qps, p50, p95, p99,
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.errors),
              static_cast<unsigned long long>(r.mismatches));
  report.add_row("all", impl,
                 {{"requests", static_cast<double>(r.requests)},
                  {"errors", static_cast<double>(r.errors)},
                  {"bit_mismatches", static_cast<double>(r.mismatches)},
                  {"cache_hits", static_cast<double>(r.cache_hits)},
                  {"elapsed_s", r.elapsed_s},
                  {"qps", qps},
                  {"latency_p50_us", p50},
                  {"latency_p95_us", p95},
                  {"latency_p99_us", p99}});
}

/// One-shot admin query on a fresh connection; empty text on failure.
std::string admin_text(const Options& opt, serve::RequestKind kind) {
  Rng rng(opt.seed ^ 0x5e10adull);
  const int fd = connect_with_retry(opt, rng);
  if (fd < 0) return {};
  std::string text;
  try {
    serve::Request req;
    req.request_id = 1;
    req.kind = kind;
    const serve::Response resp = serve::call(fd, req);
    if (resp.status == serve::ResponseStatus::kOk && resp.admin)
      text = resp.text;
  } catch (const std::exception&) {
    text.clear();
  }
  ::close(fd);
  return text;
}

/// Pull `key` out of the "10s" window of the "global" section of a
/// stats_json body. Anchor scan, not a JSON parser — the shape is
/// produced by ServeStats::stats_json and covered by its tests.
double stats_window_value(const std::string& json, const char* key) {
  const std::size_t g = json.find("\"global\"");
  if (g == std::string::npos) return -1.0;
  const std::size_t w = json.find("\"10s\"", g);
  if (w == std::string::npos) return -1.0;
  const std::size_t end = json.find('}', w);
  const std::string anchor = std::string("\"") + key + "\": ";
  const std::size_t k = json.find(anchor, w);
  if (k == std::string::npos || k > end) return -1.0;
  return std::strtod(json.c_str() + k + anchor.size(), nullptr);
}

/// Sample the server's windowed view right after a sweep: the last-10 s
/// window still holds the phase's traffic, so the server-side tail
/// (p99/p99.9) and cache hit-rate land in BENCH_serve.json next to the
/// client-side numbers. Returns false when the channel is unavailable.
bool report_stats_phase(bench::JsonReport& report, const char* impl,
                        const Options& opt) {
  const std::string json = admin_text(opt, serve::RequestKind::kStats);
  if (json.empty()) {
    std::fprintf(stderr,
                 "serve_loadgen: stats channel unavailable after %s phase\n",
                 impl);
    return false;
  }
  const double qps = stats_window_value(json, "qps");
  const double p50 = stats_window_value(json, "p50_us");
  const double p99 = stats_window_value(json, "p99_us");
  const double p999 = stats_window_value(json, "p999_us");
  const double hit_rate = stats_window_value(json, "cache_hit_rate");
  const double err_rate = stats_window_value(json, "error_rate");
  std::printf("stats %-5s window 10s: %8.1f qps  p50 %8.1f us  p99 %8.1f us  "
              "p99.9 %8.1f us  hit-rate %.3f  error-rate %.3f\n",
              impl, qps, p50, p99, p999, hit_rate, err_rate);
  report.add_row("stats", impl,
                 {{"window_qps", qps},
                  {"window_p50_us", p50},
                  {"window_p99_us", p99},
                  {"window_p999_us", p999},
                  {"window_cache_hit_rate", hit_rate},
                  {"window_error_rate", err_rate}});
  return true;
}

// ---------------------------------------------------------------------
// Soak harness (--soak): hold saturation for a fixed duration with a
// hot reload in the middle, proving the swap drops nothing.

struct SoakResult {
  std::uint64_t responses = 0;   ///< frames received and decoded
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;        ///< kOverloaded + kShuttingDown
  std::uint64_t errors = 0;      ///< socket failures + unexpected statuses
  std::uint64_t malformed = 0;   ///< undecodable frames / wrong request_id
  std::uint64_t mismatches = 0;  ///< ok responses not bit-identical
  double elapsed_s = 0.0;
  bool reload_ok = false;
  double reload_swap_us = -1.0;
  std::vector<double> latencies_us;
};

/// Fire one kReload on its own connection and pull ok + swap_us out of
/// the JSON answer (anchor scan; the shape is produced by the server's
/// kReload branch and covered by its tests).
void fire_reload(const Options& opt, SoakResult& out) {
  const std::string text = admin_text(opt, serve::RequestKind::kReload);
  out.reload_ok = text.find("\"ok\": true") != std::string::npos;
  const std::string anchor = "\"swap_us\": ";
  const std::size_t k = text.find(anchor);
  if (k != std::string::npos)
    out.reload_swap_us = std::strtod(text.c_str() + k + anchor.size(), nullptr);
}

/// Saturation soak: every client pipelines `burst` cold (unique-key)
/// requests per round and only then reads the answers, so the server
/// sees threads*burst outstanding frames — enough pressure for the
/// admission controller to shed. Shed answers are counted, not
/// retried: the soak measures the server under sustained overload, and
/// a retry loop would throttle the very pressure it is applying
/// (run_phase covers the retry path). At half-time a kReload fires on
/// its own connection; every ok answer must still be bit-identical.
SoakResult run_soak(const Options& opt, const serve::ModelRegistry& registry,
                    serve::Evaluator* verifier) {
  std::vector<const serve::RegistryEntry*> models;
  std::vector<std::string> names;
  for (const auto& [name, entry] : registry.entries()) {
    models.push_back(&entry);
    names.push_back(name);
  }

  std::atomic<std::uint64_t> next_index{0};
  std::atomic<std::uint64_t> responses{0}, ok{0}, shed{0}, errors{0},
      malformed{0}, mismatches{0};
  std::vector<std::vector<double>> per_thread_lat(opt.threads);
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(opt.soak_seconds));
  constexpr std::uint64_t kSoakKeyBase = 1ull << 24;  // disjoint from sweeps

  auto client = [&](std::size_t tid) {
    Rng rng(opt.seed ^ (tid * 0x9e3779b9ull) ^ 0x50a50aull);
    int fd = connect_with_retry(opt, rng);
    if (fd < 0) {
      errors.fetch_add(1);
      return;
    }
    serve::Evaluator::Scratch scratch;
    BoundarySnapshot expected;
    std::string frame;
    std::vector<serve::Request> burst(opt.burst);
    while (std::chrono::steady_clock::now() < deadline) {
      for (serve::Request& req : burst) {
        const std::uint64_t index = next_index.fetch_add(1);
        const std::size_t mi =
            static_cast<std::size_t>(index % models.size());
        req = serve::Request{};
        req.request_id = kSoakKeyBase + index;
        req.model = names[mi];
        req.bc = make_constraints(*models[mi], opt.seed, kSoakKeyBase + index);
      }
      const auto sent = std::chrono::steady_clock::now();
      try {
        // Write the whole burst before reading anything: the frames
        // queue server-side and the admission controller decides their
        // fate together.
        for (const serve::Request& req : burst)
          serve::write_frame(fd, serve::encode_request(req));
        for (std::size_t i = 0; i < burst.size(); ++i) {
          if (!serve::read_frame(fd, frame))
            throw std::runtime_error("connection closed mid-burst");
          per_thread_lat[tid].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - sent)
                  .count());
          serve::Response resp;
          try {
            resp = serve::decode_response(frame);
          } catch (const std::exception&) {
            malformed.fetch_add(1);
            continue;
          }
          responses.fetch_add(1);
          if (resp.request_id != burst[i].request_id) {
            // In-order per connection is a protocol guarantee; a wrong
            // id means the server tore a response.
            malformed.fetch_add(1);
            continue;
          }
          if (resp.status == serve::ResponseStatus::kOverloaded ||
              resp.status == serve::ResponseStatus::kShuttingDown) {
            shed.fetch_add(1);
            continue;
          }
          if (resp.status != serve::ResponseStatus::kOk) {
            errors.fetch_add(1);
            continue;
          }
          ok.fetch_add(1);
          if (verifier != nullptr) {
            try {
              verifier->evaluate(burst[i].model, burst[i].bc, expected,
                                 scratch);
            } catch (const std::exception&) {
              errors.fetch_add(1);
              continue;
            }
            if (!bit_identical(resp.snap, expected)) mismatches.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        errors.fetch_add(1);
        if (fd >= 0) ::close(fd);
        fd = connect_with_retry(opt, rng);
        if (fd < 0) return;
      }
    }
    if (fd >= 0) ::close(fd);
  };

  SoakResult res;
  std::thread reloader([&] {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(opt.soak_seconds / 2.0)));
    fire_reload(opt, res);
  });
  std::vector<std::thread> threads;
  threads.reserve(opt.threads);
  for (std::size_t t = 0; t < opt.threads; ++t)
    threads.emplace_back(client, t);
  for (std::thread& t : threads) t.join();
  reloader.join();

  res.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  res.responses = responses.load();
  res.ok = ok.load();
  res.shed = shed.load();
  res.errors = errors.load();
  res.malformed = malformed.load();
  res.mismatches = mismatches.load();
  for (const auto& lat : per_thread_lat)
    res.latencies_us.insert(res.latencies_us.end(), lat.begin(), lat.end());
  std::sort(res.latencies_us.begin(), res.latencies_us.end());
  return res;
}

void report_soak(bench::JsonReport& report, SoakResult& r) {
  const double qps =
      r.elapsed_s > 0 ? static_cast<double>(r.ok) / r.elapsed_s : 0.0;
  const double shed_rate =
      r.responses > 0
          ? static_cast<double>(r.shed) / static_cast<double>(r.responses)
          : 0.0;
  const double p50 = percentile(r.latencies_us, 0.50);
  const double p99 = percentile(r.latencies_us, 0.99);
  const double p999 = percentile(r.latencies_us, 0.999);
  std::printf(
      "soak  %8llu resp in %6.2f s  (%8.1f ok qps)  p50 %8.1f us  p99 "
      "%8.1f us  p99.9 %8.1f us  %llu shed (%.1f%%), %llu error(s), %llu "
      "malformed, %llu mismatch(es); reload %s swap %.0f us\n",
      static_cast<unsigned long long>(r.responses), r.elapsed_s, qps, p50,
      p99, p999, static_cast<unsigned long long>(r.shed), shed_rate * 100.0,
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.malformed),
      static_cast<unsigned long long>(r.mismatches),
      r.reload_ok ? "ok" : "FAILED", r.reload_swap_us);
  report.add_row("all", "soak",
                 {{"responses", static_cast<double>(r.responses)},
                  {"ok", static_cast<double>(r.ok)},
                  {"shed", static_cast<double>(r.shed)},
                  {"shed_rate", shed_rate},
                  {"errors", static_cast<double>(r.errors)},
                  {"malformed", static_cast<double>(r.malformed)},
                  {"bit_mismatches", static_cast<double>(r.mismatches)},
                  {"elapsed_s", r.elapsed_s},
                  {"qps", qps},
                  {"latency_p50_us", p50},
                  {"latency_p99_us", p99},
                  {"latency_p999_us", p999},
                  {"reload_ok", r.reload_ok ? 1.0 : 0.0},
                  {"reload_swap_us", r.reload_swap_us}});
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // A request written into a connection the server drained must surface
  // as EPIPE (a retry), not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    serve::ModelRegistry registry;
    registry.load_directory(opt.model_dir);
    if (registry.size() == 0) {
      std::fprintf(stderr, "serve_loadgen: no .tmb models in %s\n",
                   opt.model_dir.c_str());
      return 2;
    }

    // Local reference evaluator: same packed models, same engine, same
    // default options as the server — the offline evaluate path.
    serve::Evaluator::Options eopt;
    eopt.cache_capacity = opt.warm_keys * 4 * registry.size();
    serve::Evaluator verifier(registry, eopt);

    ::close(serve::connect_endpoint(opt.endpoint));  // probe: fail fast

    bench::JsonReport report("serve");
    report.set_meta("threads", static_cast<double>(opt.threads));
    report.set_meta("seconds_per_phase", opt.seconds);
    report.set_meta("target_qps", opt.qps);
    report.set_meta("warm_keys", static_cast<double>(opt.warm_keys));
    report.set_meta("models", static_cast<double>(registry.size()));
    report.set_meta("verify", opt.verify ? 1.0 : 0.0);

    if (opt.soak_seconds > 0.0) {
      // Soak replaces the sweeps: saturation hold + mid-run reload.
      report.set_meta("soak_seconds", opt.soak_seconds);
      report.set_meta("burst", static_cast<double>(opt.burst));
      SoakResult soak =
          run_soak(opt, registry, opt.verify ? &verifier : nullptr);
      report_soak(report, soak);
      report_stats_phase(report, "soak", opt);
      report.set_summary("total_errors", static_cast<double>(soak.errors));
      report.set_summary("total_bit_mismatches",
                         static_cast<double>(soak.mismatches));
      report.set_summary("malformed", static_cast<double>(soak.malformed));
      report.set_summary("shed", static_cast<double>(soak.shed));
      report.set_summary("reload_ok", soak.reload_ok ? 1.0 : 0.0);
      report.set_summary("reload_swap_us", soak.reload_swap_us);
      report.set_summary("connect_retries",
                         static_cast<double>(g_connect_retries.load()));
      report.set_summary("response_retries",
                         static_cast<double>(g_response_retries.load()));
      report.write();
      if (soak.errors != 0 || soak.mismatches != 0 || soak.malformed != 0 ||
          !soak.reload_ok) {
        std::fprintf(stderr,
                     "serve_loadgen: SOAK FAILED: %llu error(s), %llu bit "
                     "mismatch(es), %llu malformed, reload %s\n",
                     static_cast<unsigned long long>(soak.errors),
                     static_cast<unsigned long long>(soak.mismatches),
                     static_cast<unsigned long long>(soak.malformed),
                     soak.reload_ok ? "ok" : "failed");
        return 1;
      }
      std::printf("serve_loadgen: soak ok — mid-run reload swapped in "
                  "%.0f us, %llu shed, every ok answer%s\n",
                  soak.reload_swap_us,
                  static_cast<unsigned long long>(soak.shed),
                  opt.verify ? " bit-identical to local evaluation" : "");
      return 0;
    }

    // Cold sweep: unique constraints per request, key space disjoint
    // from the warm phase so nothing is pre-cached.
    PhaseResult cold = run_phase(opt, registry,
                                 opt.verify ? &verifier : nullptr,
                                 /*key_base=*/1u << 20, /*unique_keys=*/0);
    report_phase(report, "cold", cold);
    bool stats_ok = report_stats_phase(report, "cold", opt);

    // Warm sweep: cycle a small key set; after the first lap every
    // request should hit the server's result cache.
    PhaseResult warm = run_phase(opt, registry,
                                 opt.verify ? &verifier : nullptr,
                                 /*key_base=*/0, opt.warm_keys);
    report_phase(report, "warm", warm);
    stats_ok = report_stats_phase(report, "warm", opt) && stats_ok;
    report.set_summary("stats_sampled", stats_ok ? 1.0 : 0.0);

    const std::uint64_t errors = cold.errors + warm.errors;
    const std::uint64_t mismatches = cold.mismatches + warm.mismatches;
    report.set_summary("total_errors", static_cast<double>(errors));
    report.set_summary("total_bit_mismatches",
                       static_cast<double>(mismatches));
    report.set_summary("warm_cache_hits",
                       static_cast<double>(warm.cache_hits));
    report.set_summary("connect_retries",
                       static_cast<double>(g_connect_retries.load()));
    report.set_summary("response_retries",
                       static_cast<double>(g_response_retries.load()));
    report.write();

    if (errors != 0 || mismatches != 0) {
      std::fprintf(stderr,
                   "serve_loadgen: FAILED: %llu error(s), %llu bit "
                   "mismatch(es)\n",
                   static_cast<unsigned long long>(errors),
                   static_cast<unsigned long long>(mismatches));
      return 1;
    }
    std::printf("serve_loadgen: all responses ok%s\n",
                opt.verify ? " and bit-identical to local evaluation" : "");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_loadgen: %s\n", e.what());
    return 1;
  }
}
