#pragma once
// The benchmark's own serving harness: an in-process tmm::serve::Server
// behind a RegistryManager on a unix socket, and an open-loop load
// generator that times every request from its due send time.
//
// Threads: the server runs one worker; the generator runs 2 client
// threads (the caller sends, one thread receives) on one connection.
// The server's acceptor and reload threads only wait. At most two
// threads are busy at once, which keeps the run clear of the CPU
// throttling a shared host applies to a fully busy 4-vCPU guest. Frames
// use serve/protocol's encode/decode and read_frame/write_frame.
//
// The request stream comes from the seed: the model is drawn uniformly;
// with probability `hit_share` the constraint set is one of `hot_sets`
// per model (cache hits once warm), otherwise it is fresh (a miss).
// Responses are hashed while timing runs and checked afterwards against
// a local cache-bypassing Evaluator.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/evaluator.hpp"
#include "serve/protocol.hpp"
#include "serve/reload.hpp"
#include "serve/server.hpp"

namespace pb {

struct ServeParams {
  double hit_share = 0.3;
  std::size_t hot_sets = 16;      ///< per model
  double ref_qps = 250.0;         ///< reference rate for p50/p99
  /// SLO latency limit. It sits above the scheduling stalls of a shared
  /// 4-vCPU virtual machine (up to ~30 ms for busy threads), so that the
  /// ladder finds the program's capacity rather than the host's pauses.
  double limit_p99_us = 50000.0;
  /// Backlog growth test: a rung fails when its last quarter's median
  /// latency exceeds twice its first quarter's plus this slack.
  double growth_slack_us = 5000.0;
  double ladder_lo_qps = 250.0;   ///< rung k offers lo * step^k
  double ladder_step = 1.05;
  std::size_t ladder_rungs = 120;
  /// A rung lasts rung_seconds, but sends at least min(rung_min, one
  /// second's worth) and at most rung_max requests.
  double rung_seconds = 0.4;
  std::size_t rung_min = 1000, rung_max = 8000;
  std::size_t burst_requests = 1500;
  std::size_t burst_window = 32;  ///< outstanding requests in a burst
  /// Server options as `tmm serve` defaults them, except one worker.
  /// The admission budget is left at its default (threads x batch_max).
  /// One worker owns the one connection and reads at most batch_max
  /// frames before answering them, so admitted requests never exceed the
  /// budget: every request passes the admission check, none is shed, and
  /// a shed would count as a failed request.
  int server_threads = 1;
  int batch_max = 16;
  std::size_t cache_capacity = 4096;

  double rung_qps(std::size_t k) const;
};

/// Latency summary of one open-loop phase.
struct PhaseResult {
  std::size_t sent = 0;
  std::size_t failed = 0;          ///< non-ok or unanswered
  std::vector<double> latency_us;  ///< from due time, ok responses
  std::vector<double> rtt_hit_us, rtt_miss_us;  ///< from actual send
  std::vector<double> late_us;     ///< send time minus due time
  bool aborted = false;            ///< backlog cap hit, rung cut short
};

class ServeHarness {
 public:
  /// Loads every .tmb in `model_dir` and starts serving on `socket`.
  ServeHarness(const std::string& model_dir, const std::string& socket,
               std::uint64_t seed, ServeParams params);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  double registry_load_s() const { return registry_load_s_; }
  const ServeParams& params() const { return p_; }

  /// Requests every hot set of every model once (closed loop).
  void warm();
  /// Sends `n` requests on an open-loop schedule at `qps`. With
  /// `abort_on_backlog` the phase stops sending once the outstanding
  /// count shows the server cannot keep up.
  PhaseResult open_loop(double qps, std::size_t n, bool abort_on_backlog);
  /// Sends `n` requests as fast as a window of outstanding requests
  /// allows; returns the wall time until the last response.
  double burst(std::size_t n, bool traced);
  /// True if the rung at `qps` meets the latency limit without a
  /// growing backlog.
  bool rung_passes(double qps);
  /// Highest passing rung of the fixed ladder (binary search, assuming
  /// a slower rate never fails where a faster one passes).
  double slo_qps();

  struct Totals {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;  ///< non-ok, unanswered or mismatched
    std::uint64_t hits = 0;
    std::uint64_t answered = 0;
  };
  /// FNV-1a of the first `n` requests (model and constraint values) of
  /// the first drawn phase: as sent, and as the stream of `seed` would
  /// draw them. The two agree for this harness's seed.
  std::uint64_t sent_fingerprint(std::size_t n) const;
  std::uint64_t stream_fingerprint(std::uint64_t seed, std::size_t n) const;

  /// Checks every stored response hash against a local cache-bypassing
  /// Evaluator (using `threads` threads). Call after timing ends.
  Totals verify(int threads);

  tmm::serve::Server::Stats server_stats() const { return server_->stats(); }
  tmm::serve::CacheStats cache_stats() const { return eval_->cache_stats(); }

  /// In-process probes after the window: Evaluator miss/hit cost, codec
  /// cost and serial Sta ns per node on the served macro graphs.
  struct Probe {
    double eval_miss_us = 0.0;
    double eval_hit_us = 0.0;
    double codec_us = 0.0;
    double macro_ns_per_node = 0.0;
  };
  Probe probe();

 private:
  /// One request. Zero-initialised storage; the sender fills the
  /// first group, the receiver the second.
  struct Rec {
    double due, sent;
    std::uint32_t model;
    std::uint64_t key;
    double recv;
    std::uint64_t hash;
    std::uint16_t status;
    bool hit, answered;
  };
  using Pairs = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  tmm::BoundaryConstraints constraints(std::uint64_t seed, std::uint32_t model,
                                       std::uint64_t key) const;
  /// Phase `phase`'s `n` (model, key) pairs of the stream of `seed`;
  /// fresh keys count up from `fresh`.
  Pairs draw_pairs(std::uint64_t seed, std::uint64_t phase, std::size_t n,
                   std::uint64_t fresh) const;
  /// The next phase's `n` pairs of this harness's stream.
  Pairs draw(std::size_t n);
  std::uint64_t fingerprint(std::uint64_t seed, const Pairs& pairs) const;
  std::string encode(std::uint64_t id, std::uint32_t model,
                     std::uint64_t key) const;
  void receive_main();
  void wait_answered(std::uint64_t upto, double timeout_s);
  PhaseResult summarize(std::uint64_t first, std::uint64_t n) const;
  double run_closed(const Pairs& pairs, bool traced);

  ServeParams p_;
  std::uint64_t seed_;
  std::string socket_;
  std::unique_ptr<tmm::serve::RegistryManager> manager_;
  std::unique_ptr<tmm::serve::Evaluator> eval_;
  std::unique_ptr<tmm::serve::Server> server_;
  std::thread serve_thread_;
  std::thread recv_thread_;
  std::vector<int> fds_;
  std::vector<std::string> names_;
  std::vector<std::uint32_t> pis_, pos_;
  Rec* recs_ = nullptr;  ///< kMaxRequests records, calloc'd
  std::uint64_t next_id_ = 0;
  std::uint64_t next_fresh_ = 0;
  std::uint64_t phase_ = 0;
  std::uint64_t first_drawn_id_ = 0;  ///< first request of phase 0
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<bool> stop_{false};
  double registry_load_s_ = 0.0;
};

}  // namespace pb
