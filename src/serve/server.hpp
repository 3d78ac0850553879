#pragma once
// `tmm serve`: thread-pool socket server answering boundary-timing
// queries over the length-prefixed protocol (serve/protocol.hpp).
//
// Architecture: one acceptor (the thread calling serve()) feeds
// accepted connections to N worker threads through a queue; a worker
// owns a connection until EOF. Per wakeup a worker drains up to
// batch_max already-queued frames from its connection (adaptive
// batching: one blocking read, then non-blocking drains), answers the
// whole batch, then writes all responses back in order.
//
// Shutdown: stop() is async-signal-safe (one write to a self-pipe);
// the acceptor stops accepting, workers finish and answer their
// current batch, connections are closed (clients observe EOF), and
// serve() returns — the graceful SIGTERM drain the CI smoke job
// asserts on.
//
// Failure policy: a malformed frame gets a kBadRequest response on the
// same connection; a socket-level failure (or an injected
// serve.write_response fault) aborts only that connection and is
// counted in serve.conn_aborts — the server keeps serving.
//
// Admission control: evaluate requests are admitted against a bounded
// in-flight budget at frame receipt — a request over the budget, or
// one whose projected queue wait (EWMA of recent evaluation times)
// already exceeds its deadline, is rejected immediately with
// kOverloaded instead of timing out after consuming an evaluator
// slot. Admin traffic is never shed.
//
// Hot-reload: a kReload admin request — or request_reload(), the CLI's
// SIGHUP hook — triggers the evaluator's RegistryManager::reload()
// (serve/reload.hpp) and the next evaluate on each worker re-pins the
// new generation. Over a fixed registry the reload fails and rolls
// back: the answer is ok:false with the load diagnostic. A reload
// runs on the worker answering the kReload frame (serialized by the
// manager), or on a dedicated thread for the signal path.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/evaluator.hpp"
#include "serve/stats.hpp"
#include "util/mutex.hpp"

namespace tmm::serve {

struct ServerOptions {
  /// Unix-domain socket path; preferred when non-empty.
  std::string unix_path;
  /// TCP port on 127.0.0.1 when unix_path is empty, 0..65535 (start()
  /// rejects more); 0 = ephemeral (query the bound port with
  /// bound_port()).
  int tcp_port = 0;
  int num_threads = 4;
  /// Max requests answered per worker wakeup (adaptive batching).
  int batch_max = 16;
  /// Slow-request log: evaluate requests slower than this (µs) are
  /// retained in the stats slow ring and sampled into log_warn;
  /// 0 disables (`tmm serve --slow-ms`).
  std::uint64_t slow_threshold_us = 0;
  /// log_warn every Nth slow request (`--slow-sample`).
  std::uint32_t slow_sample = 1;
  /// Per-thread flight-recorder ring capacity; 0 leaves the recorder
  /// untouched (`tmm serve --flight`).
  std::size_t flight_capacity = 256;
  /// Directory for automatic flight dumps (dump-on-fault, dump-on-
  /// connection-abort); empty disables both (`--dump-dir`).
  std::string dump_dir;
  /// In-flight evaluate budget for admission control; 0 derives
  /// num_threads * batch_max at start() (`--max-inflight`).
  std::size_t max_inflight = 0;
};

class Server {
 public:
  Server(Evaluator& evaluator, ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind and listen. Throws FlowError(kIo) when the address is
  /// unavailable, kConfig on nonsense options.
  void start();

  /// Accept and serve until stop(); returns after the graceful drain.
  void serve();

  /// Request shutdown. Async-signal-safe; callable from any thread or
  /// a signal handler, repeatedly.
  void stop() noexcept;

  /// Request a hot reload of the models directory. Async-signal-safe
  /// (the CLI's SIGHUP handler). The reload itself runs on the reload
  /// thread; over a fixed registry it fails and rolls back.
  void request_reload() noexcept;

  /// Port actually bound (TCP mode), valid after start().
  int bound_port() const noexcept { return bound_port_; }

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses_ok = 0;
    std::uint64_t request_errors = 0;  ///< non-ok responses sent
    std::uint64_t conn_aborts = 0;     ///< connections dropped on error
    std::uint64_t batches = 0;
    std::uint64_t shed_overload = 0;   ///< kOverloaded rejections
  };
  Stats stats() const noexcept;

  /// Windowed serving statistics (the kStats/kHealth backing store);
  /// non-null after start().
  const ServeStats* serve_stats() const noexcept { return stats_.get(); }

 private:
  void worker_main();
  void handle_connection(int fd, Evaluator::Scratch& scratch);
  /// -1 when stopping and the queue is empty.
  int pop_connection();
  void reload_main();
  /// The raw-JSON reload + admission sections spliced into stats_json.
  std::string stats_extra_json() const;

  Evaluator& eval_;
  ServerOptions opt_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int reload_pipe_[2] = {-1, -1};
  int bound_port_ = -1;
  std::size_t max_inflight_ = 0;  ///< resolved budget (>= 1)
  // Invariant: stopping_ is a latch only ever flipped false -> true;
  // every consumer tolerates reading it one iteration late (workers
  // re-check after the cv wakeup, the acceptor after poll), so all
  // accesses are relaxed — the queue mutex and the self-pipe provide
  // the actual synchronization.
  std::atomic<bool> stopping_{false};
  bool unlink_on_close_ = false;
  bool fire_hook_registered_ = false;
  std::unique_ptr<ServeStats> stats_;

  /// Lock class "serve.server.queue". Guards only the handoff queue;
  /// leaf lock (nothing else is acquired while holding it).
  util::Mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_ TMM_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  std::thread reload_thread_;

  // Invariant: inflight_ is a semaphore-style occupancy count; each
  // admitted request increments exactly once and decrements exactly
  // once (response written or connection abort). The admission check
  // tolerates reading a momentarily stale count, so relaxed suffices.
  std::atomic<std::uint64_t> inflight_{0};
  // Invariant: a racing EWMA store may drop an update — it is a
  // smoothed advisory estimate, never a correctness input.
  std::atomic<double> ewma_eval_us_{0.0};

  // Invariant: the stats counters are monotonic and independent — each
  // is a standalone event count read only after the fact (stats(),
  // serve() epilogue), so relaxed increments and loads suffice; no
  // other data is published through them.
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_ok_{0};
  std::atomic<std::uint64_t> request_errors_{0};
  std::atomic<std::uint64_t> conn_aborts_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
};

}  // namespace tmm::serve
