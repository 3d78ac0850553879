#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <sstream>

#include "fault/fault.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "util/errno_string.hpp"
#include "util/log.hpp"

namespace tmm::serve {

using fault::ErrorCode;
using fault::FlowError;

namespace {

const util::lockorder::LockClass kQueueLockClass("serve.server.queue");

constexpr double kBatchBounds[] = {1, 2, 4, 8, 16, 32, 64};

obs::Histogram& latency_hist() {
  // Log-spaced: tail percentiles (p99.9) of a long-tailed latency
  // distribution need geometric buckets; the old linear bounds
  // quantized everything past 1 ms into a handful of coarse cells.
  static const std::vector<double> bounds = default_latency_bounds();
  static obs::Histogram& h = obs::histogram("serve.latency_us", bounds);
  return h;
}
obs::Histogram& batch_hist() {
  static obs::Histogram& h = obs::histogram("serve.batch_size", kBatchBounds);
  return h;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw FlowError(ErrorCode::kIo, "serve.server",
                  what + ": " + util::errno_string(errno));
}

/// One decoded (or undecodable) request of a batch, stamped on receipt
/// so deadlines measure queueing + evaluation, not just evaluation.
struct Pending {
  Request req;
  std::chrono::steady_clock::time_point arrival;
  std::uint64_t arrival_us = 0;  ///< same instant on the trace clock
  double parse_us = 0.0;
  bool parse_failed = false;
  bool parse_injected = false;
  bool admitted = false;        ///< holds one in-flight budget slot
  bool shed_overload = false;   ///< rejected at admission
  std::string parse_error;
};

/// JSON string escaping for server-composed fragments (reload errors).
std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) noexcept {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

Server::Server(Evaluator& evaluator, ServerOptions opt)
    : eval_(evaluator), opt_(std::move(opt)), mu_(kQueueLockClass) {}

Server::~Server() {
  stop();
  // The dump-on-fault hook captures only the dump path, but clearing
  // it here keeps a dead server from writing dumps for later faults.
  if (fire_hook_registered_) fault::set_fire_hook({});
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  if (reload_thread_.joinable()) reload_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
  if (reload_pipe_[0] >= 0) ::close(reload_pipe_[0]);
  if (reload_pipe_[1] >= 0) ::close(reload_pipe_[1]);
  if (unlink_on_close_) ::unlink(opt_.unix_path.c_str());
  // Workers are joined, but lock anyway: the guarded-by contract has no
  // destructor exemption, and the lock is uncontended here.
  util::MutexLock lock(mu_);
  for (const int fd : pending_) ::close(fd);
}

void Server::start() {
  if (opt_.num_threads < 1)
    throw FlowError(ErrorCode::kConfig, "serve.server",
                    "--threads must be >= 1");
  if (opt_.batch_max < 1)
    throw FlowError(ErrorCode::kConfig, "serve.server",
                    "--batch must be >= 1");
  if (opt_.unix_path.empty() && opt_.tcp_port < 0)
    throw FlowError(ErrorCode::kConfig, "serve.server",
                    "either a unix socket path or a TCP port is required");
  if (opt_.tcp_port > 65535)
    throw FlowError(ErrorCode::kConfig, "serve.server",
                    "--port must be in 0..65535, got " +
                        std::to_string(opt_.tcp_port));

  // Resolved admission budget: enough slots to keep every worker's
  // batch full, never fewer than one.
  max_inflight_ = opt_.max_inflight != 0
                      ? opt_.max_inflight
                      : static_cast<std::size_t>(opt_.num_threads) *
                            static_cast<std::size_t>(opt_.batch_max);
  if (max_inflight_ == 0) max_inflight_ = 1;

  // Telemetry before the socket exists: the admin channel must be able
  // to answer kStats/kHealth from the very first connection. The model
  // list is the startup generation's; models introduced by a later
  // reload aggregate into the global section only.
  {
    const std::shared_ptr<const ModelRegistry> reg = eval_.manager().current();
    std::vector<std::string> models;
    models.reserve(reg->entries().size());
    for (const auto& [name, entry] : reg->entries())
      models.push_back(name);
    ServeStats::Options sopt;
    sopt.slow_threshold_us = opt_.slow_threshold_us;
    sopt.slow_sample = opt_.slow_sample;
    stats_ = std::make_unique<ServeStats>(std::move(models),
                                          obs::trace_now_us(), sopt);
  }
  if (opt_.flight_capacity > 0)
    obs::set_flight_recorder_enabled(true, opt_.flight_capacity);
  if (!opt_.dump_dir.empty()) {
    // Dump-on-fault: when any serve.* injection site fires, freeze the
    // last-N-requests picture next to the failure. The hook runs with
    // no fault-layer locks held and must never throw.
    const std::string dir = opt_.dump_dir;
    fault::set_fire_hook([dir](const char* site) {
      const std::string_view sv(site);
      if (!sv.starts_with("serve.")) return;
      std::string name(sv);
      for (char& c : name)
        if (c == '.') c = '_';
      obs::write_flight_dump_file(dir + "/flight." + name + ".json");
    });
    fire_hook_registered_ = true;
  }

  if (::pipe(stop_pipe_) != 0) throw_errno("cannot create stop pipe");
  if (::pipe(reload_pipe_) != 0) throw_errno("cannot create reload pipe");
  // A response written into a connection the client already closed
  // must surface as EPIPE (handled per connection), not kill the
  // process.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): process-wide disposition,
  // set once in start() before any worker thread exists.
  ::signal(SIGPIPE, SIG_IGN);

  if (!opt_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.unix_path.size() >= sizeof(addr.sun_path))
      throw FlowError(ErrorCode::kConfig, "serve.server",
                      "unix socket path too long: " + opt_.unix_path);
    std::strncpy(addr.sun_path, opt_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("cannot create unix socket");
    ::unlink(opt_.unix_path.c_str());  // stale socket from a dead server
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw_errno("cannot bind " + opt_.unix_path);
    unlink_on_close_ = true;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("cannot create TCP socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw_errno("cannot bind 127.0.0.1:" + std::to_string(opt_.tcp_port));
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0)
      bound_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) throw_errno("cannot listen");
}

void Server::stop() noexcept {
  // Only async-signal-safe operations here: stop() is called from the
  // CLI's SIGTERM handler. The acceptor wakes on the pipe and does the
  // non-AS-safe part (cv notify, joins) in serve()'s epilogue.
  // Relaxed: the exchange is only an idempotency latch (first caller
  // writes the pipe); ordering comes from the self-pipe write itself.
  if (stopping_.exchange(true, std::memory_order_relaxed)) return;
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::request_reload() noexcept {
  // AS-safe (the CLI's SIGHUP handler): one pipe write; the reload
  // thread consumes the byte and runs the actual reload.
  if (reload_pipe_[1] >= 0) {
    const char byte = 'r';
    [[maybe_unused]] const ssize_t n = ::write(reload_pipe_[1], &byte, 1);
  }
}

void Server::reload_main() {
  // Waits on the reload pipe; the stop byte is never consumed, so its
  // level-triggered POLLIN also wakes this thread for shutdown.
  pollfd fds[2] = {{reload_pipe_[0], POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
  while (!stopping_.load(std::memory_order_relaxed)) {
    fds[0].revents = fds[1].revents = 0;
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    char byte = 0;
    if (::read(reload_pipe_[0], &byte, 1) <= 0) return;
    eval_.manager().reload();
  }
}

std::string Server::stats_extra_json() const {
  const RegistryManager::Counters c = eval_.manager().counters();
  std::string out =
      "\"reload\": {\"generation\": " + std::to_string(c.generation);
  out += ", \"reloads_ok\": " + std::to_string(c.reloads_ok);
  out += ", \"reload_failures\": " + std::to_string(c.reload_failures);
  out += ", \"last_swap_us\": " + std::to_string(c.last_swap_us);
  out += ", \"last_error\": " + json_escaped(c.last_error);
  out += "},\n  ";
  out += "\"admission\": {\"max_inflight\": " + std::to_string(max_inflight_);
  out += ", \"inflight\": " +
         std::to_string(inflight_.load(std::memory_order_relaxed));
  out += ", \"shed_overload\": " +
         std::to_string(shed_overload_.load(std::memory_order_relaxed));
  std::ostringstream ewma;
  ewma << ewma_eval_us_.load(std::memory_order_relaxed);
  out += ", \"ewma_eval_us\": " + ewma.str();
  out += "}";
  return out;
}

int Server::pop_connection() {
  util::MutexUniqueLock lock(mu_);
  // Explicit wait loop (not the predicate overload) so every access to
  // pending_ is lexically under the scoped capability.
  while (pending_.empty() && !stopping_.load(std::memory_order_relaxed))
    cv_.wait(lock.native());
  if (pending_.empty()) return -1;
  const int fd = pending_.front();
  pending_.pop_front();
  return fd;
}

void Server::serve() {
  static obs::Counter& g_conns = obs::counter("serve.connections");
  const auto t0 = std::chrono::steady_clock::now();

  workers_.reserve(static_cast<std::size_t>(opt_.num_threads));
  for (int i = 0; i < opt_.num_threads; ++i)
    workers_.emplace_back([this] { worker_main(); });
  reload_thread_ = std::thread([this] { reload_main(); });

  pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    g_conns.add();
    {
      util::MutexLock lock(mu_);
      pending_.push_back(conn);
    }
    cv_.notify_one();
  }

  stop();
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  if (reload_thread_.joinable()) reload_thread_.join();
  // Connections the workers never picked up: close without answering
  // (the client observes EOF, the protocol's retry signal).
  {
    util::MutexLock lock(mu_);
    for (const int fd : pending_) ::close(fd);
    pending_.clear();
  }

  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  static obs::Gauge& g_qps = obs::gauge("serve.qps");
  if (secs > 0)
    g_qps.set(static_cast<double>(
                  requests_.load(std::memory_order_relaxed)) /
              secs);
  static obs::Gauge& g_hit_rate = obs::gauge("serve.cache_hit_rate");
  g_hit_rate.set(eval_.cache_stats().hit_rate());
}

void Server::worker_main() {
  Evaluator::Scratch scratch;
  while (true) {
    const int fd = pop_connection();
    if (fd < 0) return;
    handle_connection(fd, scratch);
    ::close(fd);
  }
}

void Server::handle_connection(int fd, Evaluator::Scratch& scratch) {
  static obs::Counter& g_requests = obs::counter("serve.requests");
  static obs::Counter& g_ok = obs::counter("serve.responses_ok");
  static obs::Counter& g_errors = obs::counter("serve.request_errors");
  static obs::Counter& g_hits = obs::counter("serve.cache_hits");
  static obs::Counter& g_misses = obs::counter("serve.cache_misses");
  static obs::Counter& g_aborts = obs::counter("serve.conn_aborts");
  static obs::Counter& g_batches = obs::counter("serve.batches");
  static obs::Counter& g_deadline = obs::counter("serve.deadline_exceeded");
  static obs::Counter& g_admin = obs::counter("serve.admin_requests");
  static obs::Counter& g_overload = obs::counter("serve.shed_overload");

  std::string frame;
  std::vector<Pending> batch;
  bool eof = false;

  auto receive = [&]() -> bool {  // false on EOF
    if (!read_frame(fd, frame)) return false;
    Pending p;
    p.arrival = std::chrono::steady_clock::now();
    p.arrival_us = obs::trace_now_us();
    try {
      p.req = decode_request(frame);
    } catch (const FlowError& e) {
      // A malformed payload is frame-local — framing stays in sync, so
      // answer kBadRequest and keep the connection.
      p.parse_failed = true;
      p.parse_injected = e.code() == ErrorCode::kInjected;
      p.parse_error = e.what();
    }
    // Admission control, decided at receipt so an over-budget request
    // is rejected before it queues behind a full batch. The slot is
    // held until the response is written (or the connection aborts).
    if (!p.parse_failed && p.req.kind == RequestKind::kEvaluate) {
      const std::uint64_t in =
          inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
      p.admitted = true;
      bool reject = in > max_inflight_;
      if (!reject && p.req.deadline_ms > 0) {
        // Deadline-aware admission: with `in` requests ahead of
        // num_threads workers, the projected queue wait is the EWMA of
        // recent evaluation times scaled by the backlog depth; a
        // request that cannot make its deadline is shed now instead of
        // timing out after consuming an evaluator slot.
        const double ewma = ewma_eval_us_.load(std::memory_order_relaxed);
        const auto workers = static_cast<std::uint64_t>(opt_.num_threads);
        if (ewma > 0.0 && in > workers) {
          const double wait_us = static_cast<double>(in - workers) * ewma /
                                 static_cast<double>(workers);
          if (wait_us / 1000.0 >= static_cast<double>(p.req.deadline_ms))
            reject = true;
        }
      }
      if (reject) {
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        p.admitted = false;
        p.shed_overload = true;
      }
    }
    p.parse_us = us_between(p.arrival, std::chrono::steady_clock::now());
    batch.push_back(std::move(p));
    return true;
  };

  // A connection abort mid-batch must not leak budget slots.
  auto release_admitted = [&]() {
    for (Pending& p : batch) {
      if (!p.admitted) continue;
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      p.admitted = false;
    }
  };

  try {
    while (!eof) {
      // Blocking wait for the first frame, in 100 ms slices so a drain
      // request is observed even on an idle connection.
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 100);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll failed");
      }
      if (stopping_.load(std::memory_order_relaxed) && rc == 0) return;
      if (rc == 0) continue;
      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return;

      batch.clear();
      if (!receive()) return;
      // Adaptive drain: answer every frame already queued on the
      // socket (up to batch_max) in one wakeup, amortizing the
      // response writes.
      while (batch.size() < static_cast<std::size_t>(opt_.batch_max)) {
        pollfd more{fd, POLLIN, 0};
        if (::poll(&more, 1, 0) <= 0 || (more.revents & POLLIN) == 0) break;
        if (!receive()) {
          eof = true;
          break;
        }
      }

      batches_.fetch_add(1, std::memory_order_relaxed);
      g_batches.add();
      batch_hist().observe(static_cast<double>(batch.size()));

      for (Pending& p : batch) {
        Response resp;
        resp.request_id = p.req.request_id;
        const bool is_admin =
            !p.parse_failed && p.req.kind != RequestKind::kEvaluate;
        ShedKind shed = ShedKind::kNone;
        double stage_cache_us = 0.0;
        double stage_eval_us = 0.0;
        if (p.parse_failed) {
          resp.status = p.parse_injected ? ResponseStatus::kInternalError
                                         : ResponseStatus::kBadRequest;
          resp.error = p.parse_error;
        } else if (is_admin) {
          // Admin introspection: answered right here from pre-
          // aggregated state — no STA, no result cache, no interaction
          // with the evaluation hot path beyond this worker's turn in
          // the batch. Health still answers while draining (that IS
          // the signal). kReload runs the whole load + validate + swap
          // on this worker — serialized by the manager, and every
          // other worker keeps answering from its pinned generation
          // meanwhile.
          resp.admin = true;
          const std::uint64_t now_us = obs::trace_now_us();
          if (p.req.kind == RequestKind::kStats) {
            resp.text = stats_->stats_json(now_us, stats_extra_json());
          } else if (p.req.kind == RequestKind::kHealth) {
            const std::shared_ptr<const ModelRegistry> reg =
                eval_.manager().current();
            const RegistryManager::Counters rc = eval_.manager().counters();
            resp.text = stats_->health_json(
                now_us, stopping_.load(std::memory_order_relaxed),
                reg->entries().size(), reg->failures().size(), rc.generation,
                rc.reloads_ok, rc.reload_failures);
          } else if (p.req.kind == RequestKind::kReload) {
            RegistryManager& mgr = eval_.manager();
            const ReloadResult r = mgr.reload();
            std::string text = "{\"ok\": ";
            text += r.ok ? "true" : "false";
            text += ", \"generation\": " + std::to_string(r.generation);
            text += ", \"models_loaded\": " + std::to_string(r.models_loaded);
            text += ", \"load_failures\": " + std::to_string(r.load_failures);
            std::ostringstream us;
            us << ", \"reload_us\": " << r.reload_us << ", \"swap_us\": "
               << r.swap_us;
            text += us.str();
            const RegistryManager::Counters c = mgr.counters();
            text += ", \"reloads_ok\": " + std::to_string(c.reloads_ok);
            text += ", \"reload_failures\": " + std::to_string(c.reload_failures);
            text += ", \"error\": " + json_escaped(r.error);
            text += "}\n";
            resp.text = std::move(text);
          } else {  // kFlightDump
            std::ostringstream os;
            obs::write_flight_dump_json(os);
            resp.text = os.str();
          }
          g_admin.add();
        } else if (stopping_.load(std::memory_order_relaxed)) {
          resp.status = ResponseStatus::kShuttingDown;
          resp.error = "server is draining";
          shed = ShedKind::kDraining;
        } else if (p.shed_overload) {
          resp.status = ResponseStatus::kOverloaded;
          resp.error = "overloaded: in-flight budget of " +
                       std::to_string(max_inflight_) +
                       " exhausted or projected wait exceeds deadline";
          shed = ShedKind::kOverload;
          shed_overload_.fetch_add(1, std::memory_order_relaxed);
          g_overload.add();
        } else if (p.req.deadline_ms > 0 &&
                   std::chrono::steady_clock::now() - p.arrival >=
                       std::chrono::milliseconds(p.req.deadline_ms)) {
          resp.status = ResponseStatus::kDeadlineExceeded;
          resp.error = "deadline of " + std::to_string(p.req.deadline_ms) +
                       " ms elapsed before evaluation";
          shed = ShedKind::kDeadline;
          g_deadline.add();
        } else {
          const auto t_eval0 = std::chrono::steady_clock::now();
          try {
            const Evaluator::Result r = eval_.evaluate(
                p.req.model, p.req.bc, resp.snap, scratch, p.req.no_cache);
            resp.cache_hit = r.cache_hit;
            (r.cache_hit ? g_hits : g_misses).add();
          } catch (const FlowError& e) {
            resp.status = e.code() == ErrorCode::kUnavailable
                              ? ResponseStatus::kUnknownModel
                          : e.code() == ErrorCode::kConfig
                              ? ResponseStatus::kBadRequest
                              : ResponseStatus::kInternalError;
            resp.error = e.what();
          } catch (const std::exception& e) {
            resp.status = ResponseStatus::kInternalError;
            resp.error = e.what();
          }
          const double spent =
              us_between(t_eval0, std::chrono::steady_clock::now());
          // A cache hit spent its time in the lookup; a miss in STA.
          (resp.cache_hit ? stage_cache_us : stage_eval_us) = spent;
          // Feed the admission estimator. A dropped racing store only
          // delays smoothing by one sample.
          const double prev = ewma_eval_us_.load(std::memory_order_relaxed);
          ewma_eval_us_.store(prev == 0.0 ? spent : prev * 0.9 + spent * 0.1,
                              std::memory_order_relaxed);
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
        g_requests.add();
        if (resp.status == ResponseStatus::kOk) {
          responses_ok_.fetch_add(1, std::memory_order_relaxed);
          g_ok.add();
        } else {
          request_errors_.fetch_add(1, std::memory_order_relaxed);
          g_errors.add();
        }
        fault::inject("serve.write_response");
        const auto t_write0 = std::chrono::steady_clock::now();
        write_frame(fd, encode_response(resp));
        if (p.admitted) {
          inflight_.fetch_sub(1, std::memory_order_relaxed);
          p.admitted = false;
        }
        const auto t_done = std::chrono::steady_clock::now();
        const double write_us = us_between(t_write0, t_done);
        const double total_us = us_between(p.arrival, t_done);
        // One logical "now" for every structure this request touches:
        // arrival on the trace clock plus the measured duration.
        const std::uint64_t now_us =
            p.arrival_us + static_cast<std::uint64_t>(total_us);
        const bool has_deadline = !p.parse_failed && p.req.deadline_ms > 0;
        const double slack_ms =
            static_cast<double>(p.req.deadline_ms) - total_us / 1000.0;
        if (!is_admin) {
          latency_hist().observe(total_us);
          if (stats_) {
            RequestTimings t;
            t.parse_us = p.parse_us;
            t.cache_us = stage_cache_us;
            t.eval_us = stage_eval_us;
            t.write_us = write_us;
            t.total_us = total_us;
            t.has_deadline = has_deadline;
            if (has_deadline) t.deadline_slack_ms = slack_ms;
            stats_->record(now_us, p.req.model, resp.status, resp.cache_hit,
                           shed, t, p.req.request_id);
          }
        }
        obs::FlightRecord rec;
        rec.request_id = p.req.request_id;
        rec.ts_us = p.arrival_us;
        rec.set_model(p.req.model.c_str());
        rec.set_status(response_status_name(resp.status));
        rec.kind = static_cast<std::uint16_t>(p.req.kind);
        rec.flags = static_cast<std::uint16_t>(
            (resp.cache_hit ? obs::kFlightCacheHit : 0u) |
            (has_deadline ? obs::kFlightHasDeadline : 0u) |
            (shed == ShedKind::kOverload ? obs::kFlightShedOverload : 0u) |
            (shed == ShedKind::kDraining ? obs::kFlightShedDraining : 0u));
        if (has_deadline) rec.deadline_slack_ms = static_cast<float>(slack_ms);
        rec.parse_us = static_cast<float>(p.parse_us);
        rec.cache_us = static_cast<float>(stage_cache_us);
        rec.eval_us = static_cast<float>(stage_eval_us);
        rec.write_us = static_cast<float>(write_us);
        rec.total_us = static_cast<float>(total_us);
        obs::flight_record(rec);
      }
      if (stopping_.load(std::memory_order_relaxed)) return;
    }
  } catch (const std::exception& e) {
    // Socket-level failure (peer vanished mid-response, injected
    // serve.write_response fault): drop this connection, keep serving.
    release_admitted();
    conn_aborts_.fetch_add(1, std::memory_order_relaxed);
    g_aborts.add();
    log_error("serve: connection aborted: %s", e.what());
    // Freeze the black box next to the failure: the last N requests
    // (all threads) as of the abort, best-effort.
    if (!opt_.dump_dir.empty())
      obs::write_flight_dump_file(opt_.dump_dir + "/flight.conn_abort.json");
  }
}

Server::Stats Server::stats() const noexcept {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  s.request_errors = request_errors_.load(std::memory_order_relaxed);
  s.conn_aborts = conn_aborts_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace tmm::serve
