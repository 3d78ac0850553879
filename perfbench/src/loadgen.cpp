#include "loadgen.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>

#include "common.hpp"
#include "pipeline.hpp"
#include "spans.hpp"
#include "sta/constraints.hpp"
#include "util/rng.hpp"

namespace pb {

using namespace tmm;

namespace {

constexpr std::uint64_t kMaxRequests = 1u << 20;

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::usleep(5000);  // the server thread may still be binding
  }
  ::close(fd);
  throw std::runtime_error("cannot connect to " + path);
}

std::uint64_t snapshot_hash(const BoundarySnapshot& s) {
  std::uint64_t h = fnv1a(&s.num_ports, sizeof s.num_ports);
  for (const auto* v : {&s.slew, &s.at, &s.rat, &s.slack})
    h = fnv1a(v->data(), v->size() * sizeof(double), h);
  return h;
}

/// Sleeps until steady-clock time `t` (seconds). No spinning: the
/// wake-up delay is the generator's lateness, which every latency
/// includes and the report shows.
void wait_until(double t) {
  if (t <= now_s()) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double p99(std::vector<double> v) { return quantile(std::move(v), 0.99); }

}  // namespace

double ServeParams::rung_qps(std::size_t k) const {
  return ladder_lo_qps * std::pow(ladder_step, static_cast<double>(k));
}

ServeHarness::ServeHarness(const std::string& model_dir,
                           const std::string& socket, std::uint64_t seed,
                           ServeParams params)
    : p_(params), seed_(seed), socket_(socket) {
  // The sending thread wakes at each due time; the default 50 us timer
  // slack would be most of a hit's round trip.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  recs_ = static_cast<Rec*>(std::calloc(kMaxRequests, sizeof(Rec)));
  if (recs_ == nullptr) throw std::bad_alloc();
  next_fresh_ = p_.hot_sets;
  manager_ = std::make_unique<serve::RegistryManager>(model_dir);
  const double t0 = now_s();
  manager_->load_initial();
  registry_load_s_ = now_s() - t0;
  for (const auto& [name, entry] : manager_->current()->entries()) {
    names_.push_back(name);
    pis_.push_back(entry.num_pis);
    pos_.push_back(entry.num_pos);
  }
  if (names_.empty()) throw std::runtime_error("no models to serve");
  serve::Evaluator::Options eopt;
  eopt.cache_capacity = p_.cache_capacity;
  eopt.sta.cppr = true;
  eopt.sta.threads = 1;
  eval_ = std::make_unique<serve::Evaluator>(*manager_, eopt);
  serve::ServerOptions sopt;
  sopt.unix_path = socket_;
  sopt.num_threads = p_.server_threads;
  sopt.batch_max = p_.batch_max;
  server_ = std::make_unique<serve::Server>(*eval_, sopt);
  server_->start();
  serve_thread_ = std::thread([this] { server_->serve(); });
  for (int i = 0; i < p_.server_threads; ++i)
    fds_.push_back(connect_unix(socket_));
  recv_thread_ = std::thread([this] { receive_main(); });
}

ServeHarness::~ServeHarness() {
  stop_.store(true, std::memory_order_relaxed);
  if (recv_thread_.joinable()) recv_thread_.join();
  for (int fd : fds_) ::close(fd);
  server_->stop();
  if (serve_thread_.joinable()) serve_thread_.join();
  std::free(recs_);
}

void ServeHarness::receive_main() {
  std::vector<pollfd> pfds;
  for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
  std::string buf;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
    for (pollfd& p : pfds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      try {
        if (!serve::read_frame(p.fd, buf)) {
          p.fd = -1;  // server closed the connection
          continue;
        }
        const double t = now_s();
        const serve::Response r = serve::decode_response(buf);
        if (r.request_id >= kMaxRequests) continue;
        Rec& rec = recs_[r.request_id];
        rec.recv = t;
        rec.status = static_cast<std::uint16_t>(r.status);
        rec.hit = r.cache_hit;
        if (r.status == serve::ResponseStatus::kOk)
          rec.hash = snapshot_hash(r.snap);
        rec.answered = true;
        answered_.fetch_add(1, std::memory_order_release);
        answered_.notify_one();
      } catch (const std::exception&) {
        p.fd = -1;  // unreadable connection: its requests stay unanswered
      }
    }
  }
}

BoundaryConstraints ServeHarness::constraints(std::uint64_t seed,
                                              std::uint32_t model,
                                              std::uint64_t key) const {
  Rng rng(mix(mix(seed, 0xc0457 + model), key));
  return random_constraints(pis_[model], pos_[model], {}, rng);
}

ServeHarness::Pairs ServeHarness::draw_pairs(std::uint64_t seed,
                                             std::uint64_t phase,
                                             std::size_t n,
                                             std::uint64_t fresh) const {
  Rng rng(mix(seed, 0x57ea0000 + phase));
  Pairs out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto model = static_cast<std::uint32_t>(rng.below(names_.size()));
    const bool hot = rng.uniform() < p_.hit_share;
    const std::uint64_t key = hot ? rng.below(p_.hot_sets) : fresh++;
    out.emplace_back(model, key);
  }
  return out;
}

ServeHarness::Pairs ServeHarness::draw(std::size_t n) {
  if (phase_ == 0) first_drawn_id_ = next_id_;
  Pairs out = draw_pairs(seed_, phase_++, n, next_fresh_);
  for (const auto& [model, key] : out)
    if (key >= p_.hot_sets) next_fresh_ = std::max(next_fresh_, key + 1);
  return out;
}

std::uint64_t ServeHarness::fingerprint(std::uint64_t seed,
                                        const Pairs& pairs) const {
  std::uint64_t h = fnv1a(std::string());
  serve::Request req;
  for (const auto& [model, key] : pairs) {
    req.model = names_[model];
    req.bc = constraints(seed, model, key);
    h = fnv1a(serve::encode_request(req), h);
  }
  return h;
}

std::uint64_t ServeHarness::sent_fingerprint(std::size_t n) const {
  Pairs sent;
  for (std::uint64_t id = first_drawn_id_;
       id < std::min<std::uint64_t>(first_drawn_id_ + n, next_id_); ++id)
    sent.emplace_back(recs_[id].model, recs_[id].key);
  return fingerprint(seed_, sent);
}

std::uint64_t ServeHarness::stream_fingerprint(std::uint64_t seed,
                                               std::size_t n) const {
  return fingerprint(seed, draw_pairs(seed, 0, n, p_.hot_sets));
}

std::string ServeHarness::encode(std::uint64_t id, std::uint32_t model,
                                 std::uint64_t key) const {
  serve::Request req;
  req.request_id = id;
  req.model = names_[model];
  req.bc = constraints(seed_, model, key);
  return serve::encode_request(req);
}

void ServeHarness::wait_answered(std::uint64_t upto, double timeout_s) {
  const double end = now_s() + timeout_s;
  while (answered_.load(std::memory_order_acquire) < upto && now_s() < end)
    ::usleep(50);
}

PhaseResult ServeHarness::summarize(std::uint64_t first,
                                    std::uint64_t n) const {
  PhaseResult r;
  r.sent = n;
  for (std::uint64_t id = first; id < first + n; ++id) {
    const Rec& rec = recs_[id];
    r.late_us.push_back((rec.sent - rec.due) * 1e6);
    if (!rec.answered || rec.status != 0) {
      ++r.failed;
      continue;
    }
    r.latency_us.push_back((rec.recv - rec.due) * 1e6);
    (rec.hit ? r.rtt_hit_us : r.rtt_miss_us).push_back((rec.recv - rec.sent) * 1e6);
  }
  return r;
}

PhaseResult ServeHarness::open_loop(double qps, std::size_t n,
                                    bool abort_on_backlog) {
  n = std::min<std::uint64_t>(n, kMaxRequests - next_id_);
  const auto pairs = draw(n);
  const std::uint64_t first = next_id_;
  std::vector<std::string> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    payloads.push_back(encode(first + i, pairs[i].first, pairs[i].second));
  const double cap = std::max(64.0, qps * p_.limit_p99_us * 1e-6 * 4.0);
  const double t0 = now_s() + 1e-3;
  std::size_t sent = 0;
  bool aborted = false;
  for (; sent < n; ++sent) {
    const std::uint64_t id = first + sent;
    Rec& rec = recs_[id];
    rec.due = t0 + static_cast<double>(sent) / qps;
    rec.model = pairs[sent].first;
    rec.key = pairs[sent].second;
    wait_until(rec.due);
    rec.sent = now_s();
    next_id_ = id + 1;
    serve::write_frame(fds_[id % fds_.size()], payloads[sent]);
    if (abort_on_backlog &&
        static_cast<double>(id + 1 - answered_.load(std::memory_order_relaxed)) > cap) {
      ++sent;
      aborted = true;
      break;
    }
  }
  wait_answered(first + sent, 10.0);
  PhaseResult r = summarize(first, sent);
  r.aborted = aborted;
  return r;
}

double ServeHarness::run_closed(const Pairs& pairs, bool traced) {
  const std::size_t n =
      std::min<std::uint64_t>(pairs.size(), kMaxRequests - next_id_);
  const std::uint64_t first = next_id_;
  std::vector<std::string> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    payloads.push_back(encode(first + i, pairs[i].first, pairs[i].second));
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id = first + i;
    // Sleep until a response frees a slot (a futex wait, no polling).
    for (std::uint64_t a;
         id - (a = answered_.load(std::memory_order_acquire)) >= p_.burst_window;)
      answered_.wait(a, std::memory_order_acquire);
    Rec& rec = recs_[id];
    rec.model = pairs[i].first;
    rec.key = pairs[i].second;
    rec.due = rec.sent = now_s();
    next_id_ = id + 1;
    if (traced) {
      trace::Span s("serve.send");
      serve::write_frame(fds_[id % fds_.size()], payloads[i]);
    } else {
      serve::write_frame(fds_[id % fds_.size()], payloads[i]);
    }
  }
  wait_answered(first + n, 10.0);
  double last = t0;
  for (std::uint64_t id = first; id < first + n; ++id)
    if (recs_[id].answered) last = std::max(last, recs_[id].recv);
  return last - t0;
}

void ServeHarness::warm() {
  Pairs pairs;
  for (std::uint32_t m = 0; m < names_.size(); ++m)
    for (std::uint64_t k = 0; k < p_.hot_sets; ++k) pairs.emplace_back(m, k);
  run_closed(pairs, false);
}

double ServeHarness::burst(std::size_t n, bool traced) {
  return run_closed(draw(n), traced);
}

bool ServeHarness::rung_passes(double qps) {
  const double n = std::clamp(qps * p_.rung_seconds,
                              std::min(static_cast<double>(p_.rung_min), qps),
                              static_cast<double>(p_.rung_max));
  const PhaseResult r = open_loop(qps, static_cast<std::size_t>(n), true);
  // A growing backlog shows as the last quarter of the rung waiting
  // longer than the first; a host stall lifts a few requests, not a
  // quarter's median.
  bool growing = true;
  if (r.latency_us.size() >= 8) {
    const std::size_t q = r.latency_us.size() / 4;
    const double first = median(std::vector<double>(
        r.latency_us.begin(), r.latency_us.begin() + q));
    const double last = median(
        std::vector<double>(r.latency_us.end() - q, r.latency_us.end()));
    growing = last > 2.0 * first + p_.growth_slack_us;
  }
  const bool ok = !r.aborted && r.failed == 0 && !growing &&
                  p99(r.latency_us) <= p_.limit_p99_us;
  // Let a failed rung's queue drain before the next one starts.
  wait_answered(next_id_, 10.0);
  return ok;
}

double ServeHarness::slo_qps() {
  long lo = -1;
  long hi = static_cast<long>(p_.ladder_rungs);
  while (hi - lo > 1) {
    const long mid = (lo + hi) / 2;
    if (rung_passes(p_.rung_qps(static_cast<std::size_t>(mid))))
      lo = mid;
    else
      hi = mid;
  }
  return lo < 0 ? 0.0 : p_.rung_qps(static_cast<std::size_t>(lo));
}

ServeHarness::Totals ServeHarness::verify(int threads) {
  Totals t;
  t.attempted = next_id_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> expected;
  for (std::uint64_t id = 0; id < next_id_; ++id) {
    const Rec& rec = recs_[id];
    if (!rec.answered) continue;
    ++t.answered;
    if (rec.hit) ++t.hits;
    if (rec.status == 0) expected.emplace(std::make_pair(rec.model, rec.key), 0);
  }
  Pairs keys;
  for (const auto& [k, v] : expected) keys.push_back(k);
  // A separately loaded registry and a fresh evaluator: nothing shared
  // with the server's cache.
  serve::ModelRegistry registry;
  registry.load_directory(manager_->dir());
  serve::Evaluator::Options eopt;
  eopt.sta.cppr = true;
  eopt.sta.threads = 1;
  serve::Evaluator local(registry, eopt);
  std::vector<std::uint64_t> hashes(keys.size());
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  for (int w = 0; w < threads; ++w)
    pool.emplace_back([&] {
      serve::Evaluator::Scratch scratch;
      BoundarySnapshot snap;
      for (std::size_t i; (i = next.fetch_add(1)) < keys.size();) {
        local.evaluate(names_[keys[i].first],
                       constraints(seed_, keys[i].first, keys[i].second), snap,
                       scratch, /*bypass_cache=*/true);
        hashes[i] = snapshot_hash(snap);
      }
    });
  for (auto& th : pool) th.join();
  for (std::size_t i = 0; i < keys.size(); ++i) expected[keys[i]] = hashes[i];
  for (std::uint64_t id = 0; id < next_id_; ++id) {
    const Rec& rec = recs_[id];
    if (!rec.answered || rec.status != 0 ||
        expected.at({rec.model, rec.key}) != rec.hash)
      ++t.failed;
  }
  return t;
}

ServeHarness::Probe ServeHarness::probe() {
  Probe p;
  serve::Evaluator::Scratch scratch;
  BoundarySnapshot snap;
  std::vector<double> miss, hit, codec;
  for (std::uint32_t m = 0; m < names_.size(); ++m) {
    for (int i = 0; i < 40; ++i) {
      const BoundaryConstraints bc = constraints(seed_, m, next_fresh_++);
      double t0 = now_s();
      eval_->evaluate(names_[m], bc, snap, scratch, /*bypass_cache=*/true);
      miss.push_back((now_s() - t0) * 1e6);
      if (i >= 8) continue;
      const BoundaryConstraints hot = constraints(seed_, m, 0);
      eval_->evaluate(names_[m], hot, snap, scratch);
      t0 = now_s();
      eval_->evaluate(names_[m], hot, snap, scratch);
      hit.push_back((now_s() - t0) * 1e6);
      serve::Request req;
      req.request_id = 1;
      req.model = names_[m];
      req.bc = hot;
      serve::Response resp;
      resp.request_id = 1;
      resp.snap = snap;
      t0 = now_s();
      const serve::Request back =
          serve::decode_request(serve::encode_request(req));
      const serve::Response rback =
          serve::decode_response(serve::encode_response(resp));
      codec.push_back((now_s() - t0) * 1e6);
      if (back.model != names_[m] || rback.snap.num_ports != snap.num_ports)
        throw std::runtime_error("codec round trip changed the frame");
    }
  }
  p.eval_miss_us = median(miss);
  p.eval_hit_us = median(hit);
  p.codec_us = median(codec);
  std::vector<double> ns;
  for (const auto& [name, entry] : manager_->current()->entries())
    ns.push_back(sta_ns_per_node(entry.model.graph, 1, true));
  p.macro_ns_per_node = median(ns);
  return p;
}

}  // namespace pb
