// Serving engine (src/serve): .tmb binary format round-trip and
// corruption rejection, registry isolation, result-cache LRU semantics,
// evaluator caching/quantization, wire-protocol round-trip, concurrent
// end-to-end server tests (the TSan targets) asserting served responses
// are bit-identical to the offline evaluation path, generational
// hot-reload (swap, rollback, fault-site isolation, a reload-vs-
// evaluate hammer), and deterministic overload admission.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "macro/model_io.hpp"
#include "serve/client.hpp"
#include "serve/evaluator.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/reload.hpp"
#include "serve/server.hpp"
#include "serve/tmb.hpp"
#include "serve_helpers.hpp"
#include "sta/timing_graph.hpp"

namespace tmm {
namespace {

namespace fs = std::filesystem;
using namespace test;

BoundarySnapshot snapshot_of(const TimingGraph& g,
                             const BoundaryConstraints& bc) {
  Sta sta(g);
  sta.run(bc);
  BoundarySnapshot snap;
  sta.snapshot_into(snap);
  return snap;
}

bool bit_identical(const BoundarySnapshot& a, const BoundarySnapshot& b) {
  const auto eq = [](const std::vector<double>& x,
                     const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return a.num_ports == b.num_ports && eq(a.slew, b.slew) &&
         eq(a.at, b.at) && eq(a.rat, b.rat) && eq(a.slack, b.slack);
}

// ------------------------------------------------------------------ tmb

TEST(Tmb, RoundTripPreservesEvaluationBitExactly) {
  const MacroModel m = make_model("rt");
  const std::string image = serve::pack_model(m);
  const MacroModel back = serve::unpack_model(image, "rt.tmb");
  EXPECT_EQ(back.design_name, m.design_name);
  EXPECT_EQ(back.graph.num_live_nodes(), m.graph.num_live_nodes());
  EXPECT_EQ(back.graph.num_live_arcs(), m.graph.num_live_arcs());
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const BoundaryConstraints bc = constraints_for(m, seed);
    EXPECT_TRUE(bit_identical(snapshot_of(m.graph, bc),
                              snapshot_of(back.graph, bc)))
        << "seed " << seed;
  }
}

TEST(Tmb, PackUnpackPackIsByteIdentical) {
  // The binary format is idempotent: unpacking and re-packing
  // reproduces the image byte for byte (record order, flags, and every
  // double's bit pattern survive).
  const MacroModel m = make_model("idem");
  const std::string image = serve::pack_model(m);
  EXPECT_EQ(serve::pack_model(serve::unpack_model(image, "idem.tmb")), image);
}

TEST(Tmb, PackOfTextRereadPreservesStructure) {
  // The text format rounds doubles to 9 significant digits, so a .macro
  // round trip is not bit-exact — but the record structure the binary
  // writer compacts must match, and timing must agree to text precision.
  const MacroModel m = make_model("txt");
  std::stringstream text;
  write_macro_model(m, text);
  const MacroModel reread = read_macro_model(text, "txt.macro");
  const MacroModel packed =
      serve::unpack_model(serve::pack_model(reread), "txt.tmb");
  EXPECT_EQ(packed.graph.num_live_nodes(), m.graph.num_live_nodes());
  EXPECT_EQ(packed.graph.num_live_arcs(), m.graph.num_live_arcs());
  const BoundaryConstraints bc = constraints_for(m, 4);
  // Bit-identical to the *reread* model (same doubles), close to the
  // original (9-digit rounding).
  EXPECT_TRUE(bit_identical(snapshot_of(packed.graph, bc),
                            snapshot_of(reread.graph, bc)));
}

TEST(Tmb, RejectsCorruptImages) {
  using fault::ErrorCode;
  const std::string good = serve::pack_model(make_model("corrupt"));
  ASSERT_GT(good.size(), serve::kTmbHeaderBytes);

  const auto parse_code = [](std::string image) {
    return code_of([&] {
      static_cast<void>(serve::unpack_model(image, "<corrupt>"));
    });
  };

  EXPECT_EQ(parse_code(""), ErrorCode::kParse);
  EXPECT_EQ(parse_code(good.substr(0, 10)), ErrorCode::kParse);  // short header

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(parse_code(bad_magic), ErrorCode::kParse);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(0x7f);
  EXPECT_EQ(parse_code(bad_version), ErrorCode::kParse);

  std::string truncated = good;
  truncated.resize(truncated.size() - 1);  // payload shorter than header says
  EXPECT_EQ(parse_code(truncated), ErrorCode::kParse);

  std::string extended = good + "x";  // payload longer than header says
  EXPECT_EQ(parse_code(extended), ErrorCode::kParse);

  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x40;  // CRC catches a payload bit flip
  EXPECT_EQ(parse_code(flipped), ErrorCode::kParse);
}

TEST(Tmb, FileRoundTripAndIoError) {
  const TempDir dir;
  const MacroModel m = make_model("file");
  const std::size_t bytes = serve::write_tmb_file(m, dir.str("file.tmb"));
  EXPECT_GT(bytes, serve::kTmbHeaderBytes);
  const MacroModel back = serve::read_tmb_file(dir.str("file.tmb"));
  EXPECT_EQ(back.design_name, "file");
  EXPECT_EQ(code_of([&] {
              static_cast<void>(serve::read_tmb_file(dir.str("missing.tmb")));
            }),
            fault::ErrorCode::kIo);
}

/// Byte-at-a-time CRC-32 (IEEE, reflected), bit by bit: the reference
/// the table-driven serve::crc32 must equal.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, CheckValueAndEmptyBuffer) {
  EXPECT_EQ(serve::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(serve::crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndOffset) {
  std::mt19937_64 rng(0xC4C);
  std::vector<unsigned char> buf(256 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 256; ++len)
      ASSERT_EQ(serve::crc32(buf.data() + off, len),
                crc32_bitwise(buf.data() + off, len))
          << "offset " << off << " length " << len;
  std::vector<unsigned char> big(3u << 20);
  for (auto& b : big) b = static_cast<unsigned char>(rng() >> 56);
  EXPECT_EQ(serve::crc32(big.data(), big.size()),
            crc32_bitwise(big.data(), big.size()));
}

// ------------------------------------------------------------- registry

TEST(Registry, LoadsDirectoryAndIsolatesCorruptFiles) {
  const TempDir dir;
  serve::write_tmb_file(make_model("alpha", 21), dir.str("alpha.tmb"));
  serve::write_tmb_file(make_model("beta", 22), dir.str("beta.tmb"));
  std::ofstream(dir.str("broken.tmb")) << "not a tmb image";

  serve::ModelRegistry reg;
  EXPECT_EQ(reg.load_directory(dir.str()), 2u);
  EXPECT_EQ(reg.size(), 2u);
  ASSERT_EQ(reg.failures().size(), 1u);
  EXPECT_NE(reg.failures()[0].path.find("broken.tmb"), std::string::npos);
  ASSERT_NE(reg.find("alpha"), nullptr);
  EXPECT_EQ(reg.find("alpha")->num_pis,
            reg.find("alpha")->model.graph.primary_inputs().size());
  EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Registry, DuplicateDesignNameIsConfigError) {
  const TempDir dir;
  const MacroModel m = make_model("dup");
  serve::write_tmb_file(m, dir.str("a.tmb"));
  serve::write_tmb_file(m, dir.str("b.tmb"));
  serve::ModelRegistry reg;
  reg.load_file(dir.str("a.tmb"));
  EXPECT_EQ(code_of([&] { reg.load_file(dir.str("b.tmb")); }),
            fault::ErrorCode::kConfig);
}

TEST(Registry, AllCorruptIsUnavailableEmptyDirIsNot) {
  const TempDir dir;
  std::ofstream(dir.str("junk.tmb")) << "junk";
  serve::ModelRegistry reg;
  EXPECT_EQ(code_of([&] { reg.load_directory(dir.str()); }),
            fault::ErrorCode::kUnavailable);

  const TempDir empty;
  serve::ModelRegistry reg2;
  EXPECT_EQ(reg2.load_directory(empty.str()), 0u);
  EXPECT_EQ(code_of([] {
              serve::ModelRegistry r;
              static_cast<void>(r.load_directory("/nonexistent/dir"));
            }),
            fault::ErrorCode::kIo);
}

// ---------------------------------------------------------- result cache

BoundarySnapshot tagged_snapshot(double tag) {
  BoundarySnapshot s;
  s.num_ports = 1;
  s.slew = {tag, tag, tag, tag};
  s.at = s.rat = s.slack = s.slew;
  return s;
}

TEST(ResultCache, LruEvictsLeastRecentAndPromotesOnHit) {
  serve::ResultCache cache(2, /*num_shards=*/1);
  cache.insert("a", tagged_snapshot(1));
  cache.insert("b", tagged_snapshot(2));
  BoundarySnapshot out;
  EXPECT_TRUE(cache.lookup("a", out));  // promotes "a" over "b"
  EXPECT_DOUBLE_EQ(out.slew[0], 1.0);
  cache.insert("c", tagged_snapshot(3));  // evicts "b", the LRU entry
  EXPECT_FALSE(cache.lookup("b", out));
  EXPECT_TRUE(cache.lookup("a", out));
  EXPECT_TRUE(cache.lookup("c", out));
  const serve::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_NEAR(st.hit_rate(), 0.75, 1e-12);
}

TEST(ResultCache, RefreshingAKeyDoesNotGrowTheShard) {
  serve::ResultCache cache(2, 1);
  cache.insert("a", tagged_snapshot(1));
  cache.insert("a", tagged_snapshot(9));
  BoundarySnapshot out;
  EXPECT_TRUE(cache.lookup("a", out));
  EXPECT_DOUBLE_EQ(out.slew[0], 9.0);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  serve::ResultCache cache(0);
  cache.insert("a", tagged_snapshot(1));
  BoundarySnapshot out;
  EXPECT_FALSE(cache.lookup("a", out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ------------------------------------------------------------ evaluator

TEST(Evaluator, UnknownModelAndArityMismatchAreTypedErrors) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  serve::Evaluator::Scratch scratch;
  BoundarySnapshot out;
  const BoundaryConstraints bc = constraints_for(fx.model(), 1);
  EXPECT_EQ(code_of([&] { eval.evaluate("ghost", bc, out, scratch); }),
            fault::ErrorCode::kUnavailable);
  BoundaryConstraints wrong = bc;
  wrong.pi.pop_back();
  EXPECT_EQ(code_of([&] { eval.evaluate("blk", wrong, out, scratch); }),
            fault::ErrorCode::kConfig);
}

TEST(Evaluator, CacheHitReturnsBitIdenticalSnapshot) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  serve::Evaluator::Scratch scratch;
  const BoundaryConstraints bc = constraints_for(fx.model(), 2);
  const BoundarySnapshot expected = snapshot_of(fx.model().graph, bc);

  BoundarySnapshot out;
  EXPECT_FALSE(eval.evaluate("blk", bc, out, scratch).cache_hit);
  EXPECT_TRUE(bit_identical(out, expected));
  BoundarySnapshot again;
  EXPECT_TRUE(eval.evaluate("blk", bc, again, scratch).cache_hit);
  EXPECT_TRUE(bit_identical(again, expected));
  // Bypass recomputes (still identical) without touching hit counts.
  const std::uint64_t hits_before = eval.cache_stats().hits;
  BoundarySnapshot fresh;
  EXPECT_FALSE(eval.evaluate("blk", bc, fresh, scratch, true).cache_hit);
  EXPECT_TRUE(bit_identical(fresh, expected));
  EXPECT_EQ(eval.cache_stats().hits, hits_before);
}

TEST(Evaluator, QuantizationSnapsNearbyQueriesToOneKey) {
  const ServeFixture fx;
  serve::Evaluator::Options opt;
  opt.quantum_ps = 1.0;
  serve::Evaluator eval(fx.reg, opt);
  serve::Evaluator::Scratch scratch;

  BoundaryConstraints bc = constraints_for(fx.model(), 3);
  BoundaryConstraints nearby = bc;
  nearby.pi[0].slew(kLate, kRise) += 0.2;  // same 1.0ps grid point
  nearby.clock_period_ps += 0.3;

  BoundarySnapshot a, b;
  EXPECT_FALSE(eval.evaluate("blk", bc, a, scratch).cache_hit);
  EXPECT_TRUE(eval.evaluate("blk", nearby, b, scratch).cache_hit);
  EXPECT_TRUE(bit_identical(a, b));

  // The response is the exact STA answer for the *quantized* constraints.
  BoundaryConstraints q = bc;
  q.clock_period_ps = std::round(q.clock_period_ps);
  for (auto& pi : q.pi)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        pi.at(el, rf) = std::round(pi.at(el, rf));
        pi.slew(el, rf) = std::round(pi.slew(el, rf));
      }
  for (auto& po : q.po) {
    po.load_ff = std::round(po.load_ff);
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        po.rat(el, rf) = std::round(po.rat(el, rf));
  }
  EXPECT_TRUE(bit_identical(a, snapshot_of(fx.model().graph, q)));
}

// ------------------------------------------------------------- protocol

TEST(Protocol, RequestRoundTrip) {
  serve::Request req;
  req.request_id = 0xDEADBEEFu;
  req.deadline_ms = 250;
  req.no_cache = true;
  req.model = "blk";
  Rng rng(4);
  req.bc = random_constraints(3, 2, {}, rng);
  const serve::Request back = serve::decode_request(serve::encode_request(req));
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_TRUE(back.no_cache);
  EXPECT_EQ(back.model, "blk");
  ASSERT_EQ(back.bc.pi.size(), 3u);
  ASSERT_EQ(back.bc.po.size(), 2u);
  EXPECT_EQ(back.bc.clock_period_ps, req.bc.clock_period_ps);
  for (std::size_t i = 0; i < 3; ++i)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        EXPECT_EQ(back.bc.pi[i].at(el, rf), req.bc.pi[i].at(el, rf));
        EXPECT_EQ(back.bc.pi[i].slew(el, rf), req.bc.pi[i].slew(el, rf));
      }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.bc.po[i].load_ff, req.bc.po[i].load_ff);
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        EXPECT_EQ(back.bc.po[i].rat(el, rf), req.bc.po[i].rat(el, rf));
  }
}

TEST(Protocol, ResponseRoundTripOkAndError) {
  serve::Response ok;
  ok.request_id = 7;
  ok.cache_hit = true;
  ok.snap = tagged_snapshot(42.5);
  const serve::Response ok_back =
      serve::decode_response(serve::encode_response(ok));
  EXPECT_EQ(ok_back.request_id, 7u);
  EXPECT_EQ(ok_back.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(ok_back.cache_hit);
  EXPECT_TRUE(bit_identical(ok_back.snap, ok.snap));

  serve::Response err;
  err.request_id = 8;
  err.status = serve::ResponseStatus::kUnknownModel;
  err.error = "no such model 'ghost'";
  const serve::Response err_back =
      serve::decode_response(serve::encode_response(err));
  EXPECT_EQ(err_back.status, serve::ResponseStatus::kUnknownModel);
  EXPECT_EQ(err_back.error, err.error);
}

TEST(Protocol, RejectsMalformedRequests) {
  serve::Request req;
  req.model = "m";
  Rng rng(5);
  req.bc = random_constraints(1, 1, {}, rng);
  const std::string good = serve::encode_request(req);

  const auto parse_code = [](std::string payload) {
    return code_of(
        [&] { static_cast<void>(serve::decode_request(payload)); });
  };
  EXPECT_EQ(parse_code(""), fault::ErrorCode::kParse);
  std::string bad_magic = good;
  bad_magic[0] = 'Z';
  EXPECT_EQ(parse_code(bad_magic), fault::ErrorCode::kParse);
  EXPECT_EQ(parse_code(good.substr(0, good.size() / 2)),
            fault::ErrorCode::kParse);
  EXPECT_EQ(parse_code(good + "trailing"), fault::ErrorCode::kParse);
}

// --------------------------------------------------------------- server

// The TSan target: 8 client threads against a 4-worker server sharing
// one Evaluator/cache/registry; every response must be bit-identical to
// the offline Sta answer computed up front.
TEST(Server, ConcurrentClientsGetBitIdenticalResponses) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  LiveServer live(eval, {.tcp_port = 0, .num_threads = 4, .batch_max = 8});

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 24;
  constexpr int kKeys = 4;  // shared keys -> guaranteed cache hits
  std::vector<BoundaryConstraints> key_bc(kKeys);
  std::vector<BoundarySnapshot> expected(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    key_bc[k] = constraints_for(fx.model(), 100 + k);
    expected[k] = snapshot_of(fx.model().graph, key_bc[k]);
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = live.connect();
      for (int i = 0; i < kRequestsPerClient; ++i) {
        serve::Request req;
        req.request_id =
            static_cast<std::uint64_t>(c) * kRequestsPerClient + i;
        const int key = (c + i) % kKeys;
        req.model = "blk";
        req.bc = key_bc[key];
        const serve::Response resp = serve::call(fd, req);
        EXPECT_EQ(resp.request_id, req.request_id);
        if (resp.status != serve::ResponseStatus::kOk)
          errors.fetch_add(1);
        else if (!bit_identical(resp.snap, expected[key]))
          mismatches.fetch_add(1);
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  live.stop();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const serve::Server::Stats st = live.server.stats();
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(kClients) *
                             kRequestsPerClient);
  EXPECT_EQ(st.responses_ok, st.requests);
  EXPECT_EQ(st.conn_aborts, 0u);
  EXPECT_EQ(st.connections, static_cast<std::uint64_t>(kClients));
  EXPECT_GT(eval.cache_stats().hits, 0u);
}

TEST(Server, BadFramesGetErrorResponsesOnALiveConnection) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  LiveServer live(eval, {.tcp_port = 0, .num_threads = 1});

  const int fd = live.connect();

  // Unknown model: typed error, connection stays up.
  serve::Request req;
  req.request_id = 1;
  req.model = "ghost";
  Rng rng(6);
  req.bc = random_constraints(1, 1, {}, rng);
  EXPECT_EQ(serve::call(fd, req).status, serve::ResponseStatus::kUnknownModel);

  // Garbage frame: kBadRequest, connection still stays up.
  std::string frame;
  serve::write_frame(fd, "this is not a TMRQ frame");
  ASSERT_TRUE(serve::read_frame(fd, frame));
  EXPECT_EQ(serve::decode_response(frame).status,
            serve::ResponseStatus::kBadRequest);

  // And a valid request after both errors still succeeds.
  const MacroModel& m = fx.model();
  serve::Request good;
  good.request_id = 2;
  good.model = "blk";
  good.bc = constraints_for(m, 9);
  const serve::Response resp = serve::call(fd, good);
  EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(bit_identical(resp.snap, snapshot_of(m.graph, good.bc)));

  ::close(fd);
  live.stop();
  EXPECT_EQ(live.server.stats().request_errors, 2u);
}

TEST(Server, UnixSocketServesAndUnlinksOnShutdown) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  const std::string sock = fx.dir.str("srv.sock");
  {
    serve::ServerOptions opt;
    opt.unix_path = sock;
    opt.num_threads = 2;
    LiveServer live(eval, opt);
    ASSERT_TRUE(fs::exists(sock));

    const int fd = serve::connect_endpoint(serve::unix_endpoint(sock));
    serve::Request req;
    req.model = "blk";
    req.bc = constraints_for(fx.model(), 11);
    EXPECT_EQ(serve::call(fd, req).status, serve::ResponseStatus::kOk);
    ::close(fd);
  }
  // Destroying the server removes the socket file: stale socket files
  // would break the next server's bind.
  EXPECT_FALSE(fs::exists(sock));
}

TEST(Server, TcpPortAbove65535IsAConfigError) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  for (const int port : {65536, 70000}) {
    serve::Server server(eval, {.tcp_port = port, .num_threads = 1});
    EXPECT_EQ(code_of([&] { server.start(); }), fault::ErrorCode::kConfig)
        << port;
  }
}

// --------------------------------------------------------------- client

TEST(ServeClient, DigitsAreTcpPortsAndAnythingElseAUnixPath) {
  EXPECT_EQ(serve::parse_endpoint("8080").tcp_port, 8080);
  EXPECT_TRUE(serve::parse_endpoint("65535").unix_path.empty());
  EXPECT_EQ(serve::parse_endpoint("/tmp/s.sock").unix_path, "/tmp/s.sock");
  EXPECT_EQ(serve::parse_endpoint("80a").unix_path, "80a");
  for (const std::string& bad :
       std::vector<std::string>{"", "0", "65536", "70000",
                                "123456789012345678901234",
                                std::string(200, 'p')})
    EXPECT_EQ(code_of([&] { static_cast<void>(serve::parse_endpoint(bad)); }),
              fault::ErrorCode::kConfig)
        << "'" << bad << "'";
}

TEST(ServeClient, BackoffStaysInJitterBandAndStopsAtCap) {
  Rng rng(7);
  serve::Backoff backoff(rng, 0.01, 0.08);
  for (int round = 0; round < 2; ++round) {
    double cap_n = 0.01;
    for (int n = 0; n < 10; ++n) {
      const double d = backoff.next_s();
      EXPECT_GE(d, cap_n / 2) << n;
      EXPECT_LE(d, cap_n) << n;
      cap_n = std::min(cap_n * 2, 0.08);
    }
    backoff.reset();  // the second round starts from the base again
  }
}

TEST(ServeClient, CallRoundTripsOverUnixAndTcpAndEofIsAnError) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  serve::Request req;
  req.model = "blk";
  req.bc = constraints_for(fx.model(), 13);
  const BoundarySnapshot expected = snapshot_of(fx.model().graph, req.bc);
  serve::ServerOptions unix_opt;
  unix_opt.unix_path = fx.dir.str("c.sock");
  for (const serve::ServerOptions& opt :
       {unix_opt, serve::ServerOptions{.tcp_port = 0}}) {
    LiveServer live(eval, opt);
    const int fd = serve::connect_endpoint(
        opt.unix_path.empty() ? serve::tcp_endpoint(live.server.bound_port())
                              : serve::unix_endpoint(opt.unix_path));
    const serve::Response resp = serve::call(fd, req);
    EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
    EXPECT_TRUE(bit_identical(resp.snap, expected));
    // A drained server closes the connection: the next call sees EOF.
    live.stop();
    EXPECT_EQ(code_of([&] { serve::call(fd, req); }), fault::ErrorCode::kIo);
    ::close(fd);
  }
  EXPECT_EQ(code_of([&] {
              serve::connect_endpoint(serve::unix_endpoint(fx.dir.str("no")));
            }),
            fault::ErrorCode::kIo);
}

// --------------------------------------------------------------- reload

/// Two same-name models with identical 2-PI/2-PO boundary shape but
/// different internal timing: a reload can swap between them without
/// changing what requests look like, and their snapshots tell the
/// generations apart bit-exactly.
struct ReloadFixture {
  TempDir dir;
  BoundaryConstraints bc;
  BoundarySnapshot snap_a, snap_b;
  ReloadFixture() {
    const MacroModel a = make_model("blk", 31);
    const MacroModel b = make_model("blk", 37);
    bc = constraints_for(a, 5);
    snap_a = snapshot_of(a.graph, bc);
    snap_b = snapshot_of(b.graph, bc);
    EXPECT_FALSE(bit_identical(snap_a, snap_b));
    serve::write_tmb_file(a, dir.str("blk.tmb"));
  }
  void install(std::uint64_t seed) {
    serve::write_tmb_file(make_model("blk", seed), dir.str("blk.tmb"));
  }
};

BoundarySnapshot served_by(const serve::ModelRegistry& reg,
                           const BoundaryConstraints& bc) {
  const serve::RegistryEntry* entry = reg.find("blk");
  EXPECT_NE(entry, nullptr);
  return snapshot_of(entry->model.graph, bc);
}

TEST(Reload, SwapPublishesNewGenerationWhileOldPinsSurvive) {
  ReloadFixture fx;
  serve::RegistryManager mgr(fx.dir.str());
  EXPECT_EQ(mgr.load_initial(), 1u);
  const std::shared_ptr<const serve::ModelRegistry> pinned = mgr.current();
  EXPECT_EQ(pinned->generation(), 1u);
  EXPECT_TRUE(bit_identical(served_by(*pinned, fx.bc), fx.snap_a));

  fx.install(37);
  const serve::ReloadResult r = mgr.reload();
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.generation, 2u);
  EXPECT_EQ(r.models_loaded, 1u);
  EXPECT_EQ(r.load_failures, 0u);
  EXPECT_GE(r.reload_us, r.swap_us);  // swap is inside the reload

  // An in-flight request that pinned generation 1 keeps answering from
  // it; the published generation is already the new one.
  EXPECT_TRUE(bit_identical(served_by(*pinned, fx.bc), fx.snap_a));
  const std::shared_ptr<const serve::ModelRegistry> cur = mgr.current();
  EXPECT_EQ(cur->generation(), 2u);
  EXPECT_TRUE(bit_identical(served_by(*cur, fx.bc), fx.snap_b));

  const serve::RegistryManager::Counters c = mgr.counters();
  EXPECT_EQ(c.generation, 2u);
  EXPECT_EQ(c.reloads_ok, 1u);
  EXPECT_EQ(c.reload_failures, 0u);
  EXPECT_TRUE(c.last_error.empty());
}

TEST(Reload, FailedLoadRollsBackToServingGeneration) {
  ReloadFixture fx;
  serve::RegistryManager mgr(fx.dir.str());
  mgr.load_initial();

  // Reload is strict where startup is lax: one corrupt pack in an
  // otherwise-good directory vetoes the whole swap.
  std::ofstream(fx.dir.str("junk.tmb")) << "not a tmb image";
  const serve::ReloadResult r = mgr.reload();
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  const std::shared_ptr<const serve::ModelRegistry> cur = mgr.current();
  EXPECT_EQ(cur->generation(), 1u);
  EXPECT_TRUE(bit_identical(served_by(*cur, fx.bc), fx.snap_a));
  EXPECT_EQ(mgr.counters().reload_failures, 1u);
  EXPECT_FALSE(mgr.counters().last_error.empty());

  // Repairing the directory makes the next reload succeed and clears
  // the sticky error.
  fs::remove(fx.dir.str("junk.tmb"));
  fx.install(37);
  const serve::ReloadResult r2 = mgr.reload();
  EXPECT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.generation, 2u);
  EXPECT_TRUE(bit_identical(served_by(*mgr.current(), fx.bc), fx.snap_b));
  EXPECT_TRUE(mgr.counters().last_error.empty());
}

TEST(Reload, ValidatorVetoKeepsOldGeneration) {
  ReloadFixture fx;
  serve::RegistryManager mgr(
      fx.dir.str(), [](const std::string&) { return std::string("S999 veto"); });
  mgr.load_initial();  // startup does not consult the validator
  fx.install(37);
  const serve::ReloadResult r = mgr.reload();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("S999 veto"), std::string::npos);
  EXPECT_EQ(mgr.current()->generation(), 1u);
  EXPECT_TRUE(bit_identical(served_by(*mgr.current(), fx.bc), fx.snap_a));
}

TEST(Reload, FaultSitesRollBackAndKeepServing) {
  // Each serve.reload_* site fires once mid-reload; the old generation
  // must keep serving bit-identically and the next reload must succeed.
  for (const char* site :
       {"serve.reload_open", "serve.reload_swap", "serve.reload_validate"}) {
    ReloadFixture fx;
    serve::RegistryManager mgr(fx.dir.str());
    mgr.load_initial();
    fx.install(37);

    ASSERT_TRUE(fault::arm(site, 1).ok()) << site;
    const serve::ReloadResult r = mgr.reload();
    fault::disarm();
    EXPECT_FALSE(r.ok) << site;
    EXPECT_NE(r.error.find("injected"), std::string::npos) << site;
    EXPECT_EQ(mgr.current()->generation(), 1u) << site;
    EXPECT_TRUE(bit_identical(served_by(*mgr.current(), fx.bc), fx.snap_a))
        << site;

    const serve::ReloadResult retry = mgr.reload();
    EXPECT_TRUE(retry.ok) << site << ": " << retry.error;
    EXPECT_TRUE(bit_identical(served_by(*mgr.current(), fx.bc), fx.snap_b))
        << site;
  }
}

// A TSan target: clients hammer a managed Evaluator while the main
// thread swaps generations in a loop. Every answer must be bit-identical
// to the offline snapshot of the generation the scratch had pinned —
// a stale cross-generation cache hit or a use-after-free of a retired
// registry would both trip this (the cache key's generation prefix and
// the shared_ptr pinning are what keep it honest).
TEST(Reload, ConcurrentEvaluationDuringSwapsIsSafe) {
  ReloadFixture fx;
  serve::RegistryManager mgr(fx.dir.str());
  mgr.load_initial();
  serve::Evaluator eval(mgr, {});

  // Generation 1 is seed 31; reload r installs seed 37/31 alternately,
  // so odd generations serve snap_a and even ones snap_b.
  constexpr int kThreads = 4;
  constexpr int kReloads = 20;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      serve::Evaluator::Scratch scratch;
      BoundarySnapshot out;
      while (!stop.load(std::memory_order_relaxed)) {
        eval.evaluate("blk", fx.bc, out, scratch);
        const std::uint64_t gen = scratch.pinned->generation();
        const BoundarySnapshot& expected =
            gen % 2 == 1 ? fx.snap_a : fx.snap_b;
        if (!bit_identical(out, expected)) wrong.fetch_add(1);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int r = 0; r < kReloads; ++r) {
    fx.install(r % 2 == 0 ? 37 : 31);
    const serve::ReloadResult res = mgr.reload();
    EXPECT_TRUE(res.ok) << res.error;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(mgr.counters().generation,
            static_cast<std::uint64_t>(kReloads) + 1);
  EXPECT_EQ(mgr.counters().reloads_ok, static_cast<std::uint64_t>(kReloads));
}

TEST(Server, ReloadOverWireSwapsGenerationLive) {
  ReloadFixture fx;
  serve::RegistryManager mgr(fx.dir.str());
  mgr.load_initial();
  serve::Evaluator eval(mgr, {});
  LiveServer live(eval, {.tcp_port = 0, .num_threads = 2});

  const int fd = live.connect();
  const auto ask = [&](std::uint64_t id) {
    serve::Request req;
    req.request_id = id;
    req.model = "blk";
    req.bc = fx.bc;
    return serve::call(fd, req);
  };

  const serve::Response before = ask(1);
  EXPECT_EQ(before.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(bit_identical(before.snap, fx.snap_a));

  // Admin reload on the same connection; the JSON answer carries the
  // new generation and the swap timing.
  fx.install(37);
  serve::Request reload;
  reload.request_id = 2;
  reload.kind = serve::RequestKind::kReload;
  const serve::Response rr = serve::call(fd, reload);
  EXPECT_EQ(rr.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(rr.admin);
  EXPECT_NE(rr.text.find("\"ok\": true"), std::string::npos) << rr.text;
  EXPECT_NE(rr.text.find("\"generation\": 2"), std::string::npos) << rr.text;
  EXPECT_NE(rr.text.find("\"swap_us\": "), std::string::npos) << rr.text;

  // The same constraints now answer from the new generation — a result
  // cache not keyed by generation would hand back snap_a here.
  const serve::Response after = ask(3);
  EXPECT_EQ(after.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(bit_identical(after.snap, fx.snap_b));

  // Health reports the generation and reload counters.
  serve::Request health;
  health.request_id = 4;
  health.kind = serve::RequestKind::kHealth;
  const serve::Response hr = serve::call(fd, health);
  EXPECT_NE(hr.text.find("\"generation\": 2"), std::string::npos) << hr.text;
  EXPECT_NE(hr.text.find("\"reloads_ok\": 1"), std::string::npos) << hr.text;

  ::close(fd);
  live.stop();
}

// The serve-lint validator returns LintReport::to_string(), one line
// per finding; the admin replies that carry it must stay valid JSON.
TEST(Server, MultiLineReloadErrorStaysValidJson) {
  ReloadFixture fx;
  serve::RegistryManager mgr(fx.dir.str(), [](const std::string&) {
    return std::string("S001 first\nS002 second\n");
  });
  mgr.load_initial();
  serve::Evaluator eval(mgr, {});
  LiveServer live(eval, {.tcp_port = 0, .num_threads = 1});
  const int fd = live.connect();
  fx.install(37);

  serve::Request reload;
  reload.kind = serve::RequestKind::kReload;
  const serve::Response rr = serve::call(fd, reload);
  EXPECT_NE(rr.text.find("\"ok\": false"), std::string::npos) << rr.text;
  EXPECT_NE(rr.text.find(R"(S001 first\nS002 second\n"})"), std::string::npos)
      << rr.text;
  EXPECT_EQ(rr.text.find('\n'), rr.text.size() - 1) << rr.text;

  serve::Request stats;
  stats.kind = serve::RequestKind::kStats;
  const serve::Response sr = serve::call(fd, stats);
  EXPECT_NE(sr.text.find(R"(S001 first\nS002 second\n"})"), std::string::npos)
      << sr.text;
  ::close(fd);
  live.stop();
}

// A fixed registry is a one-generation manager: a reload has no
// directory to load from, answers ok:false with the load diagnostic,
// and the same generation keeps serving bit-identically.
TEST(Evaluator, FixedRegistryReloadAnswersNotOkAndKeepsServing) {
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  LiveServer live(eval, {.tcp_port = 0, .num_threads = 1});
  const int fd = live.connect();
  serve::Request req;
  req.model = "blk";
  req.bc = constraints_for(fx.model(), 17);
  req.no_cache = true;  // both answers come from the STA, not the cache
  const serve::Response before = serve::call(fd, req);
  ASSERT_EQ(before.status, serve::ResponseStatus::kOk);

  serve::Request reload;
  reload.kind = serve::RequestKind::kReload;
  const serve::Response rr = serve::call(fd, reload);
  EXPECT_EQ(rr.status, serve::ResponseStatus::kOk);
  EXPECT_NE(rr.text.find("\"ok\": false"), std::string::npos) << rr.text;
  EXPECT_NE(rr.text.find("cannot read model directory"), std::string::npos)
      << rr.text;

  const serve::Response after = serve::call(fd, req);
  EXPECT_EQ(after.status, serve::ResponseStatus::kOk);
  EXPECT_TRUE(bit_identical(after.snap, before.snap));
  EXPECT_EQ(eval.manager().current().get(), &fx.reg);
  EXPECT_EQ(eval.manager().counters().reload_failures, 1u);
  ::close(fd);
  live.stop();
}

// ------------------------------------------------------------ admission

TEST(Server, OverloadShedsBeyondInflightBudgetDeterministically) {
  // One worker, batch_max 16, budget 2, and one pipelined burst of 16
  // frames delivered in a single write: the adaptive drain picks up the
  // whole burst before answering, so exactly 2 requests are admitted
  // and 14 are shed with kOverloaded at admission.
  const ServeFixture fx;
  serve::Evaluator eval(fx.reg, {});
  serve::ServerOptions opt;
  opt.tcp_port = 0;
  opt.num_threads = 1;
  opt.batch_max = 16;
  opt.max_inflight = 2;
  LiveServer live(eval, opt);

  const int fd = live.connect();
  constexpr int kBurst = 16;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) {
    serve::Request req;
    req.request_id = static_cast<std::uint64_t>(i);
    req.model = "blk";
    req.bc = constraints_for(fx.model(), 50 + i);
    const std::string payload = serve::encode_request(req);
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    wire.append(reinterpret_cast<const char*>(&len), sizeof len);
    wire += payload;
  }
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  int ok = 0, overloaded = 0, other = 0;
  std::string frame;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(serve::read_frame(fd, frame));
    const serve::Response resp = serve::decode_response(frame);
    EXPECT_EQ(resp.request_id, static_cast<std::uint64_t>(i));
    if (resp.status == serve::ResponseStatus::kOk)
      ++ok;
    else if (resp.status == serve::ResponseStatus::kOverloaded)
      ++overloaded;
    else
      ++other;
  }
  ::close(fd);
  live.stop();

  EXPECT_EQ(ok, 2);
  EXPECT_EQ(overloaded, 14);
  EXPECT_EQ(other, 0);
  EXPECT_EQ(live.server.stats().shed_overload, 14u);
  EXPECT_EQ(live.server.stats().responses_ok, 2u);
}

}  // namespace
}  // namespace tmm
