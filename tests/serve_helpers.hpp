#pragma once
// Shared fixtures of the serving tests: a tiny packed macro model, a
// registry directory holding one ("blk"), and a server running on its
// own thread.

#include <thread>

#include "macro/baselines.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/tmb.hpp"
#include "sta/constraints.hpp"
#include "sta/timing_graph.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace tmm::test {

inline MacroModel make_model(const char* name, std::uint64_t seed = 21) {
  const TimingGraph flat = build_timing_graph(make_tiny_design(name, seed));
  MacroModel m = generate_itimerm_model(flat);
  m.design_name = name;
  return m;
}

inline BoundaryConstraints constraints_for(const MacroModel& m,
                                           std::uint64_t seed) {
  Rng rng(seed);
  return random_constraints(m.graph.primary_inputs().size(),
                            m.graph.primary_outputs().size(), {}, rng);
}

struct ServeFixture {
  TempDir dir;
  serve::ModelRegistry reg;
  ServeFixture() {
    serve::write_tmb_file(make_model("blk", 31), dir.str("blk.tmb"));
    reg.load_directory(dir.str());
  }
  const MacroModel& model() const { return reg.find("blk")->model; }
};

/// A started server answering on its own thread. stop() — or scope
/// exit, so a failed ASSERT never leaves a joinable thread behind —
/// drains it and joins the thread.
struct LiveServer {
  serve::Server server;
  std::thread thread;
  LiveServer(serve::Evaluator& eval, const serve::ServerOptions& opt)
      : server(eval, opt) {
    server.start();
    thread = std::thread([this] { server.serve(); });
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  ~LiveServer() { stop(); }
  void stop() {
    server.stop();
    if (thread.joinable()) thread.join();
  }
  /// A new connection to a TCP server; the caller closes it.
  int connect() const {
    return serve::connect_endpoint(serve::tcp_endpoint(server.bound_port()));
  }
};

}  // namespace tmm::test
