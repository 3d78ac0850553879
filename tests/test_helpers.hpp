#pragma once
// Shared fixtures: a process-wide generated library, small hand-sized
// designs with known structure, scratch directories and error-code
// capture.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "liberty/library_gen.hpp"
#include "netlist/design.hpp"
#include "netlist/design_gen.hpp"

namespace tmm::test {

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "tmm_test_XXXXXX").string();
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str(const char* leaf = nullptr) const {
    return leaf ? (path / leaf).string() : path.string();
  }
};

/// The FlowError code `fn` throws; a test failure when it throws none.
inline fault::ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const fault::FlowError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected FlowError";
  return fault::ErrorCode::kOk;
}

/// FNV-1a-64 of `s`: golden tests pin output bytes with it.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One generated library shared by all tests (cells are immutable).
inline const Library& shared_library() {
  static const Library lib = generate_library();
  return lib;
}

/// clk + 2 data PIs -> small comb cloud -> 2 FFs -> comb -> 2 POs,
/// with a 2-level clock tree. Small enough to reason about by hand.
inline Design make_tiny_design(const std::string& name = "tiny",
                               std::uint64_t seed = 5) {
  DesignGenConfig cfg;
  cfg.name = name;
  cfg.seed = seed;
  cfg.num_data_inputs = 2;
  cfg.num_outputs = 2;
  cfg.num_flops = 4;
  cfg.levels = 3;
  cfg.gates_per_level = 4;
  return generate_design(shared_library(), cfg);
}

/// Mid-size random design for integration tests.
inline Design make_small_design(const std::string& name = "small",
                                std::uint64_t seed = 11) {
  DesignGenConfig cfg;
  cfg.name = name;
  cfg.seed = seed;
  cfg.num_data_inputs = 8;
  cfg.num_outputs = 8;
  cfg.num_flops = 24;
  cfg.levels = 6;
  cfg.gates_per_level = 20;
  return generate_design(shared_library(), cfg);
}

/// A pure buffer chain: in -> BUF x n -> out. Deterministic timing.
inline Design make_buffer_chain(std::size_t n, double wire_res = 0.1,
                                double wire_cap = 0.5) {
  static const Library& lib = shared_library();
  Design d("chain", &lib);
  const CellId buf = lib.cell_id("BUF_X1");
  const auto& cell = lib.cell(buf);
  const auto a = cell.port_index("A");
  const auto y = cell.port_index("Y");

  d.add_port("in0", TopPortDir::kPrimaryInput);
  d.add_port("out0", TopPortDir::kPrimaryOutput);
  const PinId in_pin = d.port(0).pin;
  const PinId out_pin = d.port(1).pin;

  PinId prev = in_pin;
  NetId net = d.add_net("n_in", prev);
  for (std::size_t i = 0; i < n; ++i) {
    std::string gate_name = "b";
    gate_name += std::to_string(i);
    const GateId g = d.add_gate(gate_name, buf);
    d.connect_sink(net, d.gate(g).pins[a], wire_res);
    d.set_wire_cap(net, wire_cap);
    prev = d.gate(g).pins[y];
    std::string net_name = "n";
    net_name += std::to_string(i);
    net = d.add_net(net_name, prev);
  }
  d.connect_sink(net, out_pin, wire_res);
  d.set_wire_cap(net, wire_cap);
  d.validate();
  return d;
}

}  // namespace tmm::test
