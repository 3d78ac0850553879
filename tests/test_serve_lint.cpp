// Serving-artifact lint rules (src/analysis/serve_lint.hpp): S001
// image corruption, S002 arena-bounds violations (reported per record,
// not throw-on-first), S003 duplicate design names across a registry
// directory.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "analysis/serve_lint.hpp"
#include "fault/fault.hpp"
#include "macro/baselines.hpp"
#include "serve/tmb.hpp"
#include "sta/timing_graph.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "tmm_slint_XXXXXX").string();
    char* p = ::mkdtemp(tmpl.data());
    EXPECT_NE(p, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str(const char* leaf = nullptr) const {
    return leaf ? (path / leaf).string() : path.string();
  }
};

MacroModel make_model(const char* name, std::uint64_t seed = 21) {
  const Design d = test::make_tiny_design(name, seed);
  const TimingGraph flat = build_timing_graph(d);
  MacroModel m = generate_itimerm_model(flat);
  m.design_name = name;
  return m;
}

std::uint32_t read_u32(const std::string& image, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, image.data() + off, sizeof v);
  return v;
}

/// Re-stamp the header CRC after mutating payload bytes, so the image
/// reaches the record checks instead of dying at the checksum gate.
void restamp_crc(std::string& image) {
  const std::uint32_t crc =
      serve::crc32(image.data() + serve::kTmbHeaderBytes,
                   image.size() - serve::kTmbHeaderBytes);
  std::memcpy(image.data() + 16, &crc, sizeof crc);
}

/// Byte offset of the payload's record counts (format v1), just past
/// the length-prefixed design name.
std::size_t counts_offset(const std::string& image) {
  return serve::kTmbHeaderBytes + 4 + read_u32(image, serve::kTmbHeaderBytes);
}

/// Byte offset of node record `i` (format v1).
std::size_t node_offset(const std::string& image, std::size_t i) {
  // Six u32 counts + u64 arena length, then 40-byte node records.
  return counts_offset(image) + 32 + i * 40ull;
}

/// Byte offset of LUT record `i` in the table section (format v1).
std::size_t tab_offset(const std::string& image, std::size_t i) {
  const std::size_t counts = counts_offset(image);
  const std::uint32_t nn = read_u32(image, counts);
  const std::uint32_t na = read_u32(image, counts + 4);
  const std::uint32_t nc = read_u32(image, counts + 8);
  const std::uint32_t npo = read_u32(image, counts + 12);
  std::size_t off = node_offset(image, nn);  // past the node records
  off += npo * 4ull;          // attached-PO ordinals
  off += na * 36ull;          // arc records
  off += nc * 16ull;          // check records
  return off + i * 16ull;     // LutRec = u32 + u32 + u64
}

TEST(ServeLint, BadPortOrdinalsAreParseErrors) {
  const std::string clean = serve::pack_model(make_model("ordinal"));
  const std::uint32_t nn = read_u32(clean, counts_offset(clean));
  // Node records: role at +8, port ordinal at +16.
  std::vector<std::size_t> pis, pos;
  for (std::size_t i = 0; i < nn; ++i) {
    const std::uint32_t role = read_u32(clean, node_offset(clean, i) + 8);
    if (role == static_cast<std::uint32_t>(NodeRole::kPrimaryInput))
      pis.push_back(node_offset(clean, i) + 16);
    if (role == static_cast<std::uint32_t>(NodeRole::kPrimaryOutput))
      pos.push_back(node_offset(clean, i) + 16);
  }
  ASSERT_GE(pis.size(), 2u);
  ASSERT_FALSE(pos.empty());
  const std::uint32_t num_pis = static_cast<std::uint32_t>(pis.size());
  const struct {
    const char* what;
    std::size_t at;
    std::uint32_t ordinal;
  } cases[] = {
      {"PO ordinal UINT32_MAX", pos[0], 0xffffffffu},
      {"PO ordinal 200000000", pos[0], 200000000u},
      {"duplicate PI ordinal", pis[1], read_u32(clean, pis[0])},
      {"gapped PI ordinals", pis[0], num_pis},
  };
  for (const auto& c : cases) {
    std::string image = clean;
    std::memcpy(image.data() + c.at, &c.ordinal, sizeof c.ordinal);
    restamp_crc(image);
    try {
      static_cast<void>(serve::unpack_model(image, "ordinal.tmb"));
      ADD_FAILURE() << c.what << ": expected FlowError";
    } catch (const fault::FlowError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kParse) << c.what << ": "
                                                     << e.what();
    }
  }
}

TEST(ServeLint, CleanImagePasses) {
  const std::string image = serve::pack_model(make_model("clean"));
  const analysis::LintReport report =
      analysis::lint_tmb_image(image, "clean.tmb");
  EXPECT_EQ(report.count(analysis::rule::kTmbImage), 0u);
  EXPECT_EQ(report.count(analysis::rule::kTmbArena), 0u);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(ServeLint, BadMagicIsS001) {
  std::string image = serve::pack_model(make_model("magic"));
  image[0] = 'X';
  const analysis::LintReport report =
      analysis::lint_tmb_image(image, "magic.tmb");
  EXPECT_EQ(report.count(analysis::rule::kTmbImage), 1u);
  EXPECT_FALSE(report.clean());
}

TEST(ServeLint, ChecksumMismatchIsS001) {
  std::string image = serve::pack_model(make_model("crc"));
  image[image.size() - 1] ^= 0x5a;  // payload flip, stale CRC
  const analysis::LintReport report =
      analysis::lint_tmb_image(image, "crc.tmb");
  EXPECT_EQ(report.count(analysis::rule::kTmbImage), 1u);
}

TEST(ServeLint, TruncatedFileIsS001) {
  std::string image = serve::pack_model(make_model("trunc"));
  image.resize(image.size() / 2);
  const analysis::LintReport report =
      analysis::lint_tmb_image(image, "trunc.tmb");
  EXPECT_EQ(report.count(analysis::rule::kTmbImage), 1u);
}

TEST(ServeLint, ArenaEscapeIsS002PerRecord) {
  std::string image = serve::pack_model(make_model("arena"));
  // Point two LUT records past the arena end; the linter must report
  // both (the loader would throw on the first).
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}}) {
    const std::size_t rec = tab_offset(image, i);
    const std::uint64_t bad_off = 1u << 30;
    std::memcpy(image.data() + rec + 8, &bad_off, sizeof bad_off);
  }
  restamp_crc(image);
  const analysis::LintReport report =
      analysis::lint_tmb_image(image, "arena.tmb");
  EXPECT_EQ(report.count(analysis::rule::kTmbArena), 2u)
      << report.to_string();
  EXPECT_EQ(report.count(analysis::rule::kTmbImage), 0u);
  EXPECT_FALSE(report.clean());
}

TEST(ServeLint, UnreadableFileIsS001) {
  const analysis::LintReport report =
      analysis::lint_tmb_file("/nonexistent/model.tmb");
  EXPECT_EQ(report.count(analysis::rule::kTmbImage), 1u);
}

TEST(ServeLint, RegistryDirFlagsDuplicateNames) {
  TempDir dir;
  serve::write_tmb_file(make_model("alpha"), dir.str("a.tmb"));
  serve::write_tmb_file(make_model("alpha", 22), dir.str("b.tmb"));
  serve::write_tmb_file(make_model("beta"), dir.str("c.tmb"));
  const analysis::LintReport report = analysis::lint_registry_dir(dir.str());
  EXPECT_EQ(report.count(analysis::rule::kRegistryDupName), 1u)
      << report.to_string();
  // The duplicate report names both files.
  bool found = false;
  for (const auto& d : report.diagnostics())
    if (d.rule == analysis::rule::kRegistryDupName) {
      found = true;
      EXPECT_NE(d.location.find("b.tmb"), std::string::npos);
      EXPECT_NE(d.message.find("a.tmb"), std::string::npos);
    }
  EXPECT_TRUE(found);
}

TEST(ServeLint, RegistryDirCleanAndCorruptMix) {
  TempDir dir;
  serve::write_tmb_file(make_model("good"), dir.str("good.tmb"));
  {
    std::ofstream os(dir.str("bad.tmb"), std::ios::binary);
    os << "not a tmb";
  }
  const analysis::LintReport report = analysis::lint_registry_dir(dir.str());
  EXPECT_EQ(report.count(analysis::rule::kTmbImage), 1u);
  EXPECT_EQ(report.count(analysis::rule::kRegistryDupName), 0u);
}

}  // namespace
}  // namespace tmm
