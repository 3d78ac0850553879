// Golden bytes of every text writer. Each test formats a fixed seeded
// input and compares FNV-1a and length of the output with values
// recorded from the ostream-based writers, so a formatter change that
// moves a single byte (precision, separator, field order) fails here
// before it reaches a .dsn, .macro or weight file on disk.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "flow/framework.hpp"
#include "liberty/liberty_writer.hpp"
#include "macro/model_io.hpp"
#include "netlist/netlist_io.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

void expect_golden(const std::string& text, std::size_t returned,
                   std::uint64_t want_hash, std::size_t want_bytes) {
  EXPECT_EQ(returned, text.size());
  EXPECT_EQ(text.size(), want_bytes);
  EXPECT_EQ(test::fnv1a(text), want_hash);
}

Design golden_design() { return test::make_small_design("golden", 21); }

GnnModel golden_gnn() {
  GnnModelConfig cfg;
  cfg.input_dim = kNumFeaturesWithCppr;
  cfg.seed = 2022;
  return GnnModel(cfg);
}

TEST(TextGolden, Macro) {
  Framework fw{FlowConfig{}};
  fw.set_model(golden_gnn());
  const DesignResult r = fw.run_design(golden_design());
  std::ostringstream os;
  const std::size_t bytes = write_macro_model(r.model, os);
  EXPECT_EQ(r.model_file_bytes, bytes);
  EXPECT_EQ(macro_model_size_bytes(r.model), bytes);
  expect_golden(os.str(), bytes, 1620251471737051700ull, 322875);
}

TEST(TextGolden, Design) {
  std::ostringstream os;
  const std::size_t bytes = write_design(golden_design(), os);
  expect_golden(os.str(), bytes, 10046052906151277267ull, 20194);
}

TEST(TextGolden, Library) {
  const Library& lib = test::shared_library();
  std::ostringstream os;
  const std::size_t bytes = lib.write(os);
  EXPECT_EQ(lib.serialized_size(), bytes);
  expect_golden(os.str(), bytes, 10333715087192808600ull, 275770);
}

TEST(TextGolden, LibertyEarly) {
  std::ostringstream os;
  const std::size_t bytes =
      write_liberty(test::shared_library(), os, {.el = kEarly});
  expect_golden(os.str(), bytes, 8181165288506853055ull, 182874);
}

TEST(TextGolden, LibertyLate) {
  std::ostringstream os;
  const std::size_t bytes =
      write_liberty(test::shared_library(), os, {.el = kLate});
  expect_golden(os.str(), bytes, 6619002851667764794ull, 183176);
}

TEST(TextGolden, Gnn) {
  std::ostringstream os;
  golden_gnn().save(os);
  const std::string text = os.str();
  expect_golden(text, text.size(), 2704907344060745491ull, 34085);
}

}  // namespace
}  // namespace tmm
