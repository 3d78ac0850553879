#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/fault.hpp"
#include "fault/token_reader.hpp"
#include "flow/checkpoint.hpp"
#include "flow/framework.hpp"
#include "gnn/graphsage.hpp"
#include "liberty/lut.hpp"
#include "macro/ilm.hpp"
#include "macro/model_io.hpp"
#include "netlist/netlist_io.hpp"
#include "sensitivity/ts_eval.hpp"
#include "test_helpers.hpp"
#include "util/atomic_io.hpp"

#ifndef TMM_TEST_CORPUS_DIR
#define TMM_TEST_CORPUS_DIR "tests/corpus"
#endif

namespace tmm {
namespace {

namespace fs = std::filesystem;
using namespace test;

/// Every test leaves the process disarmed regardless of outcome.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

// ---------------------------------------------------------------- errors

TEST(FlowError, RendersFullContext) {
  const fault::FlowError e(fault::ErrorCode::kNumeric, "sta.run",
                           "NaN timing value", "blk_a", "u1/Y");
  const std::string what = e.what();
  EXPECT_NE(what.find("[numeric]"), std::string::npos) << what;
  EXPECT_NE(what.find("sta.run"), std::string::npos) << what;
  EXPECT_NE(what.find("blk_a"), std::string::npos) << what;
  EXPECT_NE(what.find("u1/Y"), std::string::npos) << what;
  EXPECT_EQ(e.code(), fault::ErrorCode::kNumeric);
  EXPECT_EQ(e.message(), "NaN timing value");
  const fault::FlowError with = e.with_design("blk_b");
  EXPECT_EQ(with.design(), "blk_b");
}

TEST(FlowStatus, OrThrowConvertsToFlowError) {
  const fault::Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_NO_THROW(ok.or_throw("stage"));
  const auto bad = fault::Status::failure(fault::ErrorCode::kIo, "disk full");
  EXPECT_FALSE(bad.ok());
  try {
    bad.or_throw("checkpoint.save_sens", "blk_a");
    FAIL() << "expected FlowError";
  } catch (const fault::FlowError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kIo);
    EXPECT_EQ(e.stage(), "checkpoint.save_sens");
    EXPECT_EQ(e.design(), "blk_a");
  }
}

// ----------------------------------------------------------- TokenReader

TEST(TokenReader, ReportsLineAndOffendingToken) {
  std::istringstream is("alpha\nbeta\ngamma oops");
  io::TokenReader tr(is, "mem.txt");
  tr.expect("alpha");
  tr.expect("beta");
  tr.expect("gamma");
  try {
    tr.expect("delta");
    FAIL() << "expected FlowError";
  } catch (const fault::FlowError& e) {
    EXPECT_EQ(e.code(), fault::ErrorCode::kParse);
    const std::string what = e.what();
    EXPECT_NE(what.find("mem.txt:3"), std::string::npos) << what;
    EXPECT_NE(what.find("oops"), std::string::npos) << what;
  }
}

TEST(TokenReader, RejectsNonFiniteAndParsesHexfloat) {
  std::istringstream is("0x1.8p+1 nan");
  io::TokenReader tr(is, "mem.txt");
  EXPECT_DOUBLE_EQ(tr.number("x"), 3.0);
  EXPECT_THROW(tr.number("y"), fault::FlowError);
}

TEST(TokenReader, CapsCountFields) {
  std::istringstream is("999999999 7");
  io::TokenReader tr(is, "mem.txt");
  EXPECT_THROW(tr.size_at_most("count", 1000), fault::FlowError);
}

TEST(TokenReader, EndOfInputNamesTheMissingField) {
  std::istringstream is("just-one");
  io::TokenReader tr(is, "mem.txt");
  tr.token("first");
  try {
    tr.token("wire capacitance");
    FAIL() << "expected FlowError";
  } catch (const fault::FlowError& e) {
    EXPECT_NE(std::string(e.what()).find("wire capacitance"),
              std::string::npos);
  }
}

// --------------------------------------------------------- atomic writes

TEST(AtomicWrite, WritesAndOverwrites) {
  const TempDir dir;
  const std::string path = dir.str("out.txt");
  EXPECT_TRUE(util::atomic_write_file(path, "first").ok());
  EXPECT_TRUE(util::atomic_write_file(path, "second").ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  // No tmp debris next to the final file.
  for (const auto& e : fs::directory_iterator(dir.path))
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos);
}

TEST(AtomicWrite, FailureIsStatusNotThrow) {
  const fault::Status s = util::atomic_write_file(
      "/nonexistent-dir-tmm/deep/out.txt", "data");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), fault::ErrorCode::kIo);
}

TEST(AtomicWrite, InjectedRenameFaultLeavesNoTmpFile) {
  const DisarmGuard guard;
  const TempDir dir;
  ASSERT_TRUE(fault::arm("util.atomic_rename", 1).ok());
  EXPECT_THROW(
      static_cast<void>(util::atomic_write_file(dir.str("x.txt"), "data")),
      fault::FlowError);
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path))
    ++files;
  EXPECT_EQ(files, 0u);  // neither final file nor tmp debris
}

// ------------------------------------------------------- fault injection

TEST(FaultInjection, FiresExactlyOnceOnNthHit) {
  const DisarmGuard guard;
  ASSERT_TRUE(fault::arm("gnn.train_epoch", 3).ok());
  EXPECT_NO_THROW(fault::inject("gnn.train_epoch"));
  EXPECT_NO_THROW(fault::inject("gnn.train_epoch"));
  EXPECT_FALSE(fault::fired());
  EXPECT_EQ(code_of([] { fault::inject("gnn.train_epoch"); }),
            fault::ErrorCode::kInjected);  // the 3rd hit
  EXPECT_TRUE(fault::fired());
  // Single-shot: further hits pass through.
  EXPECT_NO_THROW(fault::inject("gnn.train_epoch"));
  EXPECT_EQ(fault::hits(), 4u);
  // Other sites are never affected.
  EXPECT_NO_THROW(fault::inject("sta.run"));
}

TEST(FaultInjection, RejectsUnregisteredSitesAndBadSpecs) {
  const DisarmGuard guard;
  EXPECT_FALSE(fault::arm("no.such.site", 1).ok());
  EXPECT_FALSE(fault::arm("sta.run", 0).ok());

  ::setenv("TMM_FAULT", "sta.run:2:throw", 1);
  EXPECT_TRUE(fault::arm_from_env().ok());
  fault::disarm();
  ::setenv("TMM_FAULT", "sta.run:zero", 1);
  EXPECT_EQ(fault::arm_from_env().code(), fault::ErrorCode::kConfig);
  ::setenv("TMM_FAULT", "bogus:1", 1);
  EXPECT_EQ(fault::arm_from_env().code(), fault::ErrorCode::kConfig);
  ::unsetenv("TMM_FAULT");
  EXPECT_TRUE(fault::arm_from_env().ok());  // unset = disarmed, ok
}

TEST(FaultInjection, SiteRegistryIsSortedAndNonEmpty) {
  const auto sites = fault::registered_sites();
  ASSERT_GT(sites.size(), 10u);
  for (std::size_t i = 1; i < sites.size(); ++i)
    EXPECT_LT(sites[i - 1], sites[i]);
}

// --------------------------------------------------------- numeric guards

TEST(NumericGuards, LutRejectsNonFiniteSurfaces) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Lut::scalar(nan), fault::FlowError);
  EXPECT_THROW(Lut::table1d({0.0, 1.0}, {1.0, nan}), fault::FlowError);
  EXPECT_THROW(Lut::table2d({0.0, 1.0}, {0.0, 1.0}, {1.0, 2.0, nan, 4.0}),
               fault::FlowError);
}

// ------------------------------------------------------ malformed corpus

TEST(Corpus, DesignsFailWithStructuredParseErrors) {
  const fs::path corpus(TMM_TEST_CORPUS_DIR);
  const char* files[] = {"truncated.dsn",    "bad_header.dsn",
                         "nan_fields.dsn",   "dangling_pin.dsn",
                         "unknown_cell.dsn", "bad_count.dsn"};
  for (const char* f : files) {
    const std::string path = (corpus / f).string();
    try {
      static_cast<void>(read_design_file(path, test::shared_library()));
      FAIL() << f << ": expected FlowError";
    } catch (const fault::FlowError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kParse) << f << ": " << e.what();
      // Diagnostics carry the source file and a line number.
      EXPECT_NE(std::string(e.what()).find(f), std::string::npos)
          << f << ": " << e.what();
    }
  }
}

TEST(Corpus, MacrosFailWithStructuredParseErrors) {
  const fs::path corpus(TMM_TEST_CORPUS_DIR);
  for (const char* f :
       {"truncated.macro", "bad_header.macro", "nan.macro", "bad_role.macro",
        "huge_ordinal.macro", "big_ordinal.macro", "dup_ordinal.macro",
        "gap_ordinal.macro"}) {
    const std::string path = (corpus / f).string();
    try {
      static_cast<void>(read_macro_model_file(path));
      FAIL() << f << ": expected FlowError";
    } catch (const fault::FlowError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kParse) << f << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(f), std::string::npos)
          << f << ": " << e.what();
    }
  }
}

TEST(Corpus, GnnModelsFailWithStructuredParseErrors) {
  const fs::path corpus(TMM_TEST_CORPUS_DIR);
  // huge_dims.gnn: a header implying ~512M weights is refused before
  // the model is built. gcn_engine.gnn: engine kinds other than 0 are gone.
  for (const char* f : {"nan_weight.gnn", "truncated.gnn", "huge_dims.gnn",
                        "gcn_engine.gnn"}) {
    const std::string path = (corpus / f).string();
    try {
      static_cast<void>(load_gnn_file(path));
      FAIL() << f << ": expected FlowError";
    } catch (const fault::FlowError& e) {
      EXPECT_EQ(e.code(), fault::ErrorCode::kParse) << f << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(f), std::string::npos)
          << f << ": " << e.what();
    }
  }
}

TEST(Corpus, MissingFileIsIoNotParse) {
  EXPECT_EQ(code_of([] {
              static_cast<void>(read_design_file("/no/such/file.dsn",
                                                 test::shared_library()));
            }),
            fault::ErrorCode::kIo);
}

// ----------------------------------------------------- per-pin isolation

TEST(TsIsolation, FailedPinIsConservativelyKept) {
  const DisarmGuard guard;
  const Design d = test::make_tiny_design("iso", 17);
  const IlmResult ilm = extract_ilm(build_timing_graph(d));
  const std::vector<bool> candidates(ilm.graph.num_nodes(), true);
  TsConfig cfg;
  cfg.threads = 1;

  const TsResult clean = evaluate_timing_sensitivity(ilm.graph, candidates,
                                                     cfg);
  ASSERT_EQ(clean.failed_pins, 0u);
  ASSERT_GT(clean.evaluated_pins, 2u);

  ASSERT_TRUE(fault::arm("ts.eval_pin", 2).ok());
  const TsResult faulty = evaluate_timing_sensitivity(ilm.graph, candidates,
                                                      cfg);
  EXPECT_EQ(faulty.failed_pins, 1u);
  EXPECT_FALSE(faulty.first_failure.empty());
  // Exactly one pin differs from the clean run, and it reads 1.0 (fully
  // sensitive = kept in the model).
  std::size_t diffs = 0;
  for (std::size_t n = 0; n < clean.ts.size(); ++n) {
    if (clean.ts[n] != faulty.ts[n]) {
      ++diffs;
      EXPECT_EQ(faulty.ts[n], 1.0);
    }
  }
  EXPECT_LE(diffs, 1u);
}

TEST(TsIsolation, SkippedConstraintSetDegradesNotAborts) {
  const DisarmGuard guard;
  const Design d = test::make_tiny_design("iso2", 19);
  const IlmResult ilm = extract_ilm(build_timing_graph(d));
  const std::vector<bool> candidates(ilm.graph.num_nodes(), true);
  TsConfig cfg;
  cfg.threads = 1;
  cfg.num_constraint_sets = 3;
  ASSERT_TRUE(fault::arm("ts.constraint_set", 1).ok());
  const TsResult r = evaluate_timing_sensitivity(ilm.graph, candidates, cfg);
  EXPECT_EQ(r.skipped_sets, 1u);
  EXPECT_GT(r.evaluated_pins, 0u);
}

// ------------------------------------------------------------ checkpoint

TEST(Checkpoint, SensRoundTripIsBitExact) {
  const TempDir dir;
  const FlowConfig cfg;
  const auto ckpt = flow::Checkpoint::open(dir.str(), cfg);
  flow::SensCheckpoint s;
  s.nodes = 4;
  s.positives = 2;
  s.filtered_fraction = 0.123456789123456789;
  s.failed_pins = 1;
  s.skipped_sets = 2;
  s.labels = {0.0f, 1.0f, 0.0f, 1.0f};
  s.ts = {0.0, 1e-300, 0.3333333333333333, 1.0};
  ckpt.save_sens("blk", s);
  const auto back = ckpt.load_sens("blk");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->nodes, s.nodes);
  EXPECT_EQ(back->positives, s.positives);
  EXPECT_EQ(back->failed_pins, s.failed_pins);
  EXPECT_EQ(back->skipped_sets, s.skipped_sets);
  EXPECT_EQ(back->labels, s.labels);  // exact, not approximate
  EXPECT_EQ(back->ts, s.ts);
  EXPECT_EQ(back->filtered_fraction, s.filtered_fraction);
}

TEST(Checkpoint, CorruptSensIsACacheMiss) {
  const TempDir dir;
  const FlowConfig cfg;
  const auto ckpt = flow::Checkpoint::open(dir.str(), cfg);
  std::ofstream(ckpt.sens_path("blk")) << "tmm-sens 1 design blk nodes "
                                          "garbage";
  EXPECT_FALSE(ckpt.load_sens("blk").has_value());
  EXPECT_FALSE(ckpt.load_sens("never_saved").has_value());
}

TEST(Checkpoint, FingerprintMismatchIsAConfigError) {
  const TempDir dir;
  FlowConfig cfg;
  static_cast<void>(flow::Checkpoint::open(dir.str(), cfg));
  cfg.cppr = !cfg.cppr;
  EXPECT_NE(flow::flow_fingerprint(cfg), flow::flow_fingerprint(FlowConfig{}));
  EXPECT_EQ(code_of([&] {
              static_cast<void>(flow::Checkpoint::open(dir.str(), cfg));
            }),
            fault::ErrorCode::kConfig);
}

// Checkpoint directories written by earlier builds must keep resuming:
// the fingerprint of a config is a fixed value, not just self-consistent.
TEST(Checkpoint, FingerprintStable) {
  EXPECT_EQ(flow::flow_fingerprint(FlowConfig{}), 15667680646379942960ull);
  FlowConfig regression;
  regression.regression = true;
  EXPECT_EQ(flow::flow_fingerprint(regression), 1258844375569322429ull);
}

TEST(Checkpoint, SwappedLibraryInvalidatesFingerprint) {
  // A checkpoint written against one liberty library must not resume
  // against another: TS labels depend on cell timing.
  const std::uint64_t base =
      flow::library_fingerprint(test::shared_library());
  // Stable for the same library.
  EXPECT_EQ(base, flow::library_fingerprint(test::shared_library()));
  LibraryGenConfig gen;
  gen.seed += 1;
  EXPECT_NE(base, flow::library_fingerprint(generate_library(gen)));

  const TempDir dir;
  FlowConfig cfg;
  cfg.library_fingerprint = base;
  static_cast<void>(flow::Checkpoint::open(dir.str(), cfg));
  cfg.library_fingerprint = base + 1;  // different library hash
  EXPECT_EQ(code_of([&] {
              static_cast<void>(flow::Checkpoint::open(dir.str(), cfg));
            }),
            fault::ErrorCode::kConfig);
}

TEST(Checkpoint, OpenCleansStaleTmpDebris) {
  const TempDir dir;
  const FlowConfig cfg;
  static_cast<void>(flow::Checkpoint::open(dir.str(), cfg));
  const std::string stale = dir.str("model.gnn.tmp.12345");
  std::ofstream(stale) << "torn";
  ASSERT_TRUE(fs::exists(stale));
  static_cast<void>(flow::Checkpoint::open(dir.str(), cfg));
  EXPECT_FALSE(fs::exists(stale));
}

// -------------------------------------------------- train-level recovery

FlowConfig tiny_train_config() {
  FlowConfig cfg;
  cfg.train.epochs = 4;
  cfg.train.patience = 0;
  cfg.data.ts.threads = 1;
  return cfg;
}

std::string model_bytes(Framework& fw) {
  std::ostringstream os;
  fw.model().save(os);
  return os.str();
}

TEST(TrainIsolation, FailingDesignIsSkippedNotFatal) {
  const DisarmGuard guard;
  const std::vector<Design> designs = {test::make_tiny_design("ta", 23),
                                       test::make_tiny_design("tb", 29)};
  ASSERT_TRUE(fault::arm("flow.train_design", 1).ok());
  Framework fw(tiny_train_config());
  const TrainingSummary sum = fw.train(designs);
  EXPECT_EQ(sum.designs, 1u);
  ASSERT_EQ(sum.failed.size(), 1u);
  EXPECT_EQ(sum.failed[0].design, "ta");
  EXPECT_NE(sum.failed[0].error.find("injected"), std::string::npos);
  EXPECT_TRUE(fw.trained());
}

TEST(TrainIsolation, AllDesignsFailingThrowsUnavailable) {
  const DisarmGuard guard;
  const std::vector<Design> designs = {test::make_tiny_design("tc", 31)};
  ASSERT_TRUE(fault::arm("flow.train_design", 1).ok());
  Framework fw(tiny_train_config());
  EXPECT_EQ(code_of([&] { static_cast<void>(fw.train(designs)); }),
            fault::ErrorCode::kUnavailable);
}

TEST(Resume, InterruptedTrainResumesBitIdentically) {
  const DisarmGuard guard;
  const std::vector<Design> designs = {test::make_tiny_design("ra", 37),
                                       test::make_tiny_design("rb", 41)};
  const FlowConfig cfg = tiny_train_config();

  // Reference: uninterrupted, no checkpointing.
  Framework ref(cfg);
  static_cast<void>(ref.train(designs));
  const std::string ref_bytes = model_bytes(ref);

  // Interrupted: the model save dies after sensitivity data for both
  // designs was checkpointed.
  const TempDir dir;
  FlowConfig ck_cfg = cfg;
  ck_cfg.checkpoint_dir = dir.str();
  {
    Framework broken(ck_cfg);
    ASSERT_TRUE(fault::arm("checkpoint.save_model", 1).ok());
    EXPECT_THROW(static_cast<void>(broken.train(designs)),
                 fault::FlowError);
    fault::disarm();
  }
  ASSERT_TRUE(fs::exists(dir.path / "ts"));
  ASSERT_FALSE(fs::exists(dir.path / "model.gnn"));

  // Resume: sensitivity data restored, model retrained, bit-identical.
  Framework resumed(ck_cfg);
  const TrainingSummary sum = resumed.train(designs);
  EXPECT_EQ(sum.designs_from_checkpoint, 2u);
  EXPECT_FALSE(sum.model_from_checkpoint);
  EXPECT_EQ(model_bytes(resumed), ref_bytes);
  ASSERT_TRUE(fs::exists(dir.path / "model.gnn"));

  // Second resume: the model itself is restored, still bit-identical.
  Framework again(ck_cfg);
  const TrainingSummary sum2 = again.train(designs);
  EXPECT_TRUE(sum2.model_from_checkpoint);
  EXPECT_EQ(model_bytes(again), ref_bytes);
}

// A checkpointed model of another input width (a hand-swapped
// model.gnn) must not be applied to this flow's features.
TEST(Resume, CheckpointModelOfTheWrongWidthIsAConfigError) {
  const DisarmGuard guard;
  const std::vector<Design> designs = {test::make_tiny_design("rw", 47)};
  const TempDir dir;
  FlowConfig cfg = tiny_train_config();
  cfg.checkpoint_dir = dir.str();
  static_cast<void>(Framework(cfg).train(designs));
  GnnModelConfig narrow;
  narrow.input_dim = kNumBasicFeatures;  // the flow extracts 9
  save_gnn_file(GnnModel(narrow), dir.str("model.gnn"));
  Framework resumed(cfg);
  EXPECT_EQ(code_of([&] { static_cast<void>(resumed.train(designs)); }),
            fault::ErrorCode::kConfig);
  EXPECT_FALSE(resumed.trained());
}

TEST(Resume, RegressionModeResumesBitIdentically) {
  // The regression transform rescales labels from raw TS values; resume
  // must reproduce ts_scale exactly from the hexfloat checkpoints.
  const DisarmGuard guard;
  const std::vector<Design> designs = {test::make_tiny_design("rr", 43)};
  FlowConfig cfg = tiny_train_config();
  cfg.regression = true;

  Framework ref(cfg);
  static_cast<void>(ref.train(designs));

  const TempDir dir;
  cfg.checkpoint_dir = dir.str();
  {
    Framework first(cfg);
    ASSERT_TRUE(fault::arm("checkpoint.save_model", 1).ok());
    EXPECT_THROW(static_cast<void>(first.train(designs)), fault::FlowError);
    fault::disarm();
  }
  Framework resumed(cfg);
  static_cast<void>(resumed.train(designs));
  EXPECT_EQ(resumed.ts_scale(), ref.ts_scale());
  EXPECT_EQ(model_bytes(resumed), model_bytes(ref));
}

}  // namespace
}  // namespace tmm
