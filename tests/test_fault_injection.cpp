// Fault-injection suite for the LEF/DEF ingestion path.
//
// Round-trips a small synthetic design through the writers, then feeds
// every corruption from tests/fault_injection.hpp (truncation, line
// deletion/duplication/swap, token mangling, numeric and layer corruption,
// degenerate files) to the Status-returning parsers. The contract under
// test: each corruption either yields a design that survives validation
// and challenge extraction, or a structured diagnostic — never an escaped
// exception, crash, hang, or silent empty result.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "core/pipeline.hpp"
#include "fault_injection.hpp"
#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"
#include "splitmfg/validate.hpp"
#include "synth/synth.hpp"
#include "tech/tech.hpp"

namespace repro {
namespace {

constexpr geom::Dbu kGcell = 800;
constexpr int kSplit = 8;

// One shared design for the whole suite: generation + routing is the
// expensive part, the corruptions themselves are cheap string edits.
class FaultInjection : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::SynthParams params = synth::preset("sb18");
    params.num_cells = 350;
    params.name = "faulty";
    design_ = new synth::SynthDesign(synth::generate(params));
    tech_ = new tech::Technology(tech::Technology::make_default(kGcell));

    std::stringstream lef_ss;
    lefdef::write_lef(lef_ss, *tech_, *design_->lib);
    lef_text_ = new std::string(lef_ss.str());

    std::stringstream full_ss;
    lefdef::write_def(full_ss, *design_->netlist, design_->routes);
    full_def_text_ = new std::string(full_ss.str());

    std::stringstream feol_ss;
    lefdef::write_def(feol_ss, *design_->netlist, design_->routes, kSplit);
    feol_def_text_ = new std::string(feol_ss.str());
  }

  static void TearDownTestSuite() {
    delete design_;
    delete tech_;
    delete lef_text_;
    delete full_def_text_;
    delete feol_def_text_;
    design_ = nullptr;
    tech_ = nullptr;
    lef_text_ = feol_def_text_ = full_def_text_ = nullptr;
  }

  /// Runs one corrupted DEF through the full ingestion path: parse,
  /// validate (with repair), rebuild the route DB, cut the challenge. Any
  /// escaped exception is a test failure attributed to the corruption.
  static void ingest_def(const repro::testing::Corruption& c) {
    common::DiagnosticSink sink(c.name);
    try {
      std::istringstream is(c.text);
      common::StatusOr<lefdef::DefDesign> r =
          lefdef::read_def(is, design_->lib, sink);
      if (!r.ok()) {
        EXPECT_TRUE(sink.has_errors())
            << c.name << ": failing Status without a diagnostic";
        return;
      }
      splitmfg::ValidationOptions vopt;
      vopt.num_metal_layers = tech_->num_metal_layers();
      vopt.num_via_layers = tech_->num_via_layers();
      vopt.gcell_size = kGcell;
      vopt.split_layer = kSplit;
      vopt.repair = true;
      const splitmfg::ValidationReport rep =
          splitmfg::validate_design(*r, vopt, sink);
      if (!rep.ok()) {
        EXPECT_TRUE(sink.has_errors())
            << c.name << ": failed validation without a diagnostic";
        return;
      }
      const route::RouteDB db = lefdef::to_route_db(*r, kGcell);
      const auto ch = splitmfg::make_challenge(r->netlist, db, kSplit);
      (void)ch;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << ": exception escaped ingestion: "
                    << e.what();
    } catch (...) {
      ADD_FAILURE() << c.name << ": non-std exception escaped ingestion";
    }
  }

  static synth::SynthDesign* design_;
  static tech::Technology* tech_;
  static std::string* lef_text_;
  static std::string* full_def_text_;
  static std::string* feol_def_text_;
};

synth::SynthDesign* FaultInjection::design_ = nullptr;
tech::Technology* FaultInjection::tech_ = nullptr;
std::string* FaultInjection::lef_text_ = nullptr;
std::string* FaultInjection::full_def_text_ = nullptr;
std::string* FaultInjection::feol_def_text_ = nullptr;

TEST_F(FaultInjection, BatteryCoversAtLeastHundredDistinctCorruptions) {
  std::set<std::string> names;
  for (const auto& c : repro::testing::make_corruptions(*lef_text_, "lef"))
    names.insert(c.name);
  for (const auto& c :
       repro::testing::make_corruptions(*full_def_text_, "def"))
    names.insert(c.name);
  for (const auto& c :
       repro::testing::make_corruptions(*feol_def_text_, "feol"))
    names.insert(c.name);
  EXPECT_GE(names.size(), 100u);
}

TEST_F(FaultInjection, CorruptedLefNeverEscapes) {
  for (const auto& c :
       repro::testing::make_corruptions(*lef_text_, "lef")) {
    common::DiagnosticSink sink(c.name);
    try {
      std::istringstream is(c.text);
      common::StatusOr<lefdef::LefContents> r = lefdef::read_lef(is, sink);
      if (r.ok()) {
        // A parse that survives must hand back a coherent stack; the
        // Technology invariants (vias + 1 == metals) already held at
        // construction, or we would have crashed on the active assert.
        EXPECT_GT(r->tech.num_metal_layers(), 0) << c.name;
        EXPECT_GT(r->tech.gcell_size(), 0) << c.name;
      } else {
        EXPECT_TRUE(sink.has_errors())
            << c.name << ": failing Status without a diagnostic";
        const common::Diagnostic* first = sink.first_error();
        ASSERT_NE(first, nullptr) << c.name;
        EXPECT_FALSE(first->code.empty()) << c.name;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << ": exception escaped read_lef: "
                    << e.what();
    }
  }
}

TEST_F(FaultInjection, CorruptedFullDefNeverEscapes) {
  for (const auto& c :
       repro::testing::make_corruptions(*full_def_text_, "def")) {
    ingest_def(c);
  }
}

TEST_F(FaultInjection, CorruptedFeolDefNeverEscapes) {
  for (const auto& c :
       repro::testing::make_corruptions(*feol_def_text_, "feol")) {
    ingest_def(c);
  }
}

TEST_F(FaultInjection, MultipleDefectsAreAllCollected) {
  // Three independently bad components: the parser must recover per line
  // and report each one, not stop at the first.
  const std::string text =
      "DESIGN multi ;\n"
      "DIEAREA ( 0 0 ) ( 100000 100000 ) ;\n"
      "COMPONENTS 3 ;\n"
      "- u1 NOSUCHMACRO ( 100 100 ) ;\n"
      "- u2 INV_X1 ( bogus 200 ) ;\n"
      "- u3 NOSUCHEITHER ( 300 300 ) ;\n"
      "END COMPONENTS\n"
      "NETS 0 ;\n"
      "END NETS\n"
      "END DESIGN\n";
  const auto lib = std::make_shared<const netlist::Library>(
      netlist::Library::make_default());
  common::DiagnosticSink sink("multi.def");
  std::istringstream is(text);
  const auto r = lefdef::read_def(is, lib, sink);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(sink.num_errors(), 3u) << sink.summary();
  // Each finding carries the offending line.
  std::set<int> lines;
  for (const auto& d : sink.diagnostics()) {
    if (d.severity >= common::Severity::kError) lines.insert(d.line);
  }
  EXPECT_TRUE(lines.count(4)) << sink.summary();
  EXPECT_TRUE(lines.count(5)) << sink.summary();
  EXPECT_TRUE(lines.count(6)) << sink.summary();
}

TEST_F(FaultInjection, DiagnosticFloodIsCappedNotFatal) {
  // Thousands of bad lines: the sink caps storage, the parser caps the
  // error count and aborts with a structured "too many errors" fatal
  // instead of grinding through the whole flood.
  std::string text = "DESIGN flood ;\n"
                     "DIEAREA ( 0 0 ) ( 100000 100000 ) ;\n"
                     "COMPONENTS 5000 ;\n";
  for (int i = 0; i < 5000; ++i) {
    text += "- u" + std::to_string(i) + " NOSUCH ( 0 0 ) ;\n";
  }
  text += "END COMPONENTS\nNETS 0 ;\nEND NETS\nEND DESIGN\n";
  const auto lib = std::make_shared<const netlist::Library>(
      netlist::Library::make_default());
  common::DiagnosticSink sink("flood.def");
  std::istringstream is(text);
  const auto r = lefdef::read_def(is, lib, sink);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(sink.has_errors());
  EXPECT_LE(sink.size(), 1024u);  // storage cap respected
}

class BatchIsolation : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::SynthParams params = synth::preset("sb18");
    params.num_cells = 250;
    params.name = "batch";
    design_ = std::make_unique<synth::SynthDesign>(synth::generate(params));
    tech_ = std::make_unique<tech::Technology>(
        tech::Technology::make_default(kGcell));

    std::stringstream def_ss;
    lefdef::write_def(def_ss, *design_->netlist, design_->routes);
    def_text_ = def_ss.str();

    // Per-test file names: ctest runs these tests as concurrent
    // processes sharing one temp dir, and TearDown removes the files.
    dir_ = ::testing::TempDir() +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    good1_ = dir_ + "_good1.def";
    bad_ = dir_ + "_bad.def";
    good2_ = dir_ + "_good2.def";
    write_file(good1_, def_text_);
    // Truncate mid-file: unrecoverable, the design must be skipped.
    write_file(bad_, def_text_.substr(0, def_text_.size() / 2));
    write_file(good2_, def_text_);
  }

  void TearDown() override {
    std::remove(good1_.c_str());
    std::remove(bad_.c_str());
    std::remove(good2_.c_str());
  }

  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream os(path);
    ASSERT_TRUE(os.is_open()) << path;
    os << text;
  }

  lefdef::LefContents lef() const {
    return lefdef::LefContents{*tech_, *design_->lib};
  }

  std::unique_ptr<synth::SynthDesign> design_;
  std::unique_ptr<tech::Technology> tech_;
  std::string def_text_, dir_, good1_, bad_, good2_;
};

TEST_F(BatchIsolation, CorruptDesignIsSkippedOthersLoad) {
  core::DefLoadOptions opt;
  opt.split_layer = kSplit;
  common::DiagnosticSink sink;
  const lefdef::LefContents contents = lef();
  core::DefBatch batch = core::load_challenges_from_defs(
      {good1_, bad_, good2_}, contents, opt, sink);

  EXPECT_EQ(batch.num_loaded, 2);
  EXPECT_EQ(batch.num_skipped, 1);
  ASSERT_EQ(batch.designs.size(), 3u);
  EXPECT_TRUE(batch.designs[0].loaded);
  EXPECT_FALSE(batch.designs[1].loaded);
  EXPECT_TRUE(batch.designs[2].loaded);
  EXPECT_FALSE(batch.designs[1].status.ok());
  EXPECT_TRUE(sink.has_errors());

  auto loaded = batch.take_loaded();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_GT(loaded[0].num_vpins(), 0);
  EXPECT_GT(loaded[1].num_vpins(), 0);
}

TEST_F(BatchIsolation, StrictModeStopsAtFirstFailure) {
  core::DefLoadOptions opt;
  opt.split_layer = kSplit;
  opt.strict = true;
  common::DiagnosticSink sink;
  const lefdef::LefContents contents = lef();
  core::DefBatch batch = core::load_challenges_from_defs(
      {good1_, bad_, good2_}, contents, opt, sink);

  EXPECT_EQ(batch.num_skipped, 1);
  EXPECT_EQ(batch.num_loaded, 1);
  // good2's outcome is not reported.
  EXPECT_EQ(batch.designs.size(), 2u);
}

TEST_F(BatchIsolation, MissingFileIsIsolatedToo) {
  core::DefLoadOptions opt;
  opt.split_layer = kSplit;
  common::DiagnosticSink sink;
  const lefdef::LefContents contents = lef();
  core::DefBatch batch = core::load_challenges_from_defs(
      {dir_ + "_does_not_exist.def", good1_}, contents, opt, sink);
  EXPECT_EQ(batch.num_loaded, 1);
  EXPECT_EQ(batch.num_skipped, 1);
  EXPECT_EQ(batch.designs[0].status.code(), common::StatusCode::kIoError);
}

TEST_F(BatchIsolation, SuiteLoadLeavesEachLoadedFlagTruthful) {
  core::DefLoadOptions opt;
  opt.split_layer = kSplit;
  common::DiagnosticSink sink, victim_sink;
  const lefdef::LefContents contents = lef();
  core::DefBatch training;
  const auto suite = core::load_suite_from_defs(
      good1_, {good1_, bad_, good2_}, contents, opt, training, sink,
      victim_sink);
  ASSERT_TRUE(suite.ok()) << suite.status().to_string();
  EXPECT_EQ(suite->size(), 3u);  // the victim plus two training designs
  // The training challenges were moved into the suite; the outcomes
  // still say which designs loaded.
  ASSERT_EQ(training.designs.size(), 3u);
  for (std::size_t i = 0; i < training.designs.size(); ++i) {
    EXPECT_EQ(training.designs[i].loaded, i != 1) << training.designs[i].path;
    EXPECT_EQ(training.designs[i].status.ok(), i != 1);
  }
  EXPECT_EQ(training.num_loaded, 2);
  EXPECT_EQ(training.num_skipped, 1);
}

// Everything a caller can observe of a batch load, rendered to text:
// per-design flags, statuses and validation reports, every stored
// diagnostic, and the sink's totals.
std::vector<std::string> observe_batch(const core::DefBatch& batch,
                                       const common::DiagnosticSink& sink) {
  std::vector<std::string> out;
  out.push_back("loaded=" + std::to_string(batch.num_loaded) +
                " skipped=" + std::to_string(batch.num_skipped));
  for (const core::DefLoadOutcome& d : batch.designs) {
    const splitmfg::ValidationReport& v = d.validation;
    out.push_back(d.path + " loaded=" + std::to_string(d.loaded) +
                  " status=" + d.status.to_string() + " validation=" +
                  v.summary() + " " + std::to_string(v.fatal) + "/" +
                  std::to_string(v.repaired) + "/" +
                  std::to_string(v.ignored) + "/" +
                  std::to_string(v.cells_clamped) + "/" +
                  std::to_string(v.wires_dropped) + "/" +
                  std::to_string(v.vias_dropped) + "/" +
                  std::to_string(v.duplicates_removed) + "/" +
                  std::to_string(v.endpoints_swapped));
  }
  for (const common::Diagnostic& d : sink.diagnostics()) {
    out.push_back(d.to_string());
  }
  out.push_back("summary=" + sink.summary() +
                " dropped=" + std::to_string(sink.dropped()));
  return out;
}

TEST_F(BatchIsolation, ParallelIngestMatchesSerial) {
  // Give good2 a repairable defect (a duplicated wire segment): it still
  // loads, but reports a diagnostic that strict mode must not replay.
  const std::size_t wire = def_text_.find("  WIRE M");
  ASSERT_NE(wire, std::string::npos);
  const std::size_t eol = def_text_.find('\n', wire) + 1;
  write_file(good2_, def_text_.substr(0, eol) +
                         def_text_.substr(wire, eol - wire) +
                         def_text_.substr(eol));
  const lefdef::LefContents contents = lef();
  const std::vector<std::string> paths{good1_, bad_, good2_};
  for (const bool strict : {false, true}) {
    core::DefLoadOptions opt;
    opt.split_layer = kSplit;
    opt.strict = strict;
    std::vector<std::string> views[2];
    for (const int pass : {0, 1}) {
      common::set_global_threads(pass == 0 ? 1 : 4);
      common::DiagnosticSink sink;
      const core::DefBatch batch =
          core::load_challenges_from_defs(paths, contents, opt, sink);
      views[pass] = observe_batch(batch, sink);
      // good2's repair diagnostic is reported in lenient mode only.
      std::size_t from_good2 = 0;
      for (const common::Diagnostic& d : sink.diagnostics()) {
        if (d.file == good2_) ++from_good2;
      }
      if (strict) {
        EXPECT_EQ(from_good2, 0u);
      } else {
        EXPECT_GT(from_good2, 0u);
      }
    }
    common::set_global_threads(0);
    EXPECT_EQ(views[0], views[1]) << "strict=" << strict;
  }
}

// A stream reported into one capped sink, and the same stream split over
// two sinks that are then appended, must agree on counts, storage and
// drops — the guarantee the parallel batch loader's replay relies on.
TEST(DiagnosticSink, AppendMatchesReportingTheSameStream) {
  const auto report_stream = [](common::DiagnosticSink& s, int first,
                                int count) {
    for (int k = first; k < first + count; ++k) {
      s.set_file("f" + std::to_string(k % 3) + ".def");
      s.report(static_cast<common::Severity>(k % 4),
               "code." + std::to_string(k), k, "message " + std::to_string(k));
    }
  };
  const auto expect_same = [](const common::DiagnosticSink& a,
                              const common::DiagnosticSink& b) {
    for (int sev = 0; sev < 4; ++sev) {
      EXPECT_EQ(a.count(static_cast<common::Severity>(sev)),
                b.count(static_cast<common::Severity>(sev)));
    }
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.dropped(), b.dropped());
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.file(), b.file());
    ASSERT_EQ(a.diagnostics().size(), b.diagnostics().size());
    for (std::size_t i = 0; i < a.diagnostics().size(); ++i) {
      EXPECT_EQ(a.diagnostics()[i].to_string(),
                b.diagnostics()[i].to_string());
    }
  };
  constexpr std::size_t kCap = 8;
  // The merged sink's cap is reached inside the second part (3, 6; at 3
  // the second part also overflows its own cap) or inside the first (11).
  for (const int first_part : {3, 6, 11}) {
    common::DiagnosticSink one;
    one.set_max_stored(kCap);
    report_stream(one, 0, 14);

    common::DiagnosticSink merged;
    merged.set_max_stored(kCap);
    common::DiagnosticSink head, tail;
    head.set_max_stored(kCap);
    tail.set_max_stored(kCap);
    report_stream(head, 0, first_part);
    report_stream(tail, first_part, 14 - first_part);
    merged.append(head);
    merged.append(tail);

    SCOPED_TRACE("first_part=" + std::to_string(first_part));
    EXPECT_EQ(one.size(), kCap);
    EXPECT_EQ(one.dropped(), 14 - kCap);
    expect_same(one, merged);
  }
}

}  // namespace
}  // namespace repro
