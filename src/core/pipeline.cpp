#include "core/pipeline.hpp"

#include <exception>
#include <fstream>
#include <utility>

#include "common/obs.hpp"
#include "common/parallel.hpp"

namespace repro::core {

std::vector<splitmfg::SplitChallenge> build_challenges(
    std::span<const synth::SynthDesign> designs, int split_layer,
    const splitmfg::SplitOptions& opt) {
  std::vector<splitmfg::SplitChallenge> out;
  out.reserve(designs.size());
  for (const synth::SynthDesign& d : designs) {
    out.push_back(
        splitmfg::make_challenge(*d.netlist, d.routes, split_layer, opt));
  }
  return out;
}

ChallengeSuite make_suite(std::span<const synth::SynthDesign> designs,
                          int split_layer,
                          const splitmfg::SplitOptions& opt) {
  return ChallengeSuite(build_challenges(designs, split_layer, opt));
}

common::StatusOr<splitmfg::SplitChallenge> load_challenge_from_def(
    const std::string& path, const lefdef::LefContents& lef,
    const std::shared_ptr<const netlist::Library>& lib,
    const DefLoadOptions& opt, common::DiagnosticSink& sink,
    splitmfg::ValidationReport* validation) {
  OBS_SPAN("ingest.design");
  sink.set_file(path);

  if (opt.split_layer < 1 || opt.split_layer > lef.tech.num_via_layers()) {
    sink.error("load.bad_split_layer", 0,
               "split layer " + std::to_string(opt.split_layer) +
                   " outside the technology's via stack [1, " +
                   std::to_string(lef.tech.num_via_layers()) + "]");
    return common::Status::InvalidArgument(
        "split layer outside the via stack");
  }

  std::ifstream in(path);
  if (!in) {
    sink.error("load.cannot_open", 0, "cannot open " + path);
    return common::Status::IoError("cannot open " + path);
  }

  common::StatusOr<lefdef::DefDesign> parsed = lefdef::read_def(in, lib, sink);
  if (!parsed.ok()) return parsed.status();
  lefdef::DefDesign def = std::move(parsed).value();

  if (opt.validate) {
    splitmfg::ValidationOptions vopt;
    vopt.num_metal_layers = lef.tech.num_metal_layers();
    vopt.num_via_layers = lef.tech.num_via_layers();
    vopt.gcell_size = lef.tech.gcell_size();
    vopt.split_layer = opt.split_layer;
    vopt.repair = opt.repair;
    const splitmfg::ValidationReport report =
        splitmfg::validate_design(def, vopt, sink);
    if (validation != nullptr) *validation = report;
    // Per-design validation taxonomy counts (fatal / repaired / ignored)
    // feed the run report's ingestion-health block.
    OBS_COUNT("validate.fatal_defects", report.fatal);
    OBS_COUNT("validate.repaired_defects", report.repaired);
    OBS_COUNT("validate.ignored_defects", report.ignored);
    if (!report.ok()) {
      return common::Status::FailedPrecondition("layout validation " +
                                                report.summary());
    }
  }

  // The cut itself runs on validated data, but a final guard keeps any
  // residual failure contained to this design.
  try {
    const route::RouteDB db = lefdef::to_route_db(def, lef.tech.gcell_size());
    return splitmfg::make_challenge(def.netlist, db, opt.split_layer,
                                    opt.split);
  } catch (const std::exception& e) {
    sink.error("load.challenge_failed", 0,
               std::string("challenge extraction failed: ") + e.what());
    return common::Status::Internal(e.what());
  }
}

DefBatch load_challenges_from_defs(const std::vector<std::string>& paths,
                                   const lefdef::LefContents& lef,
                                   const DefLoadOptions& opt,
                                   common::DiagnosticSink& sink) {
  OBS_SPAN("ingest.batch");
  const auto lib = std::make_shared<const netlist::Library>(lef.lib);
  const std::size_t n = paths.size();
  // Designs load concurrently: design i writes only outcome slot i and
  // its own sink (with the caller's storage cap, so the replay below
  // stores exactly what reporting into `sink` directly would).
  std::vector<DefLoadOutcome> outcomes(n);
  std::vector<common::DiagnosticSink> sinks(n);
  common::parallel_for(static_cast<std::int64_t>(n), [&](std::int64_t i) {
    const std::size_t s = static_cast<std::size_t>(i);
    DefLoadOutcome& outcome = outcomes[s];
    common::DiagnosticSink& own = sinks[s];
    own.set_max_stored(sink.max_stored());
    outcome.path = paths[s];
    common::StatusOr<splitmfg::SplitChallenge> ch = load_challenge_from_def(
        outcome.path, lef, lib, opt, own, &outcome.validation);
    if (ch.ok()) {
      outcome.loaded = true;
      outcome.challenge = std::move(ch).value();
    } else {
      outcome.status = ch.status();
    }
  });

  // Replay in path order, so the batch and the caller's diagnostic stream
  // are those of a serial loop. Under opt.strict the replay stops at the
  // first failure; designs after it were parsed, but their outcomes and
  // diagnostics are discarded.
  DefBatch batch;
  for (std::size_t s = 0; s < n; ++s) {
    sink.append(sinks[s]);
    if (outcomes[s].loaded) {
      ++batch.num_loaded;
    } else {
      ++batch.num_skipped;
    }
    batch.designs.push_back(std::move(outcomes[s]));
    if (opt.strict && batch.num_skipped > 0) break;
  }
  OBS_COUNT("ingest.designs_loaded", batch.num_loaded);
  OBS_COUNT("ingest.designs_skipped", batch.num_skipped);
  common::obs::record_diagnostics("ingest.diag", sink);
  return batch;
}

std::vector<splitmfg::SplitChallenge> DefBatch::take_loaded() {
  std::vector<splitmfg::SplitChallenge> out;
  out.reserve(static_cast<std::size_t>(num_loaded));
  for (DefLoadOutcome& d : designs) {
    if (d.loaded) out.push_back(std::move(d.challenge));
  }
  return out;
}

common::StatusOr<ChallengeSuite> load_suite_from_defs(
    const std::string& victim, const std::vector<std::string>& train,
    const lefdef::LefContents& lef, const DefLoadOptions& opt,
    DefBatch& training, common::DiagnosticSink& sink,
    common::DiagnosticSink& victim_sink) {
  training = load_challenges_from_defs(train, lef, opt, sink);
  if (opt.strict && training.num_skipped > 0) {
    return common::Status::FailedPrecondition(
        std::to_string(training.num_skipped) +
        " training design(s) failed to load");
  }
  if (training.num_loaded == 0) {
    return common::Status::FailedPrecondition("no usable training designs");
  }
  const auto lib = std::make_shared<const netlist::Library>(lef.lib);
  common::StatusOr<splitmfg::SplitChallenge> v =
      load_challenge_from_def(victim, lef, lib, opt, victim_sink);
  if (!v.ok()) {
    return common::Status(v.status().code(),
                          "victim " + victim + ": " + v.status().to_string());
  }
  std::vector<splitmfg::SplitChallenge> all;
  all.reserve(static_cast<std::size_t>(training.num_loaded) + 1);
  all.push_back(std::move(v).value());
  for (splitmfg::SplitChallenge& ch : training.take_loaded()) {
    all.push_back(std::move(ch));
  }
  return ChallengeSuite(std::move(all));
}

}  // namespace repro::core
