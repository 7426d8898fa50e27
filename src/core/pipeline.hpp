// End-to-end pipeline helpers: synthetic suite -> split challenges, and the
// hardened file-ingestion path: DEF files -> validated split challenges
// with per-design failure isolation -> the leave-one-out suite the tools
// attack.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/status.hpp"
#include "core/cross_validation.hpp"
#include "lefdef/lefdef.hpp"
#include "splitmfg/split.hpp"
#include "splitmfg/validate.hpp"
#include "synth/synth.hpp"

namespace repro::core {

/// Cuts every design of a generated suite at `split_layer`.
std::vector<splitmfg::SplitChallenge> build_challenges(
    std::span<const synth::SynthDesign> designs, int split_layer,
    const splitmfg::SplitOptions& opt = {});

/// Convenience: generate the five-preset suite and cut it.
ChallengeSuite make_suite(std::span<const synth::SynthDesign> designs,
                          int split_layer,
                          const splitmfg::SplitOptions& opt = {});

/// Options for loading DEF designs from disk.
struct DefLoadOptions {
  int split_layer = 8;
  /// Stop the batch at the first bad design (in path order): designs after
  /// it are not reported, though the parallel load may have parsed them.
  bool strict = false;
  bool validate = true;  ///< run the layout validator before the cut
  bool repair = true;    ///< let the validator auto-repair defects
  splitmfg::SplitOptions split;
};

/// Outcome of loading one DEF file.
struct DefLoadOutcome {
  std::string path;
  bool loaded = false;
  splitmfg::SplitChallenge challenge;     ///< valid iff `loaded`, until
                                          ///< DefBatch::take_loaded
  splitmfg::ValidationReport validation;  ///< empty when !opt.validate
  common::Status status;                  ///< why the design was skipped
};

/// Outcome of a batch load: per-design results plus totals.
struct DefBatch {
  std::vector<DefLoadOutcome> designs;
  int num_loaded = 0;
  int num_skipped = 0;

  /// Moves the successfully loaded challenges out, in input order. Every
  /// outcome keeps its `loaded` flag and status, so callers can still
  /// report which designs loaded; a loaded outcome's `challenge` is
  /// moved-from afterwards.
  std::vector<splitmfg::SplitChallenge> take_loaded();
};

/// Loads one DEF file against an already-parsed LEF, validates it (per
/// `opt`), and cuts it at `opt.split_layer`. Never throws: parse errors,
/// validation failures, and I/O failures all come back as a failing Status
/// with the full story in `sink`.
common::StatusOr<splitmfg::SplitChallenge> load_challenge_from_def(
    const std::string& path, const lefdef::LefContents& lef,
    const std::shared_ptr<const netlist::Library>& lib,
    const DefLoadOptions& opt, common::DiagnosticSink& sink,
    splitmfg::ValidationReport* validation = nullptr);

/// Loads a batch of DEF files with per-design failure isolation: a corrupt
/// or invalid design is reported (diagnostics in `sink`, Status in its
/// DefLoadOutcome) and skipped while the rest of the batch proceeds.
/// Designs are loaded in parallel across the pool, each into its own
/// outcome slot and diagnostic sink; the sinks are then replayed into
/// `sink` in path order, so the batch and the diagnostic stream are the
/// same at any thread count. With `opt.strict` the batch stops at the
/// first failure instead, mirroring the old fail-fast behaviour: the
/// returned batch and `sink` hold exactly what a serial load that stopped
/// there would have reported.
DefBatch load_challenges_from_defs(
    const std::vector<std::string>& paths, const lefdef::LefContents& lef,
    const DefLoadOptions& opt, common::DiagnosticSink& sink);

/// Loads the leave-one-out suite [victim, training...] from DEF files.
/// Every tool uses this order, so fold 0 is the train -> victim attack and
/// fold indices (and result digests) line up between split_attack and
/// split_attack_server. Training designs load through
/// load_challenges_from_defs into `training` (its loaded challenges are
/// moved into the suite) with diagnostics in `sink`; the victim's
/// diagnostics go to `victim_sink`. Fails when a training design fails
/// under opt.strict, when no training design loads, or when the victim
/// does not load (a bad victim is always fatal).
common::StatusOr<ChallengeSuite> load_suite_from_defs(
    const std::string& victim, const std::vector<std::string>& train,
    const lefdef::LefContents& lef, const DefLoadOptions& opt,
    DefBatch& training, common::DiagnosticSink& sink,
    common::DiagnosticSink& victim_sink);

}  // namespace repro::core
