// Crash-safe checkpoint directory for long attack campaigns.
//
// A checkpoint is a directory holding named binary artifacts (trained
// models, completed fold results) plus a manifest.json that records, for
// every artifact, its byte size and CRC32, and a `run_key` identifying
// the computation the artifacts belong to (config + seed + input
// fingerprint). The manager guarantees:
//
//   * Atomicity: artifacts and the manifest are written via
//     write-temp-then-rename (common::atomic_write_file), so a SIGKILL
//     at any instant leaves either the old or the new file, never a
//     truncated one.
//   * Ordering: an artifact is renamed into place *before* the manifest
//     that references it, so the manifest never points at a missing or
//     partial file.
//   * Validation: read() re-checks size and CRC against the manifest
//     (and the artifact's own sealed CRC envelope downstream). Any
//     mismatch is reported as a structured diagnostic and the artifact
//     is treated as absent — the caller recomputes, it never trusts
//     corrupt bytes.
//   * Isolation: a manifest whose run_key differs from the current
//     run's is a checkpoint of some *other* computation; it is ignored
//     wholesale (with a diagnostic), because resuming from it would
//     silently mix results of different configurations.
//   * Exclusivity: open() takes an exclusive inter-process flock on
//     `dir/.lock` for the manager's lifetime, so a second process
//     pointed at the same directory fails fast with a diagnostic naming
//     the holder instead of silently racing manifest.json. The kernel
//     drops the flock when the holder dies (even by SIGKILL), so a
//     stale lock file from a dead pid is reclaimed, never deadlocked
//     on.
//
// Leftover `*.tmp` files (a crash between temp-write and rename) are
// swept on open; they are never referenced by the manifest, so removing
// them cannot lose committed state.
//
// write() is thread-safe (folds complete concurrently); reads are
// expected at the serial resume point. write() is also the artifact
// commit point counted by the REPRO_FAULT hook (common/fault.hpp),
// which lets crash tests place a kill / torn write / hang at an exact
// commit ordinal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/lockfile.hpp"
#include "common/status.hpp"

namespace repro::common {

/// A run key or fingerprint as 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

class CheckpointManager {
 public:
  /// Creates the directory (and parents) if needed, acquires the
  /// inter-process directory lock, and loads the manifest if one
  /// exists. `run_key` scopes the checkpoint: artifacts recorded under
  /// a different key are discarded. Diagnostics about stale or corrupt
  /// state go to `sink` (codes "checkpoint.*", "lockfile.*"). A
  /// directory locked by a live process is kFailedPrecondition naming
  /// the holder.
  static StatusOr<CheckpointManager> open(const std::string& dir,
                                          std::uint64_t run_key,
                                          DiagnosticSink& sink);

  /// Opens an *existing* checkpoint adopting whatever run_key its
  /// manifest records (0 if none) instead of imposing one — the
  /// campaign merge step uses this to validate shard artifacts without
  /// re-deriving the workers' key. Takes the same exclusive lock;
  /// kNotFound when the directory does not exist.
  static StatusOr<CheckpointManager> open_existing(const std::string& dir,
                                                   DiagnosticSink& sink);

  CheckpointManager(CheckpointManager&&) = default;
  CheckpointManager& operator=(CheckpointManager&&) = default;

  const std::string& dir() const { return dir_; }
  std::uint64_t run_key() const { return run_key_; }

  /// True if the manifest records `name` (the artifact may still fail
  /// validation at read time).
  bool has(const std::string& name) const;

  /// Artifact names currently in the manifest, sorted.
  std::vector<std::string> names() const;

  /// Validated artifact bytes, or: kNotFound if unrecorded, kDataLoss if
  /// the file is missing / the wrong size / fails its CRC. On kDataLoss
  /// a "checkpoint.corrupt_artifact" diagnostic is reported to `sink`
  /// and the manifest entry is dropped so a later write can replace it.
  StatusOr<std::string> read(const std::string& name, DiagnosticSink& sink);

  /// Atomically writes an artifact and then the manifest referencing
  /// it. Thread-safe; concurrent writers of *different* names are fine.
  Status write(const std::string& name, const std::string& data);

  /// Removes an artifact and its manifest entry (e.g. a per-fold model
  /// once the fold result is recorded). Missing artifacts are fine.
  Status remove(const std::string& name);

  /// Path of the lock file open() acquires inside `dir`.
  static std::string lock_path(const std::string& dir);

 private:
  CheckpointManager() = default;

  static StatusOr<CheckpointManager> open_impl(const std::string& dir,
                                               std::uint64_t run_key,
                                               bool adopt_key,
                                               DiagnosticSink& sink);

  Status write_manifest_locked();
  std::string path_of(const std::string& name) const;

  struct Entry {
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
  };

  std::string dir_;
  std::uint64_t run_key_ = 0;
  std::map<std::string, Entry> entries_;
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  std::optional<FileLock> lock_;
};

}  // namespace repro::common
