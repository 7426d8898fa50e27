// The attack server's one in-memory cache: warm models and sealed
// /shard results in a single LRU under one byte budget (--cache-mb),
// keyed by their checkpoint-store artifact names ("model_<hex16>",
// "result_<hex16>"), so memory and disk name each artifact alike.
//
// A model entry is a TrainedModel plus the FlatForest flattened from it
// once (rebuilding it per request would throw away most of the warm-
// cache win); a result entry is a fold's save_result payload with its
// result_digest and FNV, computed once when it is sealed. Entries are
// immutable shared_ptr<const ...>: eviction drops the cache's
// reference, never a borrower's.
//
// Eviction is strict LRU by bytes. A model is charged a node-count
// estimate (per-node SoA arrays plus the pointer trees they mirror —
// close enough to bound RSS, cheap to compute), a result its payload
// size plus a small constant. The newest entry is never evicted, so one
// artifact larger than the budget still serves (capacity 1, not 0).
//
// get_or_load is the singleflight: concurrent misses on one name run
// the loader once, outside the cache mutex, so loads may nest (a
// result's loader hydrates its model). Thread-safe throughout.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/attack.hpp"
#include "ml/bagging.hpp"

namespace repro::core {

/// What every cache entry carries: its resident-byte charge.
struct CacheEntry {
  std::size_t bytes = 0;
};

/// A warm model: the trained model and its prebuilt scoring forest.
struct CachedEnsemble : CacheEntry {
  TrainedModel model;
  ml::FlatForest forest;  ///< FlatForest::build(model.classifier)
};

/// A sealed /shard result: the save_result payload and the digests its
/// response headers carry.
struct SealedResult : CacheEntry {
  std::string payload;
  std::uint64_t digest = 0;  ///< result_digest of the decoded result
  std::uint64_t fnv = 0;     ///< fnv1a64(payload)
};

/// Estimated resident footprint of an ensemble (see file comment).
std::size_t estimate_ensemble_bytes(const CachedEnsemble& e);

/// Seals `payload` (moved, not copied): stamps digest, FNV and bytes.
std::shared_ptr<const SealedResult> seal_result(std::string payload,
                                                std::uint64_t digest);

/// Store and cache name of a fold's model ("model_<hex16>").
std::string model_artifact_name(std::uint64_t key);

/// Store and cache name of a fold's sealed result ("result_<hex16>").
std::string result_artifact_name(std::uint64_t key);

class ArtifactCache {
 public:
  /// capacity_bytes = 0 disables caching entirely (every lookup misses,
  /// inserts are dropped) — the server's --cache-mb 0 escape hatch.
  explicit ArtifactCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The entry named `name` (of type T), promoted to most-recently-
  /// used. On a miss one caller per name runs `loader`, outside the
  /// cache mutex, while the others wait for it. A non-null return is
  /// cached; a null one is not, so the next call loads again.
  template <class T, class Loader>
  std::shared_ptr<const T> get_or_load(const std::string& name,
                                       Loader&& loader) {
    return std::static_pointer_cast<const T>(load_entry(name, loader));
  }

  /// Models by fold key (named model_artifact_name(key)); put charges
  /// estimate_ensemble_bytes when the entry left `bytes` 0.
  std::shared_ptr<const CachedEnsemble> get(std::uint64_t model_key);
  void put(std::uint64_t model_key,
           std::shared_ptr<const CachedEnsemble> entry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::size_t entries = 0;        ///< current
    std::size_t bytes = 0;          ///< current charge, both kinds
    std::size_t capacity_bytes = 0;
    std::size_t inflight = 0;       ///< names with a load in progress
  };
  Stats stats() const;

 private:
  struct Node {
    std::string name;
    std::shared_ptr<const CacheEntry> entry;
    std::size_t bytes;
  };
  using LruList = std::list<Node>;

  /// One per name being loaded; its last user erases it.
  struct Gate {
    std::mutex mutex;
    std::size_t users = 0;  ///< guarded by mutex_
  };

  std::shared_ptr<const CacheEntry> load_entry(
      const std::string& name,
      const std::function<std::shared_ptr<const CacheEntry>()>& loader);
  /// Under mutex_: the entry, promoted to MRU and counted a hit; or null.
  std::shared_ptr<const CacheEntry> hit_locked(const std::string& name);
  /// Under mutex_: inserts or replaces, then evicts from the cold end.
  void insert_locked(const std::string& name,
                     std::shared_ptr<const CacheEntry> entry,
                     std::size_t bytes);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  std::unordered_map<std::string, Gate> gates_;  ///< node-stable
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t inserts_ = 0;
};

}  // namespace repro::core
