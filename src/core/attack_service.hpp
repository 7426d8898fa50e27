// The attack-as-a-service layer behind tools/split_attack_server: route
// logic, model cache, persistent store, and budget admission — all the
// daemon's behaviour except the socket loop (common/http owns that), so
// tests and the bench drive it in-process.
//
// Request lifecycle (POST /score {"layer", "fold", "config", ...}):
//
//   1. Admission. Under the common::Budget ladder: kExceeded answers
//      503 immediately (the server is out of wall-clock or RSS budget);
//      soft/hard pressure instead applies the standard degradation
//      ladder to the request's config — degraded work is admitted, and
//      because the degraded config changes attack_run_key, its results
//      can never be served from (or to) a full-fidelity cache slot.
//   2. Key. The fold's model is identified by attack_run_key over the
//      layer's full challenge suite and the effective config, mixed
//      with the fold index — the same fingerprint discipline the
//      checkpoint/campaign layers use, so "the same computation" has
//      one name across the batch CLI, the store, and this cache.
//   3. Hydration. Cache hit: score immediately ("cache":"hit"). Miss:
//      ArtifactCache::get_or_load's singleflight collapses concurrent
//      identical requests into one hydration, which loads the model
//      artifact from the checkpoint store if present ("store") and
//      trains otherwise ("trained", writing the artifact back). Either
//      way the ensemble is flattened to a FlatForest once, at insert.
//   4. Scoring. AttackEngine::test through the prebuilt forest, under
//      common::ScopedInline: handler threads each score serially, and
//      request concurrency comes from the server's thread pool — the
//      deterministic parallel layer is single-caller by contract, and
//      inline execution is bit-identical by construction, so server
//      digests match batch `split_attack` at any thread count.
//
// POST /shard {"layer", "fold", "config"} is the remote-campaign work
// unit: it runs one LOO fold end to end and answers with the CRC-sealed
// result artifact bytes (the exact payload save_result produces — what a
// local worker would have written into its shard checkpoint), stamped
// with X-Run-Key / X-Result-Digest / X-Payload-Fnv headers so the client
// can place and verify the artifact without decoding it. Shard execution
// is idempotent: the sealed result lives as "result_<hex16>" in the
// ArtifactCache, under the models' byte budget, and in the store when
// store_dir is set; the cache's singleflight runs concurrent retries
// once. A retry after a torn response is answered from memory or the
// store, never retrained while either holds the result (X-Result-Source:
// computed | memory | store, counted for tests); cache_bytes 0 leaves
// only the store. /shard never degrades under budget pressure: a
// degraded result would break the byte-identical-digest contract with
// the monolithic CLI, so pressure short of kExceeded runs at full
// fidelity and kExceeded answers 503 + Retry-After like /score.
//
// GET /status reports suites, cache and store state as JSON; /metrics
// exports the obs registry (Prometheus text, with the histogram _sum
// series) plus cache hit/miss/evict and request counters; /healthz is
// a liveness probe.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/http.hpp"
#include "core/artifact_cache.hpp"
#include "core/cross_validation.hpp"

namespace repro::core {

class AttackService {
 public:
  struct Options {
    std::size_t cache_bytes = 256u << 20;  ///< models + results; 0 = none
    std::string store_dir;      ///< "" = no persistent model store
    double default_threshold = 0.5;
    common::Budget* budget = nullptr;       ///< admission ladder (opt.)
    common::CancelToken* cancel = nullptr;  ///< shutdown drain (opt.)
  };

  /// `suites`: one leave-one-out challenge suite per split layer. The
  /// service copies nothing — suites are immutable for its lifetime.
  /// Opens the checkpoint store when store_dir is set (taking its
  /// exclusive flock; a second server on the same store fails fast).
  static common::StatusOr<std::unique_ptr<AttackService>> create(
      std::map<int, ChallengeSuite> suites, Options opt);

  /// The http::Server handler: routes the request. Thread-safe.
  common::http::Response handle(const common::http::Request& req);

  /// Cache counters, for tests and the tool's shutdown summary.
  ArtifactCache::Stats cache_stats() const { return cache_->stats(); }

  /// Requests that completed scoring ("hit" + "store" + "trained").
  std::uint64_t requests_scored() const;

  /// /shard idempotency counters (tests assert no duplicate training).
  struct ShardStats {
    std::uint64_t requests = 0;     ///< /shard requests answered 200
    std::uint64_t computed = 0;     ///< folds actually executed
    std::uint64_t memory_hits = 0;  ///< served from the ArtifactCache
    std::uint64_t store_hits = 0;   ///< served from the persistent store
  };
  ShardStats shard_stats() const;

 private:
  AttackService(std::map<int, ChallengeSuite> suites, Options opt)
      : suites_(std::move(suites)),
        opt_(std::move(opt)),
        cache_(std::make_unique<ArtifactCache>(opt_.cache_bytes)) {}

  common::http::Response handle_score(const common::http::Request& req);
  common::http::Response handle_shard(const common::http::Request& req);
  common::http::Response handle_status() const;
  common::http::Response handle_metrics() const;

  struct ShardTarget {
    int layer = 0;
    std::int64_t fold = 0;
    std::string config_name;
    double threshold = 0.5;  ///< /score only; Options::default_threshold
    AttackConfig config;
    const ChallengeSuite* suite = nullptr;
  };
  /// Shared /score + /shard request parsing; on failure fills `error`
  /// (and bumps bad_requests_) and returns false.
  bool parse_target(const common::http::Request& req, ShardTarget* out,
                    common::http::Response* error);

  /// Admission: 503 (+ Retry-After) when the budget is exhausted, 503
  /// while draining, else nullopt; reports the budget pressure.
  std::optional<common::http::Response> refusal(
      common::BudgetPressure* pressure);

  /// Cache-or-store-or-train for one (suite, config, fold); returns the
  /// entry and labels where it came from ("hit" | "store" | "trained").
  std::shared_ptr<const CachedEnsemble> hydrate(
      const ChallengeSuite& suite, const AttackConfig& config,
      std::int64_t fold, const char** source);

  /// Store access: kNotFound / no-op without a store; best-effort writes.
  common::StatusOr<std::string> read_store(const std::string& name);
  void write_store(const std::string& name, const std::string& bytes);

  const std::map<int, ChallengeSuite> suites_;
  const Options opt_;
  std::unique_ptr<ArtifactCache> cache_;

  /// Store access is serialized: CheckpointManager reads are specified
  /// for serial callers, and next to a training run the lock is noise.
  std::mutex store_mutex_;
  std::optional<common::CheckpointManager> store_;
  common::DiagnosticSink store_sink_;

  std::atomic<std::uint64_t> scored_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};  ///< 503s (budget)
  std::atomic<std::uint64_t> bad_requests_{0};   ///< 4xx route-level

  std::atomic<std::uint64_t> shard_requests_{0};
  std::atomic<std::uint64_t> shard_computed_{0};
  std::atomic<std::uint64_t> shard_memory_hits_{0};
  std::atomic<std::uint64_t> shard_store_hits_{0};
};

/// The model key for fold `fold` of a suite under `config`: the suite
/// run key mixed with the fold index (splitmix64-scrambled so nearby
/// folds do not collide under xor with other stream tweaks).
std::uint64_t fold_model_key(const ChallengeSuite& suite,
                             const AttackConfig& config, std::int64_t fold);

}  // namespace repro::core
