// The server's artifact cache (core/artifact_cache): strict LRU
// eviction by bytes, get-promotes-to-MRU, the never-evict-the-newest
// rule that lets one oversized ensemble still serve, the --cache-mb 0
// escape hatch, get_or_load's per-name singleflight, and one byte
// budget shared by models and sealed results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "core/artifact_cache.hpp"

namespace repro::core {
namespace {

/// An entry with a forced byte estimate; the model/forest stay empty —
/// the cache only looks at `bytes`.
std::shared_ptr<const CachedEnsemble> entry_of(std::size_t bytes) {
  auto e = std::make_shared<CachedEnsemble>();
  e->bytes = bytes;
  return e;
}

TEST(ArtifactCache, MissThenHit) {
  ArtifactCache cache(1 << 20);
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, entry_of(100));
  EXPECT_NE(cache.get(1), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 100u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedFirst) {
  ArtifactCache cache(250);  // fits two 100-byte entries, not three
  cache.put(1, entry_of(100));
  cache.put(2, entry_of(100));
  cache.put(3, entry_of(100));  // evicts 1 (the coldest)
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 200u);
}

TEST(ArtifactCache, GetPromotesToMostRecentlyUsed) {
  ArtifactCache cache(250);
  cache.put(1, entry_of(100));
  cache.put(2, entry_of(100));
  EXPECT_NE(cache.get(1), nullptr);  // 1 is now MRU, 2 is coldest
  cache.put(3, entry_of(100));       // evicts 2, not 1
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
}

TEST(ArtifactCache, NeverEvictsTheNewestEntry) {
  // One ensemble larger than the whole cache still serves: the cache
  // degrades to capacity 1 instead of thrashing to 0.
  ArtifactCache cache(64);
  cache.put(1, entry_of(1000));
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The next oversized insert replaces it (old one evicted, new kept).
  cache.put(2, entry_of(2000));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ArtifactCache, ReplacingAKeyUpdatesAccounting) {
  ArtifactCache cache(1 << 20);
  cache.put(1, entry_of(100));
  cache.put(1, entry_of(300));
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 300u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.evictions, 0u);  // replacement is not an eviction
}

TEST(ArtifactCache, CapacityZeroDisablesCaching) {
  ArtifactCache cache(0);
  cache.put(1, entry_of(1));
  EXPECT_EQ(cache.get(1), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ArtifactCache, EvictionDropsTheCacheRefNotTheBorrowers) {
  ArtifactCache cache(150);
  cache.put(1, entry_of(100));
  const auto borrowed = cache.get(1);
  ASSERT_NE(borrowed, nullptr);
  cache.put(2, entry_of(100));  // evicts 1 while it is borrowed
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(borrowed->bytes, 100u);  // still valid for the borrower
}

TEST(ArtifactCache, EstimateScalesWithForestSize) {
  // The estimator is a node-count model with a constant floor.
  const CachedEnsemble empty;
  EXPECT_GE(estimate_ensemble_bytes(empty), 4096u);
}

TEST(ArtifactCache, ConcurrentGetOrLoadRunsTheLoaderOnce) {
  ArtifactCache cache(1 << 20);
  std::atomic<int> loads{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CachedEnsemble>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = cache.get_or_load<CachedEnsemble>("model_a", [&] {
        loads.fetch_add(1);
        // Hold the gate long enough that the other threads pile up.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        auto e = std::make_shared<CachedEnsemble>();
        e->bytes = 100;
        return e;
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
  for (const auto& e : got) EXPECT_EQ(e, got[0]);
  const auto s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.inflight, 0u);  // every gate erased by its last user
}

TEST(ArtifactCache, NullLoadIsNotCached) {
  ArtifactCache cache(1 << 20);
  int loads = 0;
  const auto null_loader = [&]() -> std::shared_ptr<const SealedResult> {
    ++loads;
    return nullptr;
  };
  EXPECT_EQ(cache.get_or_load<SealedResult>("result_a", null_loader),
            nullptr);
  EXPECT_EQ(cache.get_or_load<SealedResult>("result_a", null_loader),
            nullptr);
  EXPECT_EQ(loads, 2);  // nothing was cached, so the loader ran again
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.inflight, 0u);
  // A later non-null load is cached as usual.
  const auto sealed = cache.get_or_load<SealedResult>(
      "result_a", [] { return seal_result("payload", 7); });
  ASSERT_NE(sealed, nullptr);
  EXPECT_EQ(cache.get_or_load<SealedResult>("result_a", null_loader),
            sealed);
  EXPECT_EQ(loads, 2);
}

TEST(ArtifactCache, SealResultMovesThePayloadAndStampsIt) {
  const auto sealed = seal_result(std::string(1000, 'x'), 42);
  EXPECT_EQ(sealed->payload, std::string(1000, 'x'));
  EXPECT_EQ(sealed->digest, 42u);
  EXPECT_EQ(sealed->fnv, common::fnv1a64(sealed->payload));
  EXPECT_GT(sealed->bytes, sealed->payload.size());
  EXPECT_LT(sealed->bytes, sealed->payload.size() + 4096);
}

TEST(ArtifactCache, ModelsAndResultsShareOneByteBudget) {
  const auto sealed = seal_result(std::string(10000, 'r'), 1);
  // Room for two 4000-byte models, or one model and the result, but
  // not two models and the result.
  const std::size_t capacity = sealed->bytes + 6000;
  ArtifactCache cache(capacity);
  cache.put(1, entry_of(4000));
  cache.put(2, entry_of(4000));
  EXPECT_EQ(cache.stats().evictions, 0u);
  // The result lands on the model/result names the server uses; it
  // evicts the least recently used model (1), not the newer one.
  EXPECT_EQ(cache.get_or_load<SealedResult>(result_artifact_name(1),
                                            [&] { return sealed; }),
            sealed);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 4000 + sealed->bytes);
  EXPECT_LE(s.bytes, capacity);
  // A second result overflows the budget by itself plus one model: the
  // cache keeps only the newest entry, so bytes exceed capacity by at
  // most that entry.
  const auto big = seal_result(std::string(3 * capacity, 'b'), 2);
  cache.get_or_load<SealedResult>(result_artifact_name(2),
                                  [&] { return big; });
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, big->bytes);
}

}  // namespace
}  // namespace repro::core
