#include "core/artifact_cache.hpp"

#include "common/checkpoint.hpp"
#include "common/parallel.hpp"

namespace repro::core {

std::size_t estimate_ensemble_bytes(const CachedEnsemble& e) {
  // Storage model: the FlatForest keeps ~5 SoA arrays per node
  // (feature i32, threshold f64, kids/left/right i32, probability f64,
  // plus the BFS-packed AVX2 mirror of the same), and the
  // BaggingClassifier keeps the equivalent pointer trees it was built
  // from. ~96 bytes/node covers both with headroom; the constant floor
  // covers per-tree vectors and the struct itself.
  const std::size_t nodes =
      static_cast<std::size_t>(e.forest.num_nodes() > 0
                                   ? e.forest.num_nodes()
                                   : 1);
  return nodes * 96 + 4096;
}

std::shared_ptr<const SealedResult> seal_result(std::string payload,
                                                std::uint64_t digest) {
  auto sealed = std::make_shared<SealedResult>();
  sealed->payload = std::move(payload);
  sealed->digest = digest;
  sealed->fnv = common::fnv1a64(sealed->payload);
  sealed->bytes = sealed->payload.size() + sizeof(SealedResult) + 256;
  return sealed;
}

std::string model_artifact_name(std::uint64_t key) {
  return "model_" + common::hex64(key);
}

std::string result_artifact_name(std::uint64_t key) {
  return "result_" + common::hex64(key);
}

std::shared_ptr<const CacheEntry> ArtifactCache::hit_locked(
    const std::string& name) {
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return it->second->entry;
}

void ArtifactCache::insert_locked(const std::string& name,
                                  std::shared_ptr<const CacheEntry> entry,
                                  std::size_t bytes) {
  if (capacity_ == 0 || entry == nullptr) return;
  if (const auto it = index_.find(name); it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Node{name, std::move(entry), bytes});
  index_[name] = lru_.begin();
  bytes_ += bytes;
  ++inserts_;
  // Evict from the cold end, but never the entry just touched: one
  // oversized artifact must still be servable.
  while (bytes_ > capacity_ && lru_.size() > 1) {
    bytes_ -= lru_.back().bytes;
    index_.erase(lru_.back().name);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const CacheEntry> ArtifactCache::load_entry(
    const std::string& name,
    const std::function<std::shared_ptr<const CacheEntry>()>& loader) {
  Gate* gate = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = hit_locked(name)) return hit;
    gate = &gates_[name];
    ++gate->users;
  }
  // The last caller to leave erases the gate (declared before `flight`,
  // so it runs after the gate's mutex is released).
  struct Leave {
    ArtifactCache* cache;
    const std::string& name;
    Gate* gate;
    ~Leave() {
      std::lock_guard<std::mutex> lock(cache->mutex_);
      if (--gate->users == 0) cache->gates_.erase(name);
    }
  } leave{this, name, gate};
  std::lock_guard<std::mutex> flight(gate->mutex);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto hit = hit_locked(name)) return hit;  // a waiter: loaded
    ++misses_;
  }
  std::shared_ptr<const CacheEntry> entry = loader();
  if (entry != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    insert_locked(name, entry, entry->bytes);
  }
  return entry;
}

std::shared_ptr<const CachedEnsemble> ArtifactCache::get(
    std::uint64_t model_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto hit = hit_locked(model_artifact_name(model_key));
  if (hit == nullptr) ++misses_;
  return std::static_pointer_cast<const CachedEnsemble>(hit);
}

void ArtifactCache::put(std::uint64_t model_key,
                        std::shared_ptr<const CachedEnsemble> entry) {
  if (entry == nullptr) return;
  const std::size_t bytes =
      entry->bytes > 0 ? entry->bytes : estimate_ensemble_bytes(*entry);
  std::lock_guard<std::mutex> lock(mutex_);
  insert_locked(model_artifact_name(model_key), std::move(entry), bytes);
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.inserts = inserts_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.capacity_bytes = capacity_;
  s.inflight = gates_.size();
  return s;
}

}  // namespace repro::core
