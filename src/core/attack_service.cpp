#include "core/attack_service.hpp"

#include <chrono>
#include <exception>
#include <utility>
#include <vector>

#include "common/json_scan.hpp"
#include "common/json_writer.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "core/resilience.hpp"

namespace repro::core {

namespace {

using common::JsonObject;
using common::http::Request;
using common::http::Response;

using common::hex64;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Response json_response(int status, const std::string& body) {
  Response resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = body + "\n";
  return resp;
}

Response error_response(int status, const std::string& message) {
  return json_response(status,
                       JsonObject().field("error", message).str());
}

}  // namespace

std::uint64_t fold_model_key(const ChallengeSuite& suite,
                             const AttackConfig& config,
                             std::int64_t fold) {
  return attack_run_key(suite.challenges(), config) ^
         common::derive_seed(common::fnv1a64("attack_server.fold"),
                             static_cast<std::uint64_t>(fold));
}

common::StatusOr<std::unique_ptr<AttackService>> AttackService::create(
    std::map<int, ChallengeSuite> suites, Options opt) {
  if (suites.empty()) {
    return common::Status::InvalidArgument(
        "attack service needs at least one challenge suite");
  }
  std::unique_ptr<AttackService> svc(
      new AttackService(std::move(suites), std::move(opt)));
  if (!svc->opt_.store_dir.empty()) {
    // One fixed store key: artifact *names* carry the per-model
    // fingerprint (config + inputs + fold), so the store can hold
    // models of many configurations side by side — unlike a batch
    // checkpoint, which is scoped to a single computation.
    auto store = common::CheckpointManager::open(
        svc->opt_.store_dir,
        common::fnv1a64("attack_server.model_store"), svc->store_sink_);
    if (!store.ok()) return store.status();
    svc->store_.emplace(std::move(*store));
  }
  return svc;
}

std::uint64_t AttackService::requests_scored() const {
  return scored_.load(std::memory_order_relaxed);
}

std::optional<Response> AttackService::refusal(
    common::BudgetPressure* pressure) {
  *pressure = opt_.budget != nullptr ? opt_.budget->pressure()
                                     : common::BudgetPressure::kNone;
  const bool exceeded = *pressure == common::BudgetPressure::kExceeded;
  if (!exceeded && (opt_.cancel == nullptr || !opt_.cancel->cancelled())) {
    return std::nullopt;
  }
  rejected_busy_.fetch_add(1, std::memory_order_relaxed);
  Response resp = error_response(503, exceeded ? "budget exceeded"
                                               : "shutting down");
  if (exceeded) resp.extra_headers.emplace_back("Retry-After", "1");
  return resp;
}

common::StatusOr<std::string> AttackService::read_store(
    const std::string& name) {
  if (!store_.has_value()) return common::Status::NotFound("no store");
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (!store_->has(name)) return common::Status::NotFound(name);
  // A corrupt artifact fails here, and the checkpoint layer drops its
  // manifest entry.
  return store_->read(name, store_sink_);
}

void AttackService::write_store(const std::string& name,
                                const std::string& bytes) {
  if (!store_.has_value()) return;
  std::lock_guard<std::mutex> lock(store_mutex_);
  // Best-effort: a full disk must not fail the request, only the warm
  // restart path.
  (void)store_->write(name, bytes);
}

std::shared_ptr<const CachedEnsemble> AttackService::hydrate(
    const ChallengeSuite& suite, const AttackConfig& config,
    std::int64_t fold, const char** source) {
  *source = "hit";
  const std::string name =
      model_artifact_name(fold_model_key(suite, config, fold));
  return cache_->get_or_load<CachedEnsemble>(name, [&] {
    auto entry = std::make_shared<CachedEnsemble>();
    const auto raw = read_store(name);
    auto model = raw.ok() ? load_model(*raw) : raw.status();
    if (model.ok()) {
      *source = "store";
      entry->model = std::move(*model);
    } else {
      // Absent or corrupt in the store: train, and store the artifact.
      *source = "trained";
      entry->model = AttackEngine::train(
          suite.training_for(static_cast<std::size_t>(fold)), config);
      write_store(name, save_model(entry->model));
    }
    entry->forest = ml::FlatForest::build(entry->model.classifier);
    entry->bytes = estimate_ensemble_bytes(*entry);
    return entry;
  });
}

bool AttackService::parse_target(const Request& req, ShardTarget* out,
                                 Response* error) {
  auto doc = common::parse_json(req.body);
  if (!doc.ok() || !doc->is_object()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, "request body is not a JSON object");
    return false;
  }
  out->layer = static_cast<int>(
      doc->get_i64("layer", suites_.begin()->first));
  out->fold = doc->get_i64("fold", 0);
  out->config_name = doc->get_string("config", "Imp-9");
  out->threshold = doc->get_double("threshold", opt_.default_threshold);

  const auto suite_it = suites_.find(out->layer);
  if (suite_it == suites_.end()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, "no suite for split layer " +
                                     std::to_string(out->layer));
    return false;
  }
  out->suite = &suite_it->second;
  if (out->fold < 0 ||
      out->fold >= static_cast<std::int64_t>(out->suite->size())) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, "fold out of range (suite has " +
                                     std::to_string(out->suite->size()) +
                                     " designs)");
    return false;
  }
  try {
    out->config = config_from_name(out->config_name);
  } catch (const std::exception& e) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    *error = error_response(400, std::string("bad config: ") + e.what());
    return false;
  }
  return true;
}

Response AttackService::handle_score(const Request& req) {
  ShardTarget target;
  Response error;
  if (!parse_target(req, &target, &error)) return error;
  const std::int64_t fold = target.fold;
  const ChallengeSuite& suite = *target.suite;
  AttackConfig config = target.config;

  // Admission under the budget ladder: soft/hard pressure is served
  // degraded.
  common::BudgetPressure pressure;
  if (auto busy = refusal(&pressure)) return *busy;
  const bool degraded = apply_degradation(config, pressure, fold);

  // All compute inline on this handler thread: the deterministic pool
  // is single-caller, and inline results are bit-identical (see
  // common::ScopedInline).
  common::ScopedInline inline_region;
  const char* source = "trained";
  const double t0 = now_seconds();
  const auto entry = hydrate(suite, config, fold, &source);
  const double t1 = now_seconds();
  const AttackResult result =
      AttackEngine::test(entry->model, entry->forest,
                         suite.challenge(static_cast<std::size_t>(fold)),
                         opt_.cancel);
  const double t2 = now_seconds();
  if (result.interrupted) {
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    return error_response(503, "scoring interrupted by shutdown");
  }
  scored_.fetch_add(1, std::memory_order_relaxed);

  JsonObject obj;
  obj.field("design", result.design())
      .field("layer", target.layer)
      .field("fold", static_cast<long>(fold))
      .field("config", target.config_name)
      .field("digest", hex64(result_digest(result)))
      .field("num_vpins", result.num_vpins())
      .field("threshold", target.threshold)
      .field("mean_loc", result.mean_loc_at_threshold(target.threshold))
      .field("accuracy", result.accuracy_at_threshold(target.threshold))
      .field("cache", source)
      .field("degraded", degraded)
      .field("hydrate_seconds", t1 - t0)
      .field("score_seconds", t2 - t1)
      .field("train_seconds", entry->model.train_seconds);
  return json_response(200, obj.str());
}

AttackService::ShardStats AttackService::shard_stats() const {
  ShardStats s;
  s.requests = shard_requests_.load(std::memory_order_relaxed);
  s.computed = shard_computed_.load(std::memory_order_relaxed);
  s.memory_hits = shard_memory_hits_.load(std::memory_order_relaxed);
  s.store_hits = shard_store_hits_.load(std::memory_order_relaxed);
  return s;
}

Response AttackService::handle_shard(const Request& req) {
  ShardTarget target;
  Response error;
  if (!parse_target(req, &target, &error)) return error;
  const ChallengeSuite& suite = *target.suite;

  // Admission: only the hard ceiling pushes back. No degradation here —
  // a degraded shard result would break byte-identity with the
  // monolithic CLI, which is the whole point of the route.
  common::BudgetPressure pressure;
  if (auto busy = refusal(&pressure)) return *busy;

  // The sealed result comes from the cache ("memory"); else the loader
  // reads the persistent store ("store") or computes it ("computed").
  const std::string name = result_artifact_name(
      fold_model_key(suite, target.config, target.fold));
  const char* result_source = "memory";
  const auto sealed = cache_->get_or_load<SealedResult>(
      name, [&]() -> std::shared_ptr<const SealedResult> {
        // Bytes from disk are vouched for only after a full decode
        // (envelope CRC + structure); a damaged artifact is recomputed.
        if (auto raw = read_store(name); raw.ok()) {
          auto decoded = load_result(*raw);
          if (decoded.ok()) {
            result_source = "store";
            return seal_result(std::move(*raw), result_digest(*decoded));
          }
        }
        common::ScopedInline inline_region;
        const char* model_source = "trained";
        const auto entry =
            hydrate(suite, target.config, target.fold, &model_source);
        const AttackResult result = AttackEngine::test(
            entry->model, entry->forest,
            suite.challenge(static_cast<std::size_t>(target.fold)),
            opt_.cancel);
        if (result.interrupted) return nullptr;  // cached nothing
        result_source = "computed";
        shard_computed_.fetch_add(1, std::memory_order_relaxed);
        auto fresh = seal_result(save_result(result), result_digest(result));
        write_store(name, fresh->payload);
        return fresh;
      });
  if (sealed == nullptr) {
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    return error_response(503, "shard interrupted by shutdown");
  }

  if (result_source[0] == 'm') {
    shard_memory_hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (result_source[0] == 's') {
    shard_store_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  shard_requests_.fetch_add(1, std::memory_order_relaxed);
  scored_.fetch_add(1, std::memory_order_relaxed);

  Response resp;
  resp.status = 200;
  resp.content_type = "application/octet-stream";
  resp.body = sealed->payload;
  resp.extra_headers.emplace_back(
      "X-Run-Key",
      hex64(attack_run_key(suite.challenges(), target.config)));
  resp.extra_headers.emplace_back("X-Result-Digest", hex64(sealed->digest));
  resp.extra_headers.emplace_back("X-Result-Source", result_source);
  resp.extra_headers.emplace_back("X-Payload-Fnv", hex64(sealed->fnv));
  resp.extra_headers.emplace_back("X-Layer",
                                  std::to_string(target.layer));
  resp.extra_headers.emplace_back("X-Fold", std::to_string(target.fold));
  return resp;
}

Response AttackService::handle_status() const {
  std::vector<std::string> layers;
  for (const auto& [layer, suite] : suites_) {
    layers.push_back(JsonObject()
                         .field("layer", layer)
                         .field("designs",
                                static_cast<unsigned long>(suite.size()))
                         .str());
  }
  const ArtifactCache::Stats cs = cache_->stats();
  JsonObject cache;
  cache.field("entries", static_cast<unsigned long>(cs.entries))
      .field("bytes", static_cast<unsigned long>(cs.bytes))
      .field("capacity_bytes",
             static_cast<unsigned long>(cs.capacity_bytes))
      .field("hits", static_cast<unsigned long>(cs.hits))
      .field("misses", static_cast<unsigned long>(cs.misses))
      .field("evictions", static_cast<unsigned long>(cs.evictions))
      .field("inserts", static_cast<unsigned long>(cs.inserts));
  const ShardStats ss = shard_stats();
  JsonObject shard;
  shard.field("requests", static_cast<unsigned long>(ss.requests))
      .field("computed", static_cast<unsigned long>(ss.computed))
      .field("memory_hits", static_cast<unsigned long>(ss.memory_hits))
      .field("store_hits", static_cast<unsigned long>(ss.store_hits));
  JsonObject obj;
  obj.field_raw("layers", common::json_array(layers))
      .field_raw("cache", cache.str())
      .field_raw("shard", shard.str())
      .field("store_dir", opt_.store_dir)
      .field("requests_scored",
             static_cast<unsigned long>(
                 scored_.load(std::memory_order_relaxed)))
      .field("rejected_busy",
             static_cast<unsigned long>(
                 rejected_busy_.load(std::memory_order_relaxed)))
      .field("bad_requests",
             static_cast<unsigned long>(
                 bad_requests_.load(std::memory_order_relaxed)));
  return json_response(200, obj.str());
}

Response AttackService::handle_metrics() const {
  std::string out = common::obs::prometheus_text();
  const ArtifactCache::Stats cs = cache_->stats();
  const auto counter_line = [&out](const char* name, std::uint64_t v) {
    out += std::string("# TYPE ") + name + " counter\n";
    out += std::string(name) + " " + std::to_string(v) + "\n";
  };
  const auto gauge_line = [&out](const char* name, std::uint64_t v) {
    out += std::string("# TYPE ") + name + " gauge\n";
    out += std::string(name) + " " + std::to_string(v) + "\n";
  };
  counter_line("server_cache_hits_total", cs.hits);
  counter_line("server_cache_misses_total", cs.misses);
  counter_line("server_cache_evictions_total", cs.evictions);
  counter_line("server_cache_inserts_total", cs.inserts);
  gauge_line("server_cache_entries", cs.entries);
  gauge_line("server_cache_bytes", cs.bytes);
  counter_line("server_requests_scored_total",
               scored_.load(std::memory_order_relaxed));
  counter_line("server_requests_rejected_total",
               rejected_busy_.load(std::memory_order_relaxed));
  counter_line("server_bad_requests_total",
               bad_requests_.load(std::memory_order_relaxed));
  counter_line("server_shard_requests_total",
               shard_requests_.load(std::memory_order_relaxed));
  counter_line("server_shard_computed_total",
               shard_computed_.load(std::memory_order_relaxed));
  counter_line("server_shard_memory_hits_total",
               shard_memory_hits_.load(std::memory_order_relaxed));
  counter_line("server_shard_store_hits_total",
               shard_store_hits_.load(std::memory_order_relaxed));
  Response resp;
  resp.status = 200;
  resp.content_type = "text/plain; version=0.0.4";
  resp.body = std::move(out);
  return resp;
}

Response AttackService::handle(const Request& req) {
  try {
    const std::string path = req.path.substr(0, req.path.find('?'));
    if (path == "/score") {
      if (req.method != "POST") {
        return error_response(405, "use POST /score");
      }
      return handle_score(req);
    }
    if (path == "/shard") {
      if (req.method != "POST") {
        return error_response(405, "use POST /shard");
      }
      return handle_shard(req);
    }
    if (path == "/status" || path == "/metrics" || path == "/healthz") {
      if (req.method != "GET") {
        return error_response(405, "use GET " + path);
      }
      if (path == "/status") return handle_status();
      if (path == "/metrics") return handle_metrics();
      Response resp;
      resp.body = "ok\n";
      return resp;
    }
    return error_response(404, "unknown path " + path);
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  }
}

}  // namespace repro::core
