// The repo benchmark: one process per run, one workload per process.
//
//   perfbench --workload <loo_attack|score_open|shard_fetch> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir DIR] [--source-id ID]
//
// Each run starts from a fresh work directory, generates the five-preset
// suite, times its set-up three times (reporting the median), measures
// its workload for --seconds on as many worker threads and client
// connections as the process has usable CPUs, checks every output
// against the direct AttackEngine, and prints one
// JSON line last: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// enables obs, measures a fixed amount of work once untraced and once
// traced, and reports per-layer metrics from the span trace, which it
// also writes as a Chrome trace. Every run writes a result file stamped
// with the host under <out-dir>/results. See perfbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/http.hpp"
#include "common/json_writer.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/attack_service.hpp"
#include "core/candidate_index.hpp"
#include "core/features.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "layers.hpp"
#include "lefdef/lefdef.hpp"
#include "ml/bagging.hpp"
#include "openloop.hpp"
#include "synth/synth.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace repro;
namespace fs = std::filesystem;
namespace obs = common::obs;
namespace http = common::http;
using perfbench::median;
using perfbench::quantile;

constexpr int kSplitLayer = 8;
constexpr const char* kConfig = "Imp-9";

// Suite scale per workload. score_open runs on a quarter-scale suite: a
// /score at scale 1.0 takes about 0.8 s, so the 100 requests its
// reference step needs at half of capacity would take 40 s alone.
double default_scale(const std::string& workload) {
  return workload == "score_open" ? 0.25 : 1.0;
}

// Open-loop /score load: fixed offered rates (requests per second), run
// in ascending order. The reference step gets kRefRequests requests so
// that its p90 has at least 10 samples beyond it; the other steps share
// the rest of --seconds, at least kMinStepSeconds each. A rate is
// sustained when its p90 stays within the limit and its backlog does
// not grow. Fixed once so that every run offers the same load.
constexpr double kScoreRates[] = {8.0, 12.0, 16.0, 20.0, 24.0};
constexpr double kScoreRefRate = 8.0;
constexpr std::size_t kRefRequests = 100;
constexpr double kMinStepSeconds = 1.0;
constexpr double kScoreP90LimitMs = 1000.0;
// A generator later than this at p90 makes the run invalid.
constexpr double kMaxLatenessMs = 25.0;
// A traced loo_attack run whose named layers account for less than this
// share of its traced 1-thread pass is invalid: some blocking stage is
// left unattributed.
constexpr double kMinCoverage = 0.9;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double rss_peak_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  ///< required
  bool trace = false;
  std::string out_dir = ".bench_out";
  double scale = 1.0;  ///< suite scale, default_scale(workload)
  int setups = 3;      ///< set-ups timed per run; 1 in a traced run
  std::string source_id = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome accounting shared by every workload: an operation is one
/// LOO pass, one request, or one verified payload.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  void record(bool ok, const std::string& what = "") {
    attempted.fetch_add(1);
    if (!ok) {
      failed.fetch_add(1);
      if (!what.empty()) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
};

// --- set-up pieces -----------------------------------------------------------

/// The five presets at `scale` with their own generator seeds: the suite
/// `split_attack --demo` attacks. The workload seed does not reach the
/// generator, because design size, and with it every timing, varies by
/// tens of percent across generator seeds.
std::vector<synth::SynthDesign> generate_suite(double scale) {
  std::vector<synth::SynthDesign> out;
  const std::vector<std::string> names = synth::preset_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    synth::SynthParams p = synth::preset(names[i]);
    p.num_cells = std::max(500, static_cast<int>(p.num_cells * scale));
    obs::SpanGuard span("synth.generate", static_cast<std::int64_t>(i));
    out.push_back(synth::generate(p));
  }
  return out;
}

struct DefFiles {
  std::string lef;
  std::vector<std::string> defs;
  std::uint64_t def_bytes = 0;
};

DefFiles write_exchange_files(const std::vector<synth::SynthDesign>& designs,
                              const fs::path& dir) {
  obs::SpanGuard span("lefdef.write");
  DefFiles files;
  files.lef = (dir / "tech.lef").string();
  {
    std::ofstream os(files.lef);
    lefdef::write_lef(os, tech::Technology::make_default(800),
                       *designs.front().lib);
  }
  for (const synth::SynthDesign& d : designs) {
    const std::string path = (dir / (d.params.name + ".def")).string();
    {
      std::ofstream os(path);
      lefdef::write_def(os, *d.netlist, d.routes);
    }
    files.def_bytes += fs::file_size(path);
    files.defs.push_back(path);
  }
  return files;
}

/// Per-fold digests from driving AttackEngine::train / test directly,
/// folds in parallel; the model of fold 0 is kept for the predict probe.
std::vector<std::uint64_t> direct_digests(const core::ChallengeSuite& suite,
                                          const core::AttackConfig& cfg,
                                          core::TrainedModel* fold0_model) {
  std::vector<std::uint64_t> digests(suite.size());
  common::parallel_for(static_cast<std::int64_t>(suite.size()),
                       [&](std::int64_t f) {
                         const std::size_t s = static_cast<std::size_t>(f);
                         core::TrainedModel model = core::AttackEngine::train(
                             suite.training_for(s), cfg);
                         digests[s] = core::result_digest(
                             core::AttackEngine::test(model,
                                                      suite.challenge(s)));
                         if (s == 0) *fold0_model = std::move(model);
                       });
  return digests;
}

/// FlatForest build and predict_batch over real candidate rows of one
/// fold (pair_features/project over the index's admitted candidates).
struct PredictProbe {
  double build_s = 0;
  double ns_per_row = 0;
  std::size_t rows = 0;
};

PredictProbe predict_probe(const core::TrainedModel& model,
                           const splitmfg::SplitChallenge& ch) {
  constexpr std::size_t kMaxRows = 1 << 16;
  constexpr int kBatch = 256;
  const int nfeat = static_cast<int>(model.feat_idx.size());
  std::vector<double> rows;
  const core::CandidateIndex index(ch);
  const double scale = model.scale_for(ch);
  std::vector<splitmfg::VpinId> cands;
  for (int v = 0; v < ch.num_vpins() &&
                  rows.size() < kMaxRows * static_cast<std::size_t>(nfeat);
       ++v) {
    cands.clear();
    index.collect(v, model.filter, cands);
    for (splitmfg::VpinId w : cands) {
      const int a = std::min<int>(v, w), b = std::max<int>(v, w);
      const std::vector<double> x = core::project(
          core::pair_features(ch.vpin(a), ch.vpin(b), scale), model.feat_idx);
      rows.insert(rows.end(), x.begin(), x.end());
    }
  }
  // The timed regions are short (milliseconds), so each is repeated and
  // the median kept.
  constexpr int kRepeats = 7;
  PredictProbe probe;
  probe.rows = rows.size() / static_cast<std::size_t>(nfeat);
  std::vector<double> build_s, ns_per_row;
  std::vector<double> out(kBatch);
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double t0 = now_s();
    const ml::FlatForest forest = ml::FlatForest::build(model.classifier);
    build_s.push_back(now_s() - t0);
    const double t1 = now_s();
    for (std::size_t r = 0; r < probe.rows; r += kBatch) {
      const int m =
          static_cast<int>(std::min<std::size_t>(kBatch, probe.rows - r));
      forest.predict_batch(rows.data() + r * static_cast<std::size_t>(nfeat),
                           m, nfeat, out.data());
    }
    ns_per_row.push_back(
        (now_s() - t1) * 1e9 /
        static_cast<double>(std::max<std::size_t>(1, probe.rows)));
  }
  probe.build_s = median(build_s);
  probe.ns_per_row = median(ns_per_row);
  return probe;
}

// --- http plumbing -----------------------------------------------------------

std::string target_body(std::size_t fold, std::uint64_t rid) {
  return "{\"layer\": " + std::to_string(kSplitLayer) +
         ", \"fold\": " + std::to_string(fold) + ", \"config\": \"" +
         kConfig + "\", \"rid\": " + std::to_string(rid) + "}";
}

std::uint64_t rid_of(const std::string& body) {
  const std::size_t at = body.find("\"rid\": ");
  return at == std::string::npos
             ? 0
             : std::strtoull(body.c_str() + at + 7, nullptr, 10);
}

std::string score_digest(const std::string& body) {
  const std::size_t at = body.find("\"digest\": \"");
  return at == std::string::npos ? "" : body.substr(at + 11, 16);
}

/// Per-request timestamps keyed by request id: the client's send time,
/// the handler's entry/exit, the round trip. All on one steady clock.
struct RequestLog {
  struct Entry {
    double send = 0, enter = 0, leave = 0, done = 0;
    std::size_t bytes = 0;
  };
  std::mutex mu;
  std::map<std::uint64_t, Entry> entries;
  std::atomic<std::uint64_t> next_rid{1};

  std::uint64_t begin() {
    const std::uint64_t rid = next_rid.fetch_add(1);
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu);
    entries[rid].send = t;
    return rid;
  }
  template <class Fn>
  void update(std::uint64_t rid, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu);
    fn(entries[rid]);
  }
};

/// An AttackService behind a loopback http::Server whose handler records
/// handler entry/exit per request id and opens a span per request.
class Serving {
 public:
  static std::unique_ptr<Serving> start(const core::ChallengeSuite& suite,
                                        int threads, RequestLog* log) {
    auto self = std::unique_ptr<Serving>(new Serving());
    core::AttackService::Options sopt;
    sopt.cache_bytes = std::size_t{512} << 20;
    auto svc = core::AttackService::create(
        std::map<int, core::ChallengeSuite>{{kSplitLayer, suite}}, sopt);
    if (!svc.ok()) {
      std::fprintf(stderr, "service: %s\n", svc.status().to_string().c_str());
      return nullptr;
    }
    self->service = std::move(*svc);
    core::AttackService* service = self->service.get();
    http::Server::Options hopt;
    hopt.port = 0;
    hopt.num_threads = threads;
    hopt.limits.deadline_s = 120;
    auto server = http::Server::start(
        hopt, [service, log](const http::Request& req) {
          const std::uint64_t rid = rid_of(req.body);
          const double enter = now_s();
          obs::SpanGuard span("attack_service.handle",
                              static_cast<std::int64_t>(rid));
          http::Response resp = service->handle(req);
          span.end();
          const double leave = now_s();
          log->update(rid, [&](RequestLog::Entry& e) {
            e.enter = enter;
            e.leave = leave;
          });
          return resp;
        });
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   server.status().to_string().c_str());
      return nullptr;
    }
    self->server = std::move(*server);
    return self;
  }

  ~Serving() {
    if (server) server->stop();
  }

  int port() const { return server->port(); }

  std::unique_ptr<core::AttackService> service;
  std::unique_ptr<http::Server> server;

 private:
  Serving() = default;
};

/// POST /score for `fold`; true iff 200 with the expected digest.
bool score_request(int port, std::size_t fold, std::uint64_t want,
                   RequestLog* log) {
  const std::uint64_t rid = log->begin();
  obs::SpanGuard span("client.score", static_cast<std::int64_t>(rid));
  auto resp = http::fetch(port, "POST", "/score", target_body(fold, rid),
                          "application/json", /*deadline_s=*/120.0);
  span.end();
  const double done = now_s();
  const bool ok = resp.ok() && resp->status == 200 &&
                  score_digest(resp->body) == hex64(want);
  log->update(rid, [&](RequestLog::Entry& e) {
    e.done = done;
    e.bytes = resp.ok() ? resp->body.size() : 0;
  });
  return ok;
}

/// POST /shard for `fold` through the retrying client (one attempt: a
/// retry would hide a failure) and verifies it the way a campaign client
/// does: payload FNV, decode, digest against the direct engine.
bool shard_request(int port, std::size_t fold, std::uint64_t want,
                   RequestLog* log, std::size_t* payload_bytes) {
  const std::uint64_t rid = log->begin();
  obs::SpanGuard span("client.shard", static_cast<std::int64_t>(rid));
  http::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.request_deadline_s = 120;
  http::Endpoint ep;
  ep.port = port;
  http::FetchStats stats;
  auto resp = http::fetch_with_retry(ep, "POST", "/shard",
                                     target_body(fold, rid), policy, &stats);
  const double done = now_s();
  bool ok = resp.ok() && resp->status == 200 && stats.retries == 0;
  if (ok) {
    const std::string* fnv = resp->header("x-payload-fnv");
    const std::string* digest = resp->header("x-result-digest");
    ok = fnv != nullptr && *fnv == hex64(common::fnv1a64(resp->body)) &&
         digest != nullptr && *digest == hex64(want);
  }
  if (ok) {
    obs::SpanGuard load("resilience.load", static_cast<std::int64_t>(rid));
    auto decoded = core::load_result(resp->body);
    load.end();
    if (decoded.ok()) {
      obs::SpanGuard dg("resilience.digest", static_cast<std::int64_t>(rid));
      ok = core::result_digest(*decoded) == want;
    } else {
      ok = false;
    }
  }
  span.end();
  const std::size_t bytes = resp.ok() ? resp->body.size() : 0;
  if (payload_bytes != nullptr) *payload_bytes = bytes;
  log->update(rid, [&](RequestLog::Entry& e) {
    e.done = done;
    e.bytes = bytes;
  });
  return ok;
}

/// Runs fn(i) for i in [0, n) from `conns` closed-loop client threads.
template <class Fn>
void closed_loop(std::size_t n, int conns, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// --- workloads ---------------------------------------------------------------

struct Context {
  Options opt;
  int threads = 1;
  core::AttackConfig cfg;
  fs::path work_dir;
  Tally tally;
  RequestLog log;
  std::vector<Metric> e2e;      ///< end-to-end, generic names
  std::vector<Metric> named;    ///< end-to-end, workload-specific names
  std::vector<Metric> layers;   ///< per-layer (traced run)
  double traced_window_begin = 0, traced_window_end = 0;
  /// Window trace.coverage_frac refers to; the traced window when unset.
  double coverage_begin = 0, coverage_end = 0;
  std::vector<std::string> notes;
};

/// Times `setup` opt.setups times (always at least once) and returns the
/// median; only the last set-up's state is kept by the caller.
template <class Fn>
double timed_setups(int setups, Fn&& setup) {
  std::vector<double> times;
  for (int k = 0; k < std::max(1, setups); ++k) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

void add_common_layers(Context& ctx, const PredictProbe& probe) {
  ctx.layers.push_back({"ml.flat_build_s", probe.build_s, "s"});
  ctx.layers.push_back({"ml.predict_ns_per_row", probe.ns_per_row, "ns"});
}

// loo_attack ------------------------------------------------------------------

struct LooPass {
  double wall = 0;
  std::vector<std::uint64_t> digests;
  std::uint64_t result_bytes = 0;
  bool ok = false;
};

/// One checkpoint-free `split_attack --loo`: ingest, LOO, seal, digest.
/// threads == 1 runs every parallel region inline on this thread; the
/// pool itself stays at nproc, so passes do not churn threads (and with
/// them malloc arenas).
LooPass loo_pass(Context& ctx, const DefFiles& files, int threads,
                 std::int64_t pass_id) {
  std::optional<common::ScopedInline> serial;
  if (threads == 1) serial.emplace();
  LooPass pass;
  const double t0 = now_s();
  obs::SpanGuard span("loo.pass", pass_id);
  common::DiagnosticSink sink;
  std::ifstream lef_in(files.lef);
  auto lef = lefdef::read_lef(lef_in, sink);
  if (!lef.ok()) return pass;
  core::DefLoadOptions lopt;
  lopt.split_layer = kSplitLayer;
  lopt.validate = true;
  obs::SpanGuard load_span("pipeline.load_defs", pass_id);
  core::DefBatch batch =
      core::load_challenges_from_defs(files.defs, *lef, lopt, sink);
  load_span.end();
  if (batch.num_loaded != static_cast<int>(files.defs.size())) return pass;
  const core::ChallengeSuite suite(batch.take_loaded());
  const std::vector<core::AttackResult> results = suite.run_all(ctx.cfg);
  pass.digests.resize(results.size());
  std::vector<std::uint64_t> bytes(results.size());
  common::parallel_for(static_cast<std::int64_t>(results.size()),
                       [&](std::int64_t f) {
                         const std::size_t s = static_cast<std::size_t>(f);
                         {
                           obs::SpanGuard seal("resilience.save", pass_id);
                           bytes[s] = core::save_result(results[s]).size();
                         }
                         obs::SpanGuard dg("resilience.digest", pass_id);
                         pass.digests[s] = core::result_digest(results[s]);
                       });
  span.end();
  pass.wall = now_s() - t0;
  for (std::uint64_t b : bytes) pass.result_bytes += b;
  pass.ok = results.size() == files.defs.size();
  return pass;
}

int run_loo_attack(Context& ctx) {
  // The attack keeps its default seed, as `split_attack --loo` does, so
  // every run times the same work; this workload's inputs do not depend
  // on --seed.
  DefFiles files;
  obs::set_enabled(ctx.opt.trace);
  const double setup_s = timed_setups(ctx.opt.setups, [&] {
    const auto designs = generate_suite(ctx.opt.scale);
    files = write_exchange_files(designs, ctx.work_dir);
  });
  obs::set_enabled(false);

  std::vector<std::uint64_t> reference;
  std::vector<double> wall_1t, wall_nt;
  std::uint64_t result_bytes = 0;
  std::int64_t pass_id = 0;
  const auto one = [&](int threads) {
    LooPass pass = loo_pass(ctx, files, threads, pass_id++);
    if (reference.empty() && pass.ok) reference = pass.digests;
    const bool ok = pass.ok && pass.digests == reference;
    ctx.tally.record(ok, "LOO pass at " + std::to_string(threads) +
                             " threads: digests differ from the first pass");
    (threads == 1 ? wall_1t : wall_nt).push_back(pass.wall);
    result_bytes = pass.result_bytes;
    std::printf("  pass %2lld  %d thread(s)  %8.3f s\n",
                static_cast<long long>(pass_id - 1), threads, pass.wall);
  };

  if (!ctx.opt.trace) {
    // Passes alternate nproc and 1 thread while the next one still fits
    // in --seconds; at least two of each, so that each median is taken
    // over two passes or more.
    const double t0 = now_s();
    const auto threads_of = [&](std::int64_t k) {
      return k % 2 == 1 ? 1 : ctx.threads;
    };
    do {
      one(threads_of(pass_id));
    } while (wall_1t.size() < 2 ||
             now_s() - t0 +
                     (threads_of(pass_id) == 1 ? wall_1t : wall_nt).back() <=
                 ctx.opt.seconds);
  } else {
    // The predict probe needs a model: train fold 0 once, untraced.
    PredictProbe probe;
    {
      common::DiagnosticSink sink;
      std::ifstream lef_in(files.lef);
      auto lef = lefdef::read_lef(lef_in, sink);
      core::DefLoadOptions lopt;
      lopt.split_layer = kSplitLayer;
      core::DefBatch batch =
          core::load_challenges_from_defs(files.defs, *lef, lopt, sink);
      const core::ChallengeSuite suite(batch.take_loaded());
      const core::TrainedModel model =
          core::AttackEngine::train(suite.training_for(0), ctx.cfg);
      probe = predict_probe(model, suite.challenge(0));
    }
    // Fixed work: one pass at each thread count untraced, then traced.
    // Coverage refers to the traced 1-thread pass, where every stage runs
    // on one thread and the busy time is the pass wall; fold scheduling
    // refers to the traced nproc pass.
    one(1);
    one(ctx.threads);
    const double untraced = wall_1t.back() + wall_nt.back();
    wall_1t.clear();
    wall_nt.clear();
    obs::set_enabled(true);
    ctx.coverage_begin = now_s();
    one(1);
    ctx.coverage_end = ctx.traced_window_begin = now_s();
    one(ctx.threads);
    ctx.traced_window_end = now_s();
    obs::set_enabled(false);
    ctx.layers.push_back(
        {"trace.overhead_frac",
         (wall_1t.back() + wall_nt.back()) / untraced - 1.0, "frac"});
    add_common_layers(ctx, probe);
    ctx.layers.push_back({"lefdef.def_bytes",
                          static_cast<double>(files.def_bytes), "bytes"});
    ctx.layers.push_back({"resilience.result_bytes",
                          static_cast<double>(result_bytes), "bytes"});
  }

  const double loo_s = median(wall_nt), loo_s_1t = median(wall_1t);
  ctx.e2e.push_back({"setup_s", setup_s, "s"});
  ctx.e2e.push_back({"primary_ms", loo_s * 1e3, "ms"});
  ctx.e2e.push_back({"secondary_ms", loo_s_1t * 1e3, "ms"});
  ctx.named.push_back({"setup_s", setup_s, "s"});
  ctx.named.push_back({"loo_s", loo_s, "s"});
  ctx.named.push_back({"loo_s_1t", loo_s_1t, "s"});
  ctx.named.push_back({"loo_passes", static_cast<double>(pass_id), "count"});
  if (ctx.opt.trace) {
    ctx.layers.push_back({"loo.speedup", loo_s_1t / loo_s, "x"});
  }
  return 0;
}

// score_open / shard_fetch ----------------------------------------------------

struct ServingSetup {
  std::unique_ptr<core::ChallengeSuite> suite;
  std::unique_ptr<Serving> serving;
};

/// Generate, cut, build the service and server, and optionally warm the
/// cache with one concurrent /score per fold.
ServingSetup serving_setup(Context& ctx, bool warm) {
  ServingSetup s;
  const auto designs = generate_suite(ctx.opt.scale);
  s.suite = std::make_unique<core::ChallengeSuite>(
      core::make_suite(designs, kSplitLayer));
  s.serving = Serving::start(*s.suite, ctx.threads, &ctx.log);
  if (s.serving && warm) {
    const int port = s.serving->port();
    closed_loop(s.suite->size(), ctx.threads, [&](std::size_t f) {
      const std::uint64_t rid = ctx.log.begin();
      auto resp = http::fetch(port, "POST", "/score", target_body(f, rid),
                              "application/json", 120.0);
      ctx.tally.record(resp.ok() && resp->status == 200,
                       "warm-up /score fold " + std::to_string(f));
    });
  }
  return s;
}

/// Handler-side latency split of every logged request that completed:
/// round trip, handler time, and wait from send to handler entry.
void add_http_layers(Context& ctx, const char* route_bytes_name) {
  std::vector<double> rt, handle, wait, overhead, bytes;
  {
    std::lock_guard<std::mutex> lock(ctx.log.mu);
    for (const auto& [rid, e] : ctx.log.entries) {
      if (e.done <= 0 || e.enter <= 0) continue;
      rt.push_back((e.done - e.send) * 1e3);
      handle.push_back((e.leave - e.enter) * 1e3);
      wait.push_back((e.enter - e.send) * 1e3);
      overhead.push_back(((e.done - e.send) - (e.leave - e.enter)) * 1e3);
      bytes.push_back(static_cast<double>(e.bytes));
    }
  }
  ctx.layers.push_back({"http.roundtrip_ms", median(rt), "ms"});
  ctx.layers.push_back({"http.overhead_ms", median(overhead), "ms"});
  ctx.layers.push_back({route_bytes_name, median(bytes), "bytes"});
  ctx.layers.push_back({"attack_service.handle_ms", median(handle), "ms"});
  ctx.layers.push_back({"server.wait_ms", median(wait), "ms"});
}

void add_service_layers(Context& ctx, const core::AttackService& service) {
  const core::ArtifactCache::Stats cs = service.cache_stats();
  const core::AttackService::ShardStats ss = service.shard_stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  ctx.layers.push_back({"artifact_cache.hit_ratio",
                        lookups > 0 ? cs.hits / lookups : 0, "frac"});
  ctx.layers.push_back({"artifact_cache.evictions",
                        static_cast<double>(cs.evictions), "count"});
  ctx.layers.push_back({"artifact_cache.bytes", static_cast<double>(cs.bytes),
                        "bytes"});
  ctx.layers.push_back({"attack_service.shard_computed",
                        static_cast<double>(ss.computed), "count"});
  ctx.layers.push_back({"attack_service.shard_memory_hits",
                        static_cast<double>(ss.memory_hits), "count"});
}

struct ScoreSteps {
  double p50_ms = 0, p90_ms = 0, max_rps = 0, lateness_p90_ms = 0;
  double backlog_end = 0;
};

ScoreSteps score_steps(Context& ctx, int port,
                       const std::vector<std::uint64_t>& ref,
                       std::uint64_t stream) {
  ScoreSteps out;
  std::mt19937_64 rng(common::derive_stream(ctx.opt.seed ^ stream, "folds"));
  std::vector<double> lateness;
  for (std::size_t k = 0; k < std::size(kScoreRates); ++k) {
    const double rate = kScoreRates[k];
    const bool is_ref = rate == kScoreRefRate;
    const double step_s =
        std::max(kMinStepSeconds,
                 (ctx.opt.seconds - kRefRequests / kScoreRefRate) /
                     static_cast<double>(std::size(kScoreRates) - 1));
    const std::size_t n =
        is_ref ? kRefRequests : static_cast<std::size_t>(rate * step_s);
    const std::vector<double> due = perfbench::poisson_schedule(
        rate, n, common::derive_seed(ctx.opt.seed ^ stream, k));
    // Every fold equally often, in a seeded order: the designs differ
    // in size, so an unbalanced draw would move the percentiles.
    std::vector<std::size_t> folds(n);
    for (std::size_t i = 0; i < n; ++i) folds[i] = i % ref.size();
    std::shuffle(folds.begin(), folds.end(), rng);
    perfbench::StepResult step = perfbench::run_open_loop_step(
        due, ctx.threads, [&](std::size_t i) {
          const bool ok = score_request(port, folds[i], ref[folds[i]],
                                        &ctx.log);
          ctx.tally.record(ok, "/score fold " + std::to_string(folds[i]));
          return ok;
        });
    const std::vector<double> lat = step.latencies_ms();
    const double p90 =
        quantile(lat, std::min(0.9, perfbench::resolvable_quantile(n)));
    if (is_ref) {
      out.p50_ms = median(lat);
      out.p90_ms = p90;
      out.backlog_end = static_cast<double>(step.backlog_at(step.duration_s));
    }
    const bool sustained = !step.backlog_grows() && p90 <= kScoreP90LimitMs;
    if (sustained && rate > out.max_rps) out.max_rps = rate;
    lateness.insert(lateness.end(), step.lateness_ms.begin(),
                    step.lateness_ms.end());
    std::printf("  rate %5.1f/s  n %3zu  p50 %8.1f ms  p90 %8.1f ms  "
                "backlog %s  %s\n",
                rate, n, median(lat), p90,
                step.backlog_grows() ? "grows" : "flat",
                sustained ? "sustained" : "over");
  }
  out.lateness_p90_ms = quantile(lateness, 0.9);
  return out;
}

int run_score_open(Context& ctx) {
  ServingSetup s;
  obs::set_enabled(ctx.opt.trace);
  const double setup_s = timed_setups(ctx.opt.setups, [&] {
    s = ServingSetup{};  // the previous set-up's state goes first
    s = serving_setup(ctx, /*warm=*/true);
  });
  obs::set_enabled(false);
  if (!s.serving) return 1;

  core::TrainedModel model0;
  const std::vector<std::uint64_t> ref =
      direct_digests(*s.suite, ctx.cfg, &model0);
  PredictProbe probe;
  if (ctx.opt.trace) probe = predict_probe(model0, s.suite->challenge(0));
  const int port = s.serving->port();

  ScoreSteps steps;
  if (!ctx.opt.trace) {
    steps = score_steps(ctx, port, ref, 0);
  } else {
    const ScoreSteps untraced = score_steps(ctx, port, ref, 0);
    {
      std::lock_guard<std::mutex> lock(ctx.log.mu);
      ctx.log.entries.clear();
    }
    obs::set_enabled(true);
    ctx.traced_window_begin = now_s();
    steps = score_steps(ctx, port, ref, 1);
    ctx.traced_window_end = now_s();
    obs::set_enabled(false);
    ctx.layers.push_back(
        {"trace.overhead_frac", steps.p50_ms / untraced.p50_ms - 1.0, "frac"});
    add_common_layers(ctx, probe);
    add_http_layers(ctx, "http.score_response_bytes");
    add_service_layers(ctx, *s.serving->service);
    ctx.layers.push_back(
        {"client.lateness_ms", steps.lateness_p90_ms, "ms"});
    ctx.layers.push_back({"client.backlog_end", steps.backlog_end, "count"});
    ctx.layers.push_back({"score.max_rps", steps.max_rps, "1/s"});
  }
  if (steps.lateness_p90_ms > kMaxLatenessMs) {
    ctx.notes.push_back("invalid: load generator ran late (p90 " +
                        std::to_string(steps.lateness_p90_ms) + " ms)");
  }

  ctx.e2e.push_back({"setup_s", setup_s, "s"});
  ctx.e2e.push_back({"primary_ms", steps.p50_ms, "ms"});
  ctx.e2e.push_back({"secondary_ms", steps.p90_ms, "ms"});
  ctx.named.push_back({"setup_s", setup_s, "s"});
  ctx.named.push_back({"score_p50_ms", steps.p50_ms, "ms"});
  ctx.named.push_back({"score_p90_ms", steps.p90_ms, "ms"});
  ctx.named.push_back({"score_max_rps", steps.max_rps, "1/s"});
  ctx.named.push_back({"client_lateness_p90_ms", steps.lateness_p90_ms, "ms"});
  return 0;
}

struct ShardPass {
  double cold_s = 0;
  std::vector<double> replay_ms;
  std::size_t payload_bytes = 0;
  core::AttackService::ShardStats stats;
};

ShardPass shard_pass(Context& ctx, const core::ChallengeSuite& suite,
                     const std::vector<std::uint64_t>& ref, int replays,
                     std::uint64_t pass_id) {
  ShardPass pass;
  std::unique_ptr<Serving> serving =
      Serving::start(suite, ctx.threads, &ctx.log);
  if (!serving) {
    ctx.tally.record(false, "cannot start a fresh service");
    return pass;
  }
  const int port = serving->port();
  const std::size_t folds = suite.size();
  // The cold pass sends folds in index order (which fold waits for a
  // free connection decides its wall time); the replay rounds over every
  // fold go in a seeded order.
  std::mt19937_64 rng(common::derive_seed(ctx.opt.seed, pass_id));
  std::vector<std::size_t> order(folds * static_cast<std::size_t>(replays + 1));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i % folds;
  std::shuffle(order.begin() + static_cast<long>(folds), order.end(), rng);

  const double t0 = now_s();
  closed_loop(folds, ctx.threads, [&](std::size_t i) {
    const std::size_t f = order[i];
    std::size_t bytes = 0;
    const bool ok = shard_request(port, f, ref[f], &ctx.log, &bytes);
    ctx.tally.record(ok, "cold /shard fold " + std::to_string(f));
    if (f == 0) pass.payload_bytes = bytes;
  });
  pass.cold_s = now_s() - t0;
  const std::size_t n = order.size() - folds;
  pass.replay_ms.assign(n, 0);
  closed_loop(n, ctx.threads, [&](std::size_t i) {
    const std::size_t f = order[folds + i];
    const double r0 = now_s();
    const bool ok = shard_request(port, f, ref[f], &ctx.log, nullptr);
    pass.replay_ms[i] = (now_s() - r0) * 1e3;
    ctx.tally.record(ok, "replay /shard fold " + std::to_string(f));
  });
  pass.stats = serving->service->shard_stats();
  ctx.tally.record(pass.stats.computed == folds && pass.stats.memory_hits == n,
                   "replays were not served from the result map");
  return pass;
}

int run_shard_fetch(Context& ctx) {
  ServingSetup s;
  obs::set_enabled(ctx.opt.trace);
  const double setup_s = timed_setups(ctx.opt.setups, [&] {
    s = ServingSetup{};
    s = serving_setup(ctx, /*warm=*/false);
  });
  obs::set_enabled(false);
  if (!s.serving) return 1;
  s.serving.reset();  // every pass starts from a fresh, cold service

  core::TrainedModel model0;
  const std::vector<std::uint64_t> ref =
      direct_digests(*s.suite, ctx.cfg, &model0);
  constexpr int kReplays = 3;

  std::vector<double> cold, replay;
  ShardPass last_pass;
  std::uint64_t pass_id = 0;
  const auto one = [&] {
    last_pass = shard_pass(ctx, *s.suite, ref, kReplays, pass_id++);
    cold.push_back(last_pass.cold_s);
    replay.insert(replay.end(), last_pass.replay_ms.begin(),
                  last_pass.replay_ms.end());
  };
  if (!ctx.opt.trace) {
    const double t0 = now_s();
    double last = 0;
    do {
      const double p0 = now_s();
      one();
      last = now_s() - p0;
    } while (now_s() - t0 + last <= ctx.opt.seconds);
  } else {
    const PredictProbe probe = predict_probe(model0, s.suite->challenge(0));
    one();
    const double untraced = median(replay);
    cold.clear();
    replay.clear();
    {
      std::lock_guard<std::mutex> lock(ctx.log.mu);
      ctx.log.entries.clear();
    }
    obs::set_enabled(true);
    ctx.traced_window_begin = now_s();
    one();
    ctx.traced_window_end = now_s();
    obs::set_enabled(false);
    ctx.layers.push_back(
        {"trace.overhead_frac", median(replay) / untraced - 1.0, "frac"});
    add_common_layers(ctx, probe);
    add_http_layers(ctx, "http.shard_response_bytes");
    ctx.layers.push_back({"attack_service.shard_computed",
                          static_cast<double>(last_pass.stats.computed),
                          "count"});
    ctx.layers.push_back({"attack_service.shard_memory_hits",
                          static_cast<double>(last_pass.stats.memory_hits),
                          "count"});
    ctx.layers.push_back({"resilience.result_bytes",
                          static_cast<double>(last_pass.payload_bytes),
                          "bytes"});
  }

  const double cold_s = median(cold), replay_ms = median(replay);
  ctx.e2e.push_back({"setup_s", setup_s, "s"});
  ctx.e2e.push_back({"primary_ms", replay_ms, "ms"});
  ctx.e2e.push_back({"secondary_ms", cold_s * 1e3, "ms"});
  ctx.named.push_back({"setup_s", setup_s, "s"});
  ctx.named.push_back({"shard_replay_p50_ms", replay_ms, "ms"});
  ctx.named.push_back({"shard_cold_s", cold_s, "s"});
  ctx.named.push_back({"shard_passes", static_cast<double>(cold.size()),
                       "count"});
  return 0;
}

// --- per-layer metrics from the trace ----------------------------------------

std::uint64_t counter_value(const std::vector<obs::MetricSnapshot>& snap,
                            std::string_view name) {
  for (const obs::MetricSnapshot& m : snap) {
    if (m.name == name) return m.count;
  }
  return 0;
}

/// The per-layer metrics every workload reports, from the spans and
/// counters of its traced run (set-up plus the traced measurement).
/// Workload-specific ones were added by the workload; names it did not
/// add are filled with 0 (the layer did no work in this workload).
void trace_layers(Context& ctx) {
  const perfbench::SpanForest forest(obs::snapshot_spans());
  const std::vector<obs::MetricSnapshot> snap = obs::snapshot_metrics();
  const auto add = [&](const char* name, double v, const char* unit) {
    ctx.layers.push_back({name, v, unit});
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(counter_value(snap, name));
  };
  const double gen = forest.total_seconds("synth.generate");
  const double route = forest.total_seconds("route.run");
  add("synth.generate_s", gen, "s");
  add("synth.place_self_s", gen - route, "s");
  add("route.run_s", route, "s");
  add("route.rrr_s", forest.total_seconds("route.rrr_iter"), "s");
  add("route.maze_invocations", count("route.maze_invocations"), "count");
  add("route.overflowed_edges", count("route.overflowed_edges"), "count");

  add("lefdef.write_s", forest.total_seconds("lefdef.write"), "s");
  add("lefdef.read_s", forest.total_seconds("ingest.def"), "s");
  add("pipeline.load_defs_s", forest.total_seconds("pipeline.load_defs"),
      "s");
  add("splitmfg.validate_cut_s", forest.self_seconds("ingest.design"), "s");
  add("splitmfg.vpins", count("attack.vpins_seen"), "count");

  add("sampling.features_s", forest.total_seconds("train.features"), "s");
  add("sampling.rows", count("attack.train_samples"), "count");
  add("ml.fit_s", forest.total_seconds("train.fit"), "s");
  add("ml.trees_grown", count("ml.trees_grown"), "count");
  add("ml.tree_nodes", count("ml.tree_nodes"), "count");
  add("ml.fit_tree_spread", forest.spread("train.fit_tree"), "frac");

  const double scanned = count("index.candidates_scanned");
  const double yielded = count("index.candidates_yielded");
  add("candidate_index.build_s", forest.total_seconds("index.build"), "s");
  add("candidate_index.scanned", scanned, "count");
  add("candidate_index.yielded", yielded, "count");
  add("candidate_index.yield_ratio", scanned > 0 ? yielded / scanned : 0,
      "frac");

  const double score_self = forest.self_seconds("test.score");
  const double pairs = count("attack.pairs_scored");
  add("attack.score_self_s", score_self, "s");
  add("attack.pairs_scored", pairs, "count");
  add("attack.ns_per_pair",
      pairs > 0 ? forest.total_seconds("test.score") * 1e9 / pairs : 0, "ns");

  // Fold scheduling inside the traced window (the nproc LOO pass).
  add("loo.fold_spread", forest.spread("loo.fold"), "frac");
  const double window = ctx.traced_window_end - ctx.traced_window_begin;
  double busy = 0;
  for (const perfbench::SpanNode& n : forest.nodes()) {
    if (n.event.name == "loo.fold" &&
        n.event.begin_s >= ctx.traced_window_begin &&
        n.event.end_s <= ctx.traced_window_end) {
      busy += n.seconds();
    }
  }
  add("parallel.busy_frac",
      window > 0 ? busy / (window * ctx.threads) : 0, "frac");
  // Share of the busy thread time in the coverage window that the named
  // layers' own spans account for. Spans that wrap whole operations
  // (loo.pass, pipeline.load_defs, loo.fold, the handler and client
  // spans) count as busy but not as attributed, so work inside them that
  // no layer span covers shows as a gap.
  const double c0 = ctx.coverage_end > 0 ? ctx.coverage_begin
                                         : ctx.traced_window_begin;
  const double c1 = ctx.coverage_end > 0 ? ctx.coverage_end
                                         : ctx.traced_window_end;
  const std::vector<std::string> layer_spans = {
      "ingest.lef",      "ingest.def",      "ingest.design",
      "train.features",  "train.fit",       "index.build",
      "test.score",      "resilience.save", "resilience.load",
      "resilience.digest"};
  const double busy_s = forest.busy_seconds(c0, c1);
  const double coverage =
      busy_s > 0 ? forest.attributed_seconds(layer_spans, c0, c1) / busy_s
                 : 0;
  add("trace.coverage_frac", coverage, "frac");
  std::printf("  coverage: layers %.3f s of %.3f busy thread-s in a %.3f s "
              "window\n",
              coverage * busy_s, busy_s, c1 - c0);
  if (ctx.opt.workload == "loo_attack" && coverage < kMinCoverage) {
    ctx.notes.push_back("invalid: named layers cover " +
                        std::to_string(coverage) +
                        " of the traced 1-thread pass, below " +
                        std::to_string(kMinCoverage));
  }

  add("resilience.save_s", forest.total_seconds("resilience.save"), "s");
  add("resilience.load_s", forest.total_seconds("resilience.load"), "s");
  add("resilience.digest_s", forest.total_seconds("resilience.digest"), "s");
  add("trace.spans", static_cast<double>(forest.nodes().size()), "count");
}

/// Every per-layer metric name, in report order, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"synth.generate_s", "s"}, {"synth.place_self_s", "s"},
      {"route.run_s", "s"}, {"route.rrr_s", "s"},
      {"route.maze_invocations", "count"}, {"route.overflowed_edges", "count"},
      {"lefdef.write_s", "s"}, {"lefdef.def_bytes", "bytes"},
      {"lefdef.read_s", "s"}, {"pipeline.load_defs_s", "s"},
      {"splitmfg.validate_cut_s", "s"}, {"splitmfg.vpins", "count"},
      {"sampling.features_s", "s"}, {"sampling.rows", "count"},
      {"ml.fit_s", "s"}, {"ml.trees_grown", "count"},
      {"ml.tree_nodes", "count"}, {"ml.fit_tree_spread", "frac"},
      {"ml.flat_build_s", "s"}, {"ml.predict_ns_per_row", "ns"},
      {"candidate_index.build_s", "s"}, {"candidate_index.scanned", "count"},
      {"candidate_index.yielded", "count"},
      {"candidate_index.yield_ratio", "frac"},
      {"attack.score_self_s", "s"}, {"attack.pairs_scored", "count"},
      {"attack.ns_per_pair", "ns"}, {"loo.fold_spread", "frac"},
      {"parallel.busy_frac", "frac"}, {"loo.speedup", "x"},
      {"resilience.save_s", "s"}, {"resilience.load_s", "s"},
      {"resilience.digest_s", "s"}, {"resilience.result_bytes", "bytes"},
      {"http.roundtrip_ms", "ms"}, {"http.overhead_ms", "ms"},
      {"http.score_response_bytes", "bytes"},
      {"http.shard_response_bytes", "bytes"},
      {"attack_service.handle_ms", "ms"}, {"server.wait_ms", "ms"},
      {"attack_service.shard_computed", "count"},
      {"attack_service.shard_memory_hits", "count"},
      {"artifact_cache.hit_ratio", "frac"},
      {"artifact_cache.evictions", "count"}, {"artifact_cache.bytes", "bytes"},
      {"client.lateness_ms", "ms"}, {"client.backlog_end", "count"},
      {"score.max_rps", "1/s"}, {"trace.overhead_frac", "frac"},
      {"trace.coverage_frac", "frac"}, {"trace.spans", "count"},
  };
  return names;
}

// --- output ------------------------------------------------------------------

std::string metrics_object(const std::vector<Metric>& metrics) {
  common::JsonObject obj;
  for (const Metric& m : metrics) {
    obj.field_raw(m.name, common::JsonObject()
                              .field("value", m.value)
                              .field("unit", m.unit)
                              .str());
  }
  return obj.str();
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_stamp(const Context& ctx) {
  return common::JsonObject()
      .field("usable_cpus", common::usable_cpus())
      .field("threads", ctx.threads)
      .field("connections", ctx.threads)
      .field("simd", common::simd::to_string(common::simd::active()))
      .field("compiler", compiler())
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("source_id", ctx.opt.source_id)
      .field("suite_scale", ctx.opt.scale)
      .field("seed", static_cast<unsigned long>(ctx.opt.seed))
      .field("setups", ctx.opt.setups)
      .str();
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<loo_attack|score_open|shard_fetch> --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--source-id ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v);
    else if (a == "--trace") opt.trace = std::atoi(v) != 0;
    else if (a == "--out-dir") opt.out_dir = v;
    else if (a == "--source-id") opt.source_id = v;
    else return usage("unknown flag");
  }
  if (opt.workload != "loo_attack" && opt.workload != "score_open" &&
      opt.workload != "shard_fetch") {
    return usage("unknown workload");
  }
  if (opt.seconds <= 0) return usage("--seconds must be given and positive");
  opt.scale = default_scale(opt.workload);

  // A traced run sets up once: its per-layer sums cover one set-up.
  if (opt.trace) opt.setups = 1;
  Context ctx;
  ctx.opt = opt;
  // Worker/handler threads and client connections: the usable CPUs
  // (affinity-aware), never more, so no run timeshares a core.
  ctx.threads = common::usable_cpus();
  ctx.cfg = core::config_from_name(kConfig);
  ctx.cfg.max_test_vpins = 0;  // uncapped: every v-pin of the held-out design
  common::set_global_threads(ctx.threads);

  const fs::path out_dir(opt.out_dir);
  ctx.work_dir = out_dir / ("work-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(ctx.work_dir, ec);
  fs::create_directories(ctx.work_dir);
  fs::create_directories(out_dir / "results");
  obs::clear_trace();
  obs::reset_metrics();

  std::printf("perfbench %s seed %" PRIu64 " trace %d: %d threads, simd %s, "
              "scale %.2f\n",
              opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0, ctx.threads,
              common::simd::to_string(common::simd::active()), opt.scale);
  int rc = 0;
  if (opt.workload == "loo_attack") rc = run_loo_attack(ctx);
  else if (opt.workload == "score_open") rc = run_score_open(ctx);
  else rc = run_shard_fetch(ctx);
  fs::remove_all(ctx.work_dir, ec);
  if (rc != 0) {
    std::fprintf(stderr, "workload %s could not run\n", opt.workload.c_str());
    return 1;
  }

  const double rss = rss_peak_mb();
  ctx.e2e.insert(ctx.e2e.begin() + 1, Metric{"rss_peak_mb", rss, "MB"});
  ctx.named.push_back({"rss_peak_mb", rss, "MB"});
  const std::uint64_t attempted = ctx.tally.attempted.load();
  const std::uint64_t failed = ctx.tally.failed.load();
  ctx.named.push_back({"fail_frac",
                       attempted > 0 ? static_cast<double>(failed) /
                                           static_cast<double>(attempted)
                                     : 1.0,
                       "frac"});
  std::vector<Metric> reported = ctx.e2e;
  const std::string stem = opt.workload + "-seed" + std::to_string(opt.seed) +
                           "-trace" + (opt.trace ? "1" : "0");
  if (opt.trace) {
    trace_layers(ctx);
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : layer_names()) {
      double v = 0;
      for (const Metric& m : ctx.layers) {
        if (m.name == name) v = m.value;
      }
      ordered.push_back({name, v, unit});
    }
    reported = ordered;
    common::write_json_file((out_dir / ("trace-" + stem + ".json")).string(),
                            obs::trace_json());
  }

  const bool valid = ctx.notes.empty();
  const bool correct = attempted > 0 && failed == 0 && valid;
  for (const Metric& m : ctx.named) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& n : ctx.notes) std::printf("  %s\n", n.c_str());

  const std::string line = common::JsonObject()
                               .field("correct", correct)
                               .field("attempted",
                                      static_cast<unsigned long>(attempted))
                               .field("failed",
                                      static_cast<unsigned long>(failed))
                               .field_raw("metrics", metrics_object(reported))
                               .str();
  if (valid) {
    const std::string record =
        common::JsonObject()
            .field("workload", opt.workload)
            .field("seed", static_cast<unsigned long>(opt.seed))
            .field("trace", opt.trace)
            .field_raw("host", host_stamp(ctx))
            .field("correct", correct)
            .field("attempted", static_cast<unsigned long>(attempted))
            .field("failed", static_cast<unsigned long>(failed))
            .field_raw("metrics", metrics_object(reported))
            .field_raw("named", metrics_object(ctx.named))
            .str();
    common::write_json_file((out_dir / "results" / (stem + ".json")).string(),
                            record);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
