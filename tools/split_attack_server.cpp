// split_attack_server - attack-as-a-service daemon with a warm model
// cache.
//
// Loads one leave-one-out challenge suite per requested split layer at
// startup, then serves concurrent attack/score requests over HTTP/1.0
// on the loopback interface (the same minimal protocol obs_report
// speaks; common/http owns the sockets). A score request names a
// (layer, fold, config) triple; the server trains the fold's model on
// first use, keeps the deserialized ensemble (model + prebuilt
// FlatForest) warm in an LRU cache, and answers repeats straight from
// it — so the second client pays scoring cost only, not training cost.
// With --store-dir the trained models also persist as CRC-sealed
// checkpoint artifacts: a restarted server re-hydrates from disk
// instead of retraining (scripts/check_server.sh kills the server
// mid-request and proves the restart serves from the store).
//
// Usage:
//   split_attack_server --demo [--split N]... [--port P] [--threads N]
//                       [--cache-mb MB] [--store-dir DIR]
//                       [--deadline-s S] [--max-rss-mb N]
//                       [--read-deadline-s S] [--max-request-mb N]
//                       [--threshold T]
//   split_attack_server --lef tech.lef --train a.def... --victim v.def
//                       [--split N]... [same serving flags]
//
//   --split is repeatable: each layer gets its own suite, selected per
//   request by the "layer" field. Default: layer 8 only.
//   --port 0 (the default) picks a free port; the bound address is
//   printed as "serving on 127.0.0.1:<port>" and flushed, so harnesses
//   can parse it.
//   --threads sizes the HTTP handler pool (concurrent requests), not a
//   compute pool: each handler scores inline (common::ScopedInline),
//   which is what makes server digests bit-identical to batch
//   `split_attack --loo` at any thread count.
//   --cache-mb bounds the one in-memory artifact cache: warm models and
//   sealed /shard results share its byte budget, keyed by their store
//   artifact names, with the singleflight inside the cache (0 disables
//   it, so /shard replays come from the store or are recomputed);
//   --store-dir enables the persistent model store.
//   --deadline-s / --max-rss-mb arm the admission budget: under soft
//   pressure requests are served degraded (and say so); an exceeded
//   budget answers 503 + Retry-After.
//   --read-deadline-s / --max-request-mb bound each connection's read
//   (silent or oversized clients cost one deadline, never a wedged
//   handler).
//
// Endpoints:
//   POST /score    {"layer": L, "fold": K, "config": "Imp-9",
//                   "threshold": 0.5} -> result JSON incl. the fold's
//                  result digest and "cache": "hit" | "store" | "trained"
//   POST /shard    {"layer": L, "fold": K, "config": "Imp-9"} -> the
//                  fold's sealed result-artifact bytes (what a campaign
//                  worker writes), X-Run-Key / X-Result-Digest /
//                  X-Payload-Fnv headers. Idempotent: a re-request is
//                  answered from memory or the store, never retrained —
//                  the work unit behind `split_campaign --remote`.
//   GET  /status   suites, cache and request counters as JSON
//   GET  /metrics  Prometheus text: obs registry + cache/request series
//   GET  /healthz  liveness probe
//
// SIGINT/SIGTERM drain: in-flight requests finish, the listener closes,
// a shutdown summary is printed, exit 0.
//
// Exit codes: 0 clean shutdown (incl. signal-requested drain),
// 1 runtime failure, 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/http.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "core/attack_service.hpp"
#include "core/cross_validation.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "lefdef/lefdef.hpp"
#include "synth/synth.hpp"

namespace {

using namespace repro;

struct Args {
  std::string lef;
  std::vector<std::string> train;
  std::string victim;
  std::vector<int> splits;  ///< layers to serve; empty = {8}
  bool demo = false;
  int port = 0;
  int threads = 4;
  int cache_mb = 256;
  std::string store_dir;
  double threshold = 0.5;
  double deadline_s = 0;  ///< 0 = no wall-clock budget
  int max_rss_mb = 0;     ///< 0 = no memory budget
  double read_deadline_s = 5.0;
  int max_request_mb = 1;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--demo | --lef FILE --train FILE... --victim FILE) "
      "[--split N]... [--port P] [--threads N] [--cache-mb MB] "
      "[--store-dir DIR] [--threshold T] [--deadline-s S] "
      "[--max-rss-mb N] [--read-deadline-s S] [--max-request-mb N]\n",
      argv0);
  std::exit(2);
}

[[noreturn]] void arg_error(const char* argv0, const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  usage(argv0);
}

int parse_int(const char* argv0, const std::string& flag,
              const std::string& s, long lo, long hi) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
    arg_error(argv0, flag + " expects an integer, got '" + s + "'");
  }
  if (v < lo || v > hi) {
    arg_error(argv0, flag + " must be in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "], got " + s);
  }
  return static_cast<int>(v);
}

double parse_double(const char* argv0, const std::string& flag,
                    const std::string& s, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE ||
      !(v >= lo && v <= hi)) {  // !(..) also rejects NaN
    arg_error(argv0, flag + " expects a number in [" + std::to_string(lo) +
                         ", " + std::to_string(hi) + "], got '" + s + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        arg_error(argv[0], flag + " expects a value");
      }
      return argv[++i];
    };
    if (flag == "--lef") {
      a.lef = value();
    } else if (flag == "--train") {
      a.train.push_back(value());
    } else if (flag == "--victim") {
      a.victim = value();
    } else if (flag == "--split") {
      a.splits.push_back(parse_int(argv[0], flag, value(), 1, 64));
    } else if (flag == "--demo") {
      a.demo = true;
    } else if (flag == "--port") {
      a.port = parse_int(argv[0], flag, value(), 0, 65535);
    } else if (flag == "--threads") {
      a.threads = parse_int(argv[0], flag, value(), 1, 256);
    } else if (flag == "--cache-mb") {
      a.cache_mb = parse_int(argv[0], flag, value(), 0, 1 << 20);
    } else if (flag == "--store-dir") {
      a.store_dir = value();
    } else if (flag == "--threshold") {
      a.threshold = parse_double(argv[0], flag, value(), 0.0, 1.0);
    } else if (flag == "--deadline-s") {
      a.deadline_s = parse_double(argv[0], flag, value(), 0.001, 1e9);
    } else if (flag == "--max-rss-mb") {
      a.max_rss_mb = parse_int(argv[0], flag, value(), 1, 1 << 20);
    } else if (flag == "--read-deadline-s") {
      a.read_deadline_s = parse_double(argv[0], flag, value(), 0.01, 3600);
    } else if (flag == "--max-request-mb") {
      a.max_request_mb = parse_int(argv[0], flag, value(), 1, 1024);
    } else {
      arg_error(argv[0], "unknown flag " + flag);
    }
  }
  if (!a.demo && (a.lef.empty() || a.train.empty() || a.victim.empty())) {
    usage(argv[0]);
  }
  if (a.splits.empty()) a.splits.push_back(8);
  return a;
}

void handle_stop_signal(int) { common::global_cancel_token().request_cancel(); }

void install_signal_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client is not fatal
}

void print_diagnostics(const common::DiagnosticSink& sink) {
  for (const common::Diagnostic& d : sink.diagnostics()) {
    if (d.severity >= common::Severity::kWarning) {
      std::fprintf(stderr, "  %s\n", d.to_string().c_str());
    }
  }
  if (sink.dropped() > 0) {
    std::fprintf(stderr, "  ... %zu further diagnostics not stored\n",
                 sink.dropped());
  }
}

/// Builds the per-layer LOO suites. Challenge order is [victim,
/// training...] — the exact order `split_attack --loo` uses — so fold
/// indices (and therefore result digests) line up between the server
/// and the batch CLI.
bool build_suites(const Args& args,
                  std::map<int, core::ChallengeSuite>* suites) {
  if (args.demo) {
    // REPRO_SCALE shrinks the generated suite the same way the batch
    // tool and the benches do, which keeps CI checks fast.
    double scale = 1.0;
    if (const char* s = std::getenv("REPRO_SCALE")) {
      const double v = std::atof(s);
      if (v > 0) scale = v;
    }
    std::fprintf(stderr, "[demo] generating the built-in suite (scale "
                 "%.2f)...\n", scale);
    const auto designs = synth::generate_benchmark_suite(scale);
    for (const int split : args.splits) {
      suites->emplace(split, core::make_suite(designs, split));
    }
    return true;
  }

  std::ifstream lef_in(args.lef);
  if (!lef_in) {
    std::fprintf(stderr, "error: cannot open %s\n", args.lef.c_str());
    return false;
  }
  common::DiagnosticSink lef_sink(args.lef);
  common::StatusOr<lefdef::LefContents> lef =
      lefdef::read_lef(lef_in, lef_sink);
  if (!lef.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", args.lef.c_str(),
                 lef.status().to_string().c_str());
    print_diagnostics(lef_sink);
    return false;
  }
  for (const int split : args.splits) {
    if (split > lef->tech.num_via_layers()) {
      std::fprintf(stderr,
                   "error: --split %d outside the technology's via stack "
                   "[1, %d]\n",
                   split, lef->tech.num_via_layers());
      return false;
    }
    core::DefLoadOptions load_opt;
    load_opt.split_layer = split;
    // A server with a missing training design would silently serve a
    // different suite (different run keys, no digest parity with the
    // batch CLI over the same files) — fail fast instead.
    load_opt.strict = true;

    core::DefBatch batch;
    common::DiagnosticSink sink, victim_sink;
    auto suite = core::load_suite_from_defs(args.victim, args.train, *lef,
                                            load_opt, batch, sink,
                                            victim_sink);
    if (batch.num_skipped > 0) print_diagnostics(sink);
    if (!suite.ok()) {
      std::fprintf(stderr, "error: %s\n", suite.status().message().c_str());
      print_diagnostics(victim_sink);
      return false;
    }
    suites->emplace(split, std::move(suite).value());
  }
  return true;
}

int run(const Args& args) {
  install_signal_handlers();
  common::CancelToken& cancel = common::global_cancel_token();
  common::Budget budget(args.deadline_s, args.max_rss_mb);
  // The obs registry feeds /metrics; logical time keeps any trace
  // output deterministic, and nothing here wants wall-clock spans.
  common::obs::set_enabled(true);

  std::map<int, core::ChallengeSuite> suites;
  if (!build_suites(args, &suites)) return 1;
  for (const auto& [layer, suite] : suites) {
    std::fprintf(stderr, "layer %d: %zu designs (%zu folds)\n", layer,
                 suite.size(), suite.size());
  }

  core::AttackService::Options sopt;
  sopt.cache_bytes = static_cast<std::size_t>(args.cache_mb) << 20;
  sopt.store_dir = args.store_dir;
  sopt.default_threshold = args.threshold;
  sopt.budget = budget.unlimited() ? nullptr : &budget;
  sopt.cancel = &cancel;
  auto svc = core::AttackService::create(std::move(suites), sopt);
  if (!svc.ok()) {
    std::fprintf(stderr, "error: %s\n", svc.status().to_string().c_str());
    return 1;
  }
  core::AttackService& service = **svc;

  common::http::Server::Options hopt;
  hopt.port = args.port;
  hopt.num_threads = args.threads;
  hopt.limits.deadline_s = args.read_deadline_s;
  hopt.limits.max_body_bytes =
      static_cast<std::size_t>(args.max_request_mb) << 20;
  hopt.cancel = &cancel;
  auto server = common::http::Server::start(
      hopt, [&service](const common::http::Request& req) {
        return service.handle(req);
      });
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().to_string().c_str());
    return 1;
  }

  // Printed to stdout (and flushed) so a harness spawning us with port
  // 0 can parse the port it actually got.
  std::printf("serving on 127.0.0.1:%d\n", (*server)->port());
  std::fflush(stdout);

  while (!cancel.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // Drain: handler threads finish their in-flight requests, then join.
  (*server)->stop();

  const common::http::Server::Stats hs = (*server)->stats();
  const core::ArtifactCache::Stats cs = service.cache_stats();
  std::fprintf(stderr,
               "shutdown: %llu accepted, %llu served, %llu scored; cache "
               "%llu hits / %llu misses / %llu evictions (%zu entries, "
               "%zu bytes)\n",
               static_cast<unsigned long long>(hs.accepted),
               static_cast<unsigned long long>(hs.served),
               static_cast<unsigned long long>(service.requests_scored()),
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.evictions), cs.entries,
               cs.bytes);
  const core::AttackService::ShardStats ss = service.shard_stats();
  if (ss.requests != 0) {
    std::fprintf(stderr,
                 "shards: %llu served (%llu computed, %llu memory, "
                 "%llu store)\n",
                 static_cast<unsigned long long>(ss.requests),
                 static_cast<unsigned long long>(ss.computed),
                 static_cast<unsigned long long>(ss.memory_hits),
                 static_cast<unsigned long long>(ss.store_hits));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
