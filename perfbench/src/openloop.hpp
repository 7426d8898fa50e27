// Open-loop load generation and percentile accounting for the benchmark.
//
// An open-loop client sends each request at a due time drawn from a
// seeded Poisson process, whether or not earlier requests have
// finished, the way independent users arrive. Latency is timed from the
// due time, not from the moment a connection picked the request up: a
// server stall therefore shows in the latency of every request that
// arrived behind it instead of silently thinning the arrivals
// (coordinated omission).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) by linear interpolation between closest
/// ranks. 0 for an empty input.
double quantile(std::vector<double> values, double q);

/// quantile(values, 0.5).
double median(std::vector<double> values);

/// The highest quantile level that still has at least `min_beyond`
/// samples above it among `n`: 1 - min_beyond / n, or 0 when n is too
/// small to resolve any upper quantile. p90 needs n >= 100.
double resolvable_quantile(std::size_t n, std::size_t min_beyond = 10);

/// Due times (seconds from the step start, ascending) of the first
/// `count` arrivals of a Poisson process at `rate` per second. The same
/// seed gives the same schedule.
std::vector<double> poisson_schedule(double rate, std::size_t count,
                                     std::uint64_t seed);

/// One request of an open-loop step; times in seconds from step start.
struct Sample {
  double due = 0;   ///< when the request should have been sent
  double sent = 0;  ///< when a connection took it (>= queued)
  double done = 0;  ///< when its response was complete
  bool ok = false;

  double latency_ms() const { return (done - due) * 1e3; }
};

struct StepResult {
  double rate = 0;        ///< offered arrivals per second
  double duration_s = 0;  ///< scheduled window: last due + 1 / rate
  int connections = 0;
  std::vector<Sample> samples;
  /// Generator wake-up lateness (queued - due), ms, one per request: how
  /// late the generator itself was, excluding waits for a connection.
  std::vector<double> lateness_ms;

  std::vector<double> latencies_ms() const;
  std::size_t failed() const;
  /// Requests due at or before `t` and not yet done at `t`.
  std::size_t backlog_at(double t) const;
  /// Mean backlog over [t0, t1), sampled every millisecond.
  double mean_backlog(double t0, double t1) const;
  /// True when requests pile up: the mean backlog over the last quarter
  /// of the window exceeds that over the second quarter by more than
  /// the connection count (a stable queue fluctuates by about that).
  bool backlog_grows() const;
  /// quantile(lateness_ms, 0.9).
  double lateness_p90_ms() const;
};

/// Runs one open-loop step: a generator thread releases request i at
/// due[i] into a FIFO, and `connections` client threads take requests
/// from it and call op(i), which performs request i and reports
/// success. Returns when every request has completed.
StepResult run_open_loop_step(const std::vector<double>& due,
                              int connections,
                              const std::function<bool(std::size_t)>& op);

}  // namespace perfbench
