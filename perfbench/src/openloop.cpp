#include "openloop.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <random>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double resolvable_quantile(std::size_t n, std::size_t min_beyond) {
  if (min_beyond == 0 || n <= min_beyond) return 0;
  return 1.0 - static_cast<double>(min_beyond) / static_cast<double>(n);
}

std::vector<double> poisson_schedule(double rate, std::size_t count,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  due.reserve(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    due.push_back(t);
  }
  return due;
}

std::vector<double> StepResult::latencies_ms() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.latency_ms());
  return out;
}

std::size_t StepResult::failed() const {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [](const Sample& s) { return !s.ok; }));
}

std::size_t StepResult::backlog_at(double t) const {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [t](const Sample& s) {
        return s.due <= t && s.done > t;
      }));
}

double StepResult::mean_backlog(double t0, double t1) const {
  constexpr double kTick = 1e-3;
  double sum = 0;
  int ticks = 0;
  for (double t = t0; t < t1; t += kTick, ++ticks) sum += backlog_at(t);
  return ticks > 0 ? sum / ticks : 0;
}

bool StepResult::backlog_grows() const {
  const double q = duration_s / 4;
  return mean_backlog(3 * q, 4 * q) > mean_backlog(q, 2 * q) + connections;
}

double StepResult::lateness_p90_ms() const {
  return quantile(lateness_ms, 0.9);
}

StepResult run_open_loop_step(const std::vector<double>& due,
                              int connections,
                              const std::function<bool(std::size_t)>& op) {
  using Clock = std::chrono::steady_clock;
  StepResult res;
  res.connections = std::max(1, connections);
  res.samples.resize(due.size());
  res.lateness_ms.resize(due.size());
  if (due.size() >= 2) {
    res.rate = static_cast<double>(due.size()) / due.back();
    res.duration_s = due.back() + 1.0 / res.rate;
  } else if (!due.empty()) {
    res.duration_s = due.back();
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool closed = false;
  const Clock::time_point start = Clock::now();
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(res.connections));
  for (int c = 0; c < res.connections; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        std::size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        Sample& s = res.samples[i];
        s.due = due[i];
        s.sent = since_start();
        s.ok = op(i);
        s.done = since_start();
      }
    });
  }

  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i])));
    const double queued = since_start();
    res.lateness_ms[i] = std::max(0.0, queued - due[i]) * 1e3;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) t.join();
  return res;
}

}  // namespace perfbench
