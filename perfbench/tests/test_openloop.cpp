// Fast tests of the open-loop and percentile accounting, against a fake
// handler with a known service time.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "openloop.hpp"

namespace perfbench {
namespace {

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(Quantile, HighestResolvableNeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(resolvable_quantile(100), 0.9);
  EXPECT_DOUBLE_EQ(resolvable_quantile(200), 0.95);
  EXPECT_DOUBLE_EQ(resolvable_quantile(50), 0.8);
  EXPECT_DOUBLE_EQ(resolvable_quantile(10), 0.0);
  EXPECT_DOUBLE_EQ(resolvable_quantile(5), 0.0);
  EXPECT_LT(resolvable_quantile(99), 0.9);  // p90 needs 100 samples
}

TEST(PoissonSchedule, SeededAscendingAtTheOfferedRate) {
  const std::vector<double> a = poisson_schedule(50.0, 2000, 7);
  EXPECT_EQ(a, poisson_schedule(50.0, 2000, 7));
  EXPECT_NE(a, poisson_schedule(50.0, 2000, 8));
  ASSERT_EQ(a.size(), 2000u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_NEAR(static_cast<double>(a.size()) / a.back(), 50.0, 5.0);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  // Evenly spaced arrivals, one connection, 10 ms service at 25% load:
  // every latency is about the service time and nothing piles up.
  std::vector<double> due;
  for (int i = 0; i < 40; ++i) due.push_back(0.04 * i);
  const StepResult r = run_open_loop_step(due, 1, [](std::size_t) {
    sleep_ms(10);
    return true;
  });
  ASSERT_EQ(r.samples.size(), due.size());
  EXPECT_EQ(r.failed(), 0u);
  const std::vector<double> lat = r.latencies_ms();
  EXPECT_GE(median(lat), 9.5);
  EXPECT_LT(median(lat), 30.0);
  EXPECT_FALSE(r.backlog_grows());
  EXPECT_LT(r.lateness_p90_ms(), 10.0);
}

TEST(OpenLoop, StallShowsInTheLatencyOfRequestsBehindIt) {
  // Request 5 stalls for 300 ms on the only connection. The requests due
  // during the stall are sent late, and their latency, timed from the
  // due time, carries the wait; timed from the send it would not.
  std::vector<double> due;
  for (int i = 0; i < 30; ++i) due.push_back(0.02 * i);
  const StepResult r = run_open_loop_step(due, 1, [](std::size_t i) {
    sleep_ms(i == 5 ? 300 : 2);
    return true;
  });
  const Sample& behind = r.samples[10];  // due 100 ms after the stall began
  EXPECT_GE(behind.latency_ms(), 150.0);
  EXPECT_LT((behind.done - behind.sent) * 1e3, 50.0);
  EXPECT_LT(r.samples[2].latency_ms(), 50.0);
  // The generator itself stayed on time: the wait is queueing.
  EXPECT_LT(r.lateness_p90_ms(), 10.0);
}

TEST(OpenLoop, BacklogGrowthDetectsOverload) {
  // Capacity of one 10 ms connection is 100/s. At 200/s the backlog
  // grows step over step; at 50/s it does not.
  const auto run = [](double rate) {
    return run_open_loop_step(poisson_schedule(rate, 
                                               static_cast<std::size_t>(rate),
                                               3),
                              1, [](std::size_t) {
                                sleep_ms(10);
                                return true;
                              });
  };
  EXPECT_TRUE(run(200.0).backlog_grows());
  EXPECT_FALSE(run(50.0).backlog_grows());
}

TEST(OpenLoop, FailedOperationsAreCounted) {
  const StepResult r = run_open_loop_step(
      {0.0, 0.001, 0.002, 0.003}, 2, [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(r.failed(), 2u);
  EXPECT_EQ(r.backlog_at(1e9), 0u);
}

}  // namespace
}  // namespace perfbench
