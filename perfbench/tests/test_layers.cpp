// Tests of the span-forest accounting: thread recovery from per-buffer
// sequence numbers, self time, spread, busy and attributed time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {
namespace {

using repro::common::obs::SpanEvent;

SpanEvent span(const char* name, int worker, std::uint32_t b,
               std::uint32_t e, double bs, double es) {
  SpanEvent s;
  s.name = name;
  s.worker = worker;
  s.begin_seq = b;
  s.end_seq = e;
  s.begin_s = bs;
  s.end_s = es;
  return s;
}

TEST(SpanForest, SelfTimeSubtractsDirectChildrenOnTheSameThread) {
  // Thread A: parent [0, 10] with children [1, 3] and [4, 8]; the second
  // child has its own child [5, 6]. Thread B (same worker id, sequence
  // restarts): one span [2, 9] that must not be nested under A's parent.
  const SpanForest f({span("parent", 0, 0, 7, 0, 10),
                      span("child", 0, 1, 2, 1, 3),
                      span("child", 0, 3, 6, 4, 8),
                      span("grandchild", 0, 4, 5, 5, 6),
                      span("other", 0, 0, 1, 2, 9)});
  EXPECT_DOUBLE_EQ(f.total_seconds("parent"), 10.0);
  EXPECT_DOUBLE_EQ(f.self_seconds("parent"), 4.0);
  EXPECT_DOUBLE_EQ(f.self_seconds("child"), 5.0);
  EXPECT_DOUBLE_EQ(f.self_seconds("other"), 7.0);
  EXPECT_EQ(f.nodes()[4].parent, -1);
  EXPECT_NE(f.nodes()[4].thread, f.nodes()[0].thread);
  EXPECT_EQ(f.durations("child").size(), 2u);
}

TEST(SpanForest, Spread) {
  const SpanForest f({span("fold", 1, 0, 1, 0, 4),
                      span("fold", 2, 0, 1, 1, 3),
                      span("fold", 3, 0, 1, 6, 7)});
  EXPECT_DOUBLE_EQ(f.spread("fold"), 0.75);
  EXPECT_DOUBLE_EQ(f.spread("none"), 0.0);
}

TEST(SpanForest, BusyTimeIsPerThreadUnion) {
  // Thread A: [0, 4] with a nested [1, 2]; thread B: [3, 7] and [6, 9].
  const SpanForest f({span("op", 1, 0, 3, 0, 4),
                      span("inner", 1, 1, 2, 1, 2),
                      span("op", 2, 0, 1, 3, 7),
                      span("op", 2, 2, 3, 6, 9)});
  EXPECT_DOUBLE_EQ(f.busy_seconds(0, 10), 4.0 + 6.0);
  EXPECT_DOUBLE_EQ(f.busy_seconds(2, 5), 2.0 + 2.0);
}

TEST(SpanForest, AttributedTimeLeavesWrapperGapsOut) {
  // A fold wrapper [0, 10] holds a layer span [1, 4] (with an unnamed
  // child [2, 3], which counts as the layer's) and a second layer span
  // [5, 7]; the fold's own 5 s are unattributed. A layer span on another
  // thread, [0, 2], counts in full.
  const SpanForest f({span("fold", 1, 0, 7, 0, 10),
                      span("fit", 1, 1, 4, 1, 4),
                      span("fit.tree", 1, 2, 3, 2, 3),
                      span("score", 1, 5, 6, 5, 7),
                      span("score", 2, 0, 1, 0, 2)});
  const std::vector<std::string> layers = {"fit", "score"};
  EXPECT_DOUBLE_EQ(f.attributed_seconds(layers, 0, 10), 3.0 + 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(f.busy_seconds(0, 10), 10.0 + 2.0);
  // Clipped to [3.5, 6]: fit 0.5 s, score 1 s; thread 2 is outside.
  EXPECT_DOUBLE_EQ(f.attributed_seconds(layers, 3.5, 6), 1.5);
  // Naming the wrapper attributes everything inside it.
  EXPECT_DOUBLE_EQ(f.attributed_seconds({"fold"}, 0, 10), 10.0);
  EXPECT_DOUBLE_EQ(f.attributed_seconds({"none"}, 0, 10), 0.0);
}

TEST(IntervalUnion, MergesOverlaps) {
  EXPECT_DOUBLE_EQ(interval_union({}), 0.0);
  EXPECT_DOUBLE_EQ(interval_union({{0, 2}, {1, 3}, {5, 6}}), 4.0);
}

}  // namespace
}  // namespace perfbench
