// Per-layer accounting over the obs span trace of a benchmark run.
//
// obs records spans into one buffer per thread and tags each with its
// pool worker id; threads outside the pool (http handlers, clients)
// all report worker 0. snapshot_spans() emits the buffers one after
// another, each in open order with per-buffer sequence numbers that
// restart at 0 after clear_trace(), so a sequence number that does not
// increase marks the next buffer. That recovers the thread of every
// span, and with it the exact nesting: a child opens after and closes
// before its parent on the same thread.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/obs.hpp"

namespace perfbench {

struct SpanNode {
  repro::common::obs::SpanEvent event;
  int thread = 0;       ///< recovered buffer index
  int parent = -1;      ///< index of the enclosing span, -1 at top level
  double children_s = 0;  ///< wall covered by direct children

  double seconds() const { return event.end_s - event.begin_s; }
  double self_seconds() const { return seconds() - children_s; }
};

class SpanForest {
 public:
  explicit SpanForest(std::vector<repro::common::obs::SpanEvent> events);

  const std::vector<SpanNode>& nodes() const { return nodes_; }

  /// Sum of durations of spans named `name`.
  double total_seconds(std::string_view name) const;
  /// Sum of self times (duration minus direct children) of `name`.
  double self_seconds(std::string_view name) const;
  /// Durations of every span named `name`, in trace order.
  std::vector<double> durations(std::string_view name) const;
  /// (max - min) / max over the durations of `name`; 0 below two spans.
  double spread(std::string_view name) const;
  /// Self time within [t0, t1] of every span that is named in `layers`
  /// or nests inside one on its thread: the work the named layers
  /// account for, summed over threads.
  double attributed_seconds(const std::vector<std::string>& layers, double t0,
                            double t1) const;
  /// Wall time within [t0, t1] that each thread spends inside any of its
  /// spans, summed over threads.
  double busy_seconds(double t0, double t1) const;

 private:
  std::vector<SpanNode> nodes_;
};

/// Union length of [begin, end] intervals.
double interval_union(std::vector<std::pair<double, double>> iv);

}  // namespace perfbench
