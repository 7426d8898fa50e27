#include "layers.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

using repro::common::obs::SpanEvent;

SpanForest::SpanForest(std::vector<SpanEvent> events) {
  nodes_.reserve(events.size());
  int thread = 0;
  std::vector<int> open;  // stack of indices on the current thread
  for (std::size_t i = 0; i < events.size(); ++i) {
    SpanEvent& e = events[i];
    if (!nodes_.empty()) {
      const SpanEvent& prev = nodes_.back().event;
      if (e.worker != prev.worker || e.begin_seq <= prev.begin_seq) {
        ++thread;
        open.clear();
      }
    }
    while (!open.empty() &&
           nodes_[static_cast<std::size_t>(open.back())].event.end_seq <
               e.begin_seq) {
      open.pop_back();
    }
    SpanNode node;
    node.thread = thread;
    node.parent = open.empty() ? -1 : open.back();
    node.event = std::move(e);
    if (node.parent >= 0) {
      nodes_[static_cast<std::size_t>(node.parent)].children_s +=
          node.seconds();
    }
    open.push_back(static_cast<int>(nodes_.size()));
    nodes_.push_back(std::move(node));
  }
}

double SpanForest::total_seconds(std::string_view name) const {
  double sum = 0;
  for (const SpanNode& n : nodes_) {
    if (n.event.name == name) sum += n.seconds();
  }
  return sum;
}

double SpanForest::self_seconds(std::string_view name) const {
  double sum = 0;
  for (const SpanNode& n : nodes_) {
    if (n.event.name == name) sum += n.self_seconds();
  }
  return sum;
}

std::vector<double> SpanForest::durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanNode& n : nodes_) {
    if (n.event.name == name) out.push_back(n.seconds());
  }
  return out;
}

double SpanForest::spread(std::string_view name) const {
  const std::vector<double> d = durations(name);
  if (d.size() < 2) return 0;
  const auto [lo, hi] = std::minmax_element(d.begin(), d.end());
  return *hi > 0 ? (*hi - *lo) / *hi : 0;
}

namespace {

double clipped(const SpanNode& n, double t0, double t1) {
  return std::max(0.0, std::min(t1, n.event.end_s) -
                           std::max(t0, n.event.begin_s));
}

}  // namespace

double SpanForest::attributed_seconds(const std::vector<std::string>& layers,
                                      double t0, double t1) const {
  // Parents precede their children, so one forward pass settles both
  // whether a span lies inside a layer span and its clipped child time.
  std::vector<char> inside(nodes_.size(), 0);
  std::vector<double> children(nodes_.size(), 0.0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const SpanNode& n = nodes_[i];
    const bool named = std::find(layers.begin(), layers.end(),
                                 n.event.name) != layers.end();
    inside[i] = named || (n.parent >= 0 &&
                          inside[static_cast<std::size_t>(n.parent)]);
    if (n.parent >= 0) {
      children[static_cast<std::size_t>(n.parent)] += clipped(n, t0, t1);
    }
  }
  double sum = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (inside[i]) sum += clipped(nodes_[i], t0, t1) - children[i];
  }
  return sum;
}

double SpanForest::busy_seconds(double t0, double t1) const {
  std::map<int, std::vector<std::pair<double, double>>> per_thread;
  for (const SpanNode& n : nodes_) {
    const double b = std::max(t0, n.event.begin_s);
    const double e = std::min(t1, n.event.end_s);
    if (e > b) per_thread[n.thread].emplace_back(b, e);
  }
  double sum = 0;
  for (auto& [thread, iv] : per_thread) sum += interval_union(std::move(iv));
  return sum;
}

double interval_union(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  double cur_begin = 0, cur_end = 0;
  bool have = false;
  for (const auto& [b, e] : iv) {
    if (!have || b > cur_end) {
      if (have) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      have = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (have) covered += cur_end - cur_begin;
  return covered;
}

}  // namespace perfbench
