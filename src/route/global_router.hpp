// Congestion-aware global router.
//
// The router reproduces the layout properties the attack paper depends on:
//   * alternating per-layer preferred directions (wires only run in their
//     layer's direction),
//   * length-based layer assignment: short nets stay on the low 1x layers,
//     long nets climb to the wide top layers, so congestion concentrates
//     below and v-pin counts grow quickly as the split layer moves down,
//   * congestion awareness: L/Z pattern routing with cost-based layer-pair
//     promotion and an A* maze fallback plus rip-up-and-reroute, so that in
//     congested designs matching v-pins drift apart (the paper's argument
//     for why congested split layers are harder to attack).
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "common/cancel.hpp"
#include "common/diagnostics.hpp"
#include "route/route_db.hpp"

namespace repro::route {

struct RouterOptions {
  /// Length thresholds separating the four layer pairs (M2/M3, M4/M5,
  /// M6/M7, M8/M9), as fractions of the routing-grid span max(nx, ny).
  /// Relative thresholds keep the per-layer net populations stable when a
  /// design is scaled, which mirrors how reach-based layer assignment
  /// behaves in production routers.
  std::array<double, 3> pair_threshold_fracs{0.13, 0.28, 0.50};
  /// Probability of promoting a segment one layer pair above its
  /// length-based assignment (models routers spilling upward under
  /// pressure; also the knob that tunes per-design v-pin populations).
  double promote_prob = 0.05;
  /// Additional cost per unit of overflow on an edge.
  int overflow_penalty = 8;
  /// Number of random Z-shape candidates tried per segment.
  int num_z_trials = 4;
  /// Rip-up-and-reroute iterations after the initial pass.
  int ripup_iters = 2;
  /// Enable the A* maze fallback for overflowed pattern routes.
  bool enable_maze = true;
  /// GCell margin around a segment's bounding box available to the maze.
  int maze_margin = 8;
  /// Obfuscated-routing mode (paper SSIII-I / [14]-style routing
  /// perturbation): with this probability a segment takes a *random*
  /// non-overflowing pattern candidate instead of the cheapest one,
  /// scrambling bend (and therefore v-pin) locations at the cost of extra
  /// wirelength. 0 = normal routing.
  double random_route_prob = 0.0;
  /// Wire-lifting defense ([8]-style): with probability lift_prob a
  /// segment is raised to at least layer pair lift_to_pair (0..3),
  /// pushing connections above the split layer and multiplying the
  /// v-pins the attacker must untangle. lift_to_pair = -1 disables.
  int lift_to_pair = -1;
  double lift_prob = 0.0;
  /// RRR watchdog: abandon rip-up-and-reroute after this many consecutive
  /// iterations without a drop in the overflowed-net count (the loop is
  /// oscillating — ripping the same nets up and putting them back — or
  /// stuck). The routing stays usable (overflows are a quality issue,
  /// not a correctness one), so the watchdog reports a repairable
  /// kWarning diagnostic and keeps the best state reached. <= 0 disables.
  int watchdog_patience = 3;
  /// Cooperative cancellation checked between RRR iterations; a
  /// cancelled run keeps the (valid) routing state reached so far.
  const common::CancelToken* cancel = nullptr;
  /// Destination for watchdog / non-convergence diagnostics
  /// ("route.rrr_*", kWarning). Optional.
  common::DiagnosticSink* sink = nullptr;
  std::uint64_t seed = 1;
};

/// Summary statistics of a routing run.
struct RouteStats {
  long total_wire_gcells = 0;
  long total_vias = 0;
  long overflowed_edges = 0;   ///< edges with usage > capacity after RRR
  int maze_invocations = 0;
  int rrr_iterations = 0;      ///< RRR iterations actually executed
  bool rrr_converged = false;  ///< no overflowed nets remained
  bool watchdog_tripped = false;  ///< RRR abandoned as non-converging
};

/// The open list of GlobalRouter's A* maze search: a min-priority queue
/// of states keyed by (f, state), for keys that never drop below the
/// last popped f, which holds because the search's heuristic is
/// consistent. Bucket k holds the states pushed at f = base + k as a
/// min-heap on the state id, so pops come out in exactly the (f, state)
/// order of one binary heap of pairs. The router owns one and reuses its
/// buckets across calls.
class MazeQueue {
 public:
  /// Empties the queue; the smallest key it will accept is `base`.
  void reset(long base);
  /// Throws std::logic_error when f is below the current bucket: a
  /// heuristic that is not consistent would silently reorder pops.
  void push(long f, std::uint32_t state);
  /// Pops the smallest (f, state); false when the queue is empty.
  bool pop(long& f, std::uint32_t& state);

 private:
  std::vector<std::vector<std::uint32_t>> buckets_;
  long base_ = 0;
  std::size_t cur_ = 0;  ///< buckets below cur_ are empty
  std::size_t end_ = 0;  ///< buckets at or past end_ are empty
  std::size_t size_ = 0;
};

class GlobalRouter {
 public:
  GlobalRouter(const netlist::Netlist& nl, const tech::Technology& tech,
               RouterOptions opt = {});

  /// Routes every net; returns the complete routing database.
  RouteDB run();

  const RouteStats& stats() const { return stats_; }

 private:
  struct Path {
    std::vector<GCell> corners;  ///< >= 2 points; consecutive points differ
                                 ///< in exactly one coordinate
    int pair = 0;                ///< layer pair index (0..3)
    long cost = 0;
    bool overflows = false;
  };

  int pair_for_length(int len, std::mt19937_64& rng) const;
  std::array<int, 3> thresholds_{};  ///< resolved from pair_threshold_fracs
  int h_layer(int pair) const { return 3 + 2 * pair; }  // M3,M5,M7,M9
  int v_layer(int pair) const { return 2 + 2 * pair; }  // M2,M4,M6,M8
  int layer_for_run(int pair, bool horizontal) const {
    return horizontal ? h_layer(pair) : v_layer(pair);
  }

  long run_cost(int layer, GCell a, GCell b) const;
  long path_cost(const Path& p) const;
  bool path_overflows(const Path& p) const;

  Path best_pattern(GCell a, GCell b, int pair, std::mt19937_64& rng) const;
  Path maze_route(GCell a, GCell b, int pair);

  void commit(const Path& p, NetRoute& out, int sign);
  void route_segment(GCell a, GCell b, NetRoute& out, std::mt19937_64& rng,
                     bool allow_maze);
  void route_net(netlist::NetId nid, NetRoute& out, std::mt19937_64& rng,
                 bool allow_maze);
  void unroute_net(NetRoute& nr);
  bool net_overflows(const NetRoute& nr) const;

  const netlist::Netlist& nl_;
  const tech::Technology& tech_;
  RouterOptions opt_;
  GridGeometry grid_;
  UsageMap usage_;
  RouteStats stats_;
  // maze_route scratch, reused across calls: per-state cost-so-far and
  // predecessor over the search window, and the open list.
  std::vector<long> maze_dist_;
  std::vector<int> maze_prev_;
  MazeQueue maze_queue_;
};

}  // namespace repro::route
