#include "route/global_router.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/obs.hpp"

namespace repro::route {

namespace {

/// Extra cost charged per bend, discouraging gratuitous Z-shapes.
constexpr long kViaCost = 6;

/// Removes zero-length runs and collinear corners from a corner list.
std::vector<GCell> simplify_corners(const std::vector<GCell>& in) {
  std::vector<GCell> out;
  for (const GCell& g : in) {
    if (!out.empty() && out.back() == g) continue;
    while (out.size() >= 2) {
      const GCell& p1 = out[out.size() - 2];
      const GCell& p2 = out.back();
      const bool collinear =
          (p1.x == p2.x && p2.x == g.x) || (p1.y == p2.y && p2.y == g.y);
      if (collinear) {
        out.pop_back();
      } else {
        break;
      }
    }
    out.push_back(g);
  }
  return out;
}

}  // namespace

GlobalRouter::GlobalRouter(const netlist::Netlist& nl,
                           const tech::Technology& tech, RouterOptions opt)
    : nl_(nl),
      tech_(tech),
      opt_(opt),
      grid_(nl.bounding_box(), tech.gcell_size()),
      usage_(tech, grid_.nx(), grid_.ny()) {
  if (tech.num_metal_layers() < 9) {
    throw std::invalid_argument(
        "GlobalRouter expects the 9-metal default stack");
  }
  const int span = std::max(grid_.nx(), grid_.ny());
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    thresholds_[i] = std::max<int>(
        1, static_cast<int>(opt_.pair_threshold_fracs[i] * span));
  }
}

int GlobalRouter::pair_for_length(int len, std::mt19937_64& rng) const {
  int pair = 3;
  if (len <= thresholds_[0]) {
    pair = 0;
  } else if (len <= thresholds_[1]) {
    pair = 1;
  } else if (len <= thresholds_[2]) {
    pair = 2;
  }
  if (pair < 3) {
    std::bernoulli_distribution promote(opt_.promote_prob);
    if (promote(rng)) ++pair;
  }
  if (opt_.lift_to_pair >= 0 && pair < opt_.lift_to_pair &&
      opt_.lift_prob > 0.0) {
    std::bernoulli_distribution lift(opt_.lift_prob);
    if (lift(rng)) pair = std::min(3, opt_.lift_to_pair);
  }
  return pair;
}

long GlobalRouter::run_cost(int layer, GCell a, GCell b) const {
  const int cap = usage_.capacity(layer);
  long cost = 0;
  if (a.y == b.y) {
    const int x0 = std::min(a.x, b.x), x1 = std::max(a.x, b.x);
    for (int x = x0; x < x1; ++x) {
      const int u = usage_.usage(layer, x, a.y);
      cost += 1 + (u >= cap ? opt_.overflow_penalty * (u - cap + 1) : 0);
    }
  } else {
    const int y0 = std::min(a.y, b.y), y1 = std::max(a.y, b.y);
    for (int y = y0; y < y1; ++y) {
      const int u = usage_.usage(layer, a.x, y);
      cost += 1 + (u >= cap ? opt_.overflow_penalty * (u - cap + 1) : 0);
    }
  }
  return cost;
}

long GlobalRouter::path_cost(const Path& p) const {
  long cost = 0;
  for (std::size_t i = 0; i + 1 < p.corners.size(); ++i) {
    const GCell& a = p.corners[i];
    const GCell& b = p.corners[i + 1];
    if (a == b) continue;
    const bool horiz = (a.y == b.y);
    cost += run_cost(layer_for_run(p.pair, horiz), a, b) + kViaCost;
  }
  return cost;
}

bool GlobalRouter::path_overflows(const Path& p) const {
  for (std::size_t i = 0; i + 1 < p.corners.size(); ++i) {
    const GCell& a = p.corners[i];
    const GCell& b = p.corners[i + 1];
    if (a == b) continue;
    const bool horiz = (a.y == b.y);
    const int layer = layer_for_run(p.pair, horiz);
    const int cap = usage_.capacity(layer);
    if (horiz) {
      const int x0 = std::min(a.x, b.x), x1 = std::max(a.x, b.x);
      for (int x = x0; x < x1; ++x) {
        if (usage_.usage(layer, x, a.y) >= cap) return true;
      }
    } else {
      const int y0 = std::min(a.y, b.y), y1 = std::max(a.y, b.y);
      for (int y = y0; y < y1; ++y) {
        if (usage_.usage(layer, a.x, y) >= cap) return true;
      }
    }
  }
  return false;
}

GlobalRouter::Path GlobalRouter::best_pattern(GCell a, GCell b, int pair,
                                              std::mt19937_64& rng) const {
  std::vector<Path> candidates;
  auto add = [&](std::vector<GCell> corners) {
    Path p;
    p.corners = simplify_corners(corners);
    p.pair = pair;
    p.cost = path_cost(p);
    p.overflows = path_overflows(p);
    candidates.push_back(std::move(p));
  };

  // Two L-shapes (degenerate to a straight run when aligned).
  add({a, GCell{b.x, a.y}, b});
  if (a.x != b.x && a.y != b.y) add({a, GCell{a.x, b.y}, b});

  // Random Z-shapes.
  if (a.x != b.x || a.y != b.y) {
    for (int t = 0; t < opt_.num_z_trials; ++t) {
      if (a.x != b.x) {
        std::uniform_int_distribution<int> mid(std::min(a.x, b.x),
                                               std::max(a.x, b.x));
        const int xm = mid(rng);
        add({a, GCell{xm, a.y}, GCell{xm, b.y}, b});
      }
      if (a.y != b.y) {
        std::uniform_int_distribution<int> mid(std::min(a.y, b.y),
                                               std::max(a.y, b.y));
        const int ym = mid(rng);
        add({a, GCell{a.x, ym}, GCell{b.x, ym}, b});
      }
    }
  }

  // Obfuscated routing: occasionally take a random viable candidate
  // instead of the best one (see RouterOptions::random_route_prob).
  if (opt_.random_route_prob > 0.0) {
    std::bernoulli_distribution scramble(opt_.random_route_prob);
    if (scramble(rng)) {
      std::vector<const Path*> viable;
      for (const Path& p : candidates) {
        if (!p.overflows) viable.push_back(&p);
      }
      if (!viable.empty()) {
        std::uniform_int_distribution<std::size_t> pick(0, viable.size() - 1);
        return *viable[pick(rng)];
      }
    }
  }

  return *std::min_element(candidates.begin(), candidates.end(),
                           [](const Path& x, const Path& y) {
                             // Prefer non-overflowing, then cheaper.
                             if (x.overflows != y.overflows)
                               return !x.overflows;
                             return x.cost < y.cost;
                           });
}

void MazeQueue::reset(long base) {
  for (std::size_t k = cur_; k < end_; ++k) buckets_[k].clear();
  base_ = base;
  cur_ = end_ = size_ = 0;
}

void MazeQueue::push(long f, std::uint32_t state) {
  if (f < base_ + static_cast<long>(cur_)) {
    throw std::logic_error(
        "maze A*: key below the current bucket (inconsistent heuristic)");
  }
  const auto k = static_cast<std::size_t>(f - base_);
  if (k >= buckets_.size()) buckets_.resize(k + 1);
  std::vector<std::uint32_t>& b = buckets_[k];
  b.push_back(state);
  std::push_heap(b.begin(), b.end(), std::greater<>());
  end_ = std::max(end_, k + 1);
  ++size_;
}

bool MazeQueue::pop(long& f, std::uint32_t& state) {
  if (size_ == 0) return false;
  while (buckets_[cur_].empty()) ++cur_;
  std::vector<std::uint32_t>& b = buckets_[cur_];
  std::pop_heap(b.begin(), b.end(), std::greater<>());
  state = b.back();
  b.pop_back();
  f = base_ + static_cast<long>(cur_);
  --size_;
  return true;
}

GlobalRouter::Path GlobalRouter::maze_route(GCell a, GCell b, int pair) {
  ++stats_.maze_invocations;
  const int x0 = std::max(0, std::min(a.x, b.x) - opt_.maze_margin);
  const int x1 = std::min(grid_.nx() - 1, std::max(a.x, b.x) + opt_.maze_margin);
  const int y0 = std::max(0, std::min(a.y, b.y) - opt_.maze_margin);
  const int y1 = std::min(grid_.ny() - 1, std::max(a.y, b.y) + opt_.maze_margin);
  const int w = x1 - x0 + 1, h = y1 - y0 + 1;
  // A* state: (cell, axis of the last move). Axis 0 = horizontal, 1 =
  // vertical. Direction changes pay a bend (via) cost, which keeps maze
  // detours from zig-zagging between the two layers of the pair.
  const auto idx = [&](int x, int y, int axis) {
    return static_cast<std::uint32_t>(((y - y0) * w + (x - x0)) * 2 + axis);
  };
  constexpr long kBendCost = 12;

  const std::size_t num_states = static_cast<std::size_t>(w) * h * 2;
  std::vector<long>& dist = maze_dist_;
  std::vector<int>& prev = maze_prev_;
  dist.assign(num_states, std::numeric_limits<long>::max());
  prev.assign(num_states, -1);

  // f = g + Manhattan distance to b. Every step costs at least 1 and
  // moves one GCell, so the heuristic is consistent and no push lands
  // below the popped f: the bucket queue pops the same (f, state)
  // sequence a binary heap would (MazeQueue::push checks it).
  const auto heur = [&](int x, int y) {
    return static_cast<long>(std::abs(x - b.x) + std::abs(y - b.y));
  };
  MazeQueue& pq = maze_queue_;
  pq.reset(heur(a.x, a.y));
  for (int axis : {0, 1}) {
    dist[idx(a.x, a.y, axis)] = 0;
    pq.push(heur(a.x, a.y), idx(a.x, a.y, axis));
  }

  const int hl = h_layer(pair), vl = v_layer(pair);
  const int hcap = usage_.capacity(hl), vcap = usage_.capacity(vl);

  int goal_state = -1;
  long f = 0;
  std::uint32_t state = 0;
  while (pq.pop(f, state)) {
    const int cell = static_cast<int>(state / 2);
    const int axis = static_cast<int>(state % 2);
    const int x = x0 + cell % w, y = y0 + cell / w;
    const long g = dist[state];
    if (f - heur(x, y) > g) continue;  // stale entry
    if (x == b.x && y == b.y) {
      goal_state = static_cast<int>(state);
      break;
    }

    struct Move {
      int nx, ny, ex, ey, layer, cap, axis;
    };
    const Move moves[4] = {
        {x + 1, y, x, y, hl, hcap, 0},      // +x uses h edge (x, y)
        {x - 1, y, x - 1, y, hl, hcap, 0},  // -x uses h edge (x-1, y)
        {x, y + 1, x, y, vl, vcap, 1},      // +y uses v edge (x, y)
        {x, y - 1, x, y - 1, vl, vcap, 1},  // -y uses v edge (x, y-1)
    };
    for (const Move& m : moves) {
      if (m.nx < x0 || m.nx > x1 || m.ny < y0 || m.ny > y1) continue;
      const int u = usage_.usage(m.layer, m.ex, m.ey);
      const long step =
          1 + (u >= m.cap ? opt_.overflow_penalty * (u - m.cap + 1) : 0) +
          (m.axis != axis ? kBendCost : 0);
      const std::uint32_t nstate = idx(m.nx, m.ny, m.axis);
      if (g + step < dist[nstate]) {
        dist[nstate] = g + step;
        prev[nstate] = static_cast<int>(state);
        pq.push(g + step + heur(m.nx, m.ny), nstate);
      }
    }
  }

  Path p;
  p.pair = pair;
  if (goal_state < 0) {
    // Unreachable within the window (should not happen on an open grid);
    // fall back to a straight L.
    p.corners = simplify_corners({a, GCell{b.x, a.y}, b});
  } else {
    std::vector<GCell> cells;
    for (int s = goal_state; s != -1; s = prev[static_cast<std::size_t>(s)]) {
      const int cell = s / 2;
      const GCell gc{x0 + cell % w, y0 + cell / w};
      if (cells.empty() || !(cells.back() == gc)) cells.push_back(gc);
      if (gc == a) break;
    }
    std::reverse(cells.begin(), cells.end());
    p.corners = simplify_corners(cells);
  }
  p.cost = path_cost(p);
  p.overflows = path_overflows(p);
  return p;
}

void GlobalRouter::commit(const Path& p, NetRoute& out, int sign) {
  for (std::size_t i = 0; i + 1 < p.corners.size(); ++i) {
    const GCell& a = p.corners[i];
    const GCell& b = p.corners[i + 1];
    if (a == b) continue;
    const bool horiz = (a.y == b.y);
    const int layer = layer_for_run(p.pair, horiz);
    WireSeg w;
    w.layer = layer;
    w.a = GCell{std::min(a.x, b.x), std::min(a.y, b.y)};
    w.b = GCell{std::max(a.x, b.x), std::max(a.y, b.y)};
    if (sign > 0) out.wires.push_back(w);
    if (horiz) {
      for (int x = w.a.x; x < w.b.x; ++x) usage_.add(layer, x, w.a.y, sign);
    } else {
      for (int y = w.a.y; y < w.b.y; ++y) usage_.add(layer, w.a.x, y, sign);
    }
    // Bend via towards the next run (the two layers of a pair are adjacent,
    // so a single via at v_layer(pair) connects them).
    if (sign > 0 && i + 2 < p.corners.size() && p.corners[i + 1] != p.corners[i + 2]) {
      out.vias.push_back(Via{v_layer(p.pair), b});
    }
  }
}

void GlobalRouter::route_segment(GCell a, GCell b, NetRoute& out,
                                 std::mt19937_64& rng, bool allow_maze) {
  if (a == b) return;  // local connection; pin stacks handle it

  const int len = std::abs(a.x - b.x) + std::abs(a.y - b.y);
  const int pair = pair_for_length(len, rng);

  Path best = best_pattern(a, b, pair, rng);
  if (best.overflows && pair < 3) {
    Path up = best_pattern(a, b, pair + 1, rng);
    if (!up.overflows || up.cost < best.cost) best = std::move(up);
  }
  if (best.overflows && allow_maze) {
    Path mz = maze_route(a, b, best.pair);
    if (!mz.overflows || mz.cost < best.cost) best = std::move(mz);
  }

  commit(best, out, +1);

  // Record the metal layer at which the segment touches its two endpoint
  // GCells, so route_net can raise the pin via stacks accordingly.
  const auto run_layer_at = [&](const GCell& g) {
    // First or last non-degenerate run adjacent to g.
    if (best.corners.size() >= 2) {
      if (best.corners.front() == g) {
        const GCell& n = best.corners[1];
        return layer_for_run(best.pair, n.y == g.y);
      }
      if (best.corners.back() == g) {
        const GCell& n = best.corners[best.corners.size() - 2];
        return layer_for_run(best.pair, n.y == g.y);
      }
    }
    return 1;
  };
  out.pin_access.push_back(
      PinAccess{netlist::PinRef{}, a, run_layer_at(a)});  // placeholder pin;
  out.pin_access.push_back(PinAccess{netlist::PinRef{}, b, run_layer_at(b)});
  // The placeholder entries are consumed (max-reduced per GCell) and
  // replaced with real pin references by route_net below.
}

void GlobalRouter::route_net(netlist::NetId nid, NetRoute& out,
                             std::mt19937_64& rng, bool allow_maze) {
  const netlist::Net& net = nl_.net(nid);
  out.net = nid;
  out.wires.clear();
  out.vias.clear();
  out.pin_access.clear();

  // Collect distinct pin GCells.
  std::vector<GCell> points;
  std::vector<std::pair<netlist::PinRef, GCell>> pin_cells;
  for (const netlist::PinRef& p : net.pins) {
    const GCell g = grid_.gcell_of(nl_.pin_position(p));
    pin_cells.emplace_back(p, g);
    if (std::find(points.begin(), points.end(), g) == points.end()) {
      points.push_back(g);
    }
  }

  // Prim MST over distinct GCells (Manhattan metric).
  std::vector<std::pair<GCell, GCell>> edges;
  if (points.size() >= 2) {
    std::vector<bool> in_tree(points.size(), false);
    std::vector<int> best_to(points.size(), 0);
    std::vector<long> best_d(points.size(),
                             std::numeric_limits<long>::max());
    in_tree[0] = true;
    for (std::size_t i = 1; i < points.size(); ++i) {
      best_d[i] = std::abs(points[i].x - points[0].x) +
                  std::abs(points[i].y - points[0].y);
    }
    for (std::size_t added = 1; added < points.size(); ++added) {
      long bd = std::numeric_limits<long>::max();
      std::size_t bi = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (!in_tree[i] && best_d[i] < bd) {
          bd = best_d[i];
          bi = i;
        }
      }
      in_tree[bi] = true;
      edges.emplace_back(points[static_cast<std::size_t>(best_to[bi])],
                         points[bi]);
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (in_tree[i]) continue;
        const long d = std::abs(points[i].x - points[bi].x) +
                       std::abs(points[i].y - points[bi].y);
        if (d < best_d[i]) {
          best_d[i] = d;
          best_to[i] = static_cast<int>(bi);
        }
      }
    }
  }

  for (const auto& [a, b] : edges) route_segment(a, b, out, rng, allow_maze);

  // Fold the placeholder endpoint records into a per-GCell top layer.
  std::map<std::pair<int, int>, int> top;  // (x, y) -> highest metal layer
  for (const PinAccess& pa : out.pin_access) {
    auto& t = top[{pa.gcell.x, pa.gcell.y}];
    t = std::max(t, pa.top_layer);
  }
  out.pin_access.clear();

  // Emit pin via stacks and the real pin-access records.
  for (const auto& [pin, g] : pin_cells) {
    auto it = top.find({g.x, g.y});
    const int t = (it == top.end()) ? 1 : std::max(1, it->second);
    out.pin_access.push_back(PinAccess{pin, g, t});
  }
  for (const auto& [xy, t] : top) {
    for (int vl = 1; vl < t; ++vl) {
      out.vias.push_back(Via{vl, GCell{xy.first, xy.second}});
    }
  }

  // Deduplicate vias (shared bends / stacked pins).
  std::sort(out.vias.begin(), out.vias.end(), [](const Via& a, const Via& b) {
    return std::tie(a.via_layer, a.at.x, a.at.y) <
           std::tie(b.via_layer, b.at.x, b.at.y);
  });
  out.vias.erase(std::unique(out.vias.begin(), out.vias.end(),
                             [](const Via& a, const Via& b) {
                               return a.via_layer == b.via_layer &&
                                      a.at == b.at;
                             }),
                 out.vias.end());
}

void GlobalRouter::unroute_net(NetRoute& nr) {
  for (const WireSeg& w : nr.wires) {
    if (w.horizontal()) {
      for (int x = w.a.x; x < w.b.x; ++x) usage_.add(w.layer, x, w.a.y, -1);
    } else {
      for (int y = w.a.y; y < w.b.y; ++y) usage_.add(w.layer, w.a.x, y, -1);
    }
  }
  nr.wires.clear();
  nr.vias.clear();
  nr.pin_access.clear();
}

bool GlobalRouter::net_overflows(const NetRoute& nr) const {
  for (const WireSeg& w : nr.wires) {
    const int cap = usage_.capacity(w.layer);
    if (w.horizontal()) {
      for (int x = w.a.x; x < w.b.x; ++x) {
        if (usage_.usage(w.layer, x, w.a.y) > cap) return true;
      }
    } else {
      for (int y = w.a.y; y < w.b.y; ++y) {
        if (usage_.usage(w.layer, w.a.x, y) > cap) return true;
      }
    }
  }
  return false;
}

RouteDB GlobalRouter::run() {
  OBS_SPAN("route.run");
  std::mt19937_64 rng(opt_.seed);
  RouteDB db;
  db.grid = grid_;
  db.routes.assign(static_cast<std::size_t>(nl_.num_nets()), NetRoute{});

  // Route short nets first: they have the fewest alternatives.
  std::vector<netlist::NetId> order(static_cast<std::size_t>(nl_.num_nets()));
  for (netlist::NetId n = 0; n < nl_.num_nets(); ++n) {
    order[static_cast<std::size_t>(n)] = n;
  }
  std::vector<long> hp(order.size());
  for (netlist::NetId n = 0; n < nl_.num_nets(); ++n) {
    std::vector<geom::Point> pts;
    for (const netlist::PinRef& p : nl_.net(n).pins) {
      pts.push_back(nl_.pin_position(p));
    }
    hp[static_cast<std::size_t>(n)] = geom::hpwl(pts);
  }
  // Net-id tie-break makes plain std::sort reproduce the stable_sort
  // order (`order` starts ascending) without the libstdc++ temporary
  // buffer that ASan flags as an alloc-dealloc mismatch (see
  // place::legalize for the same substitution).
  std::sort(order.begin(), order.end(),
            [&](netlist::NetId a, netlist::NetId b) {
              const long ha = hp[static_cast<std::size_t>(a)];
              const long hb = hp[static_cast<std::size_t>(b)];
              if (ha != hb) return ha < hb;
              return a < b;
            });

  {
    OBS_SPAN("route.initial_pass");
    for (netlist::NetId n : order) {
      route_net(n, db.routes[static_cast<std::size_t>(n)], rng,
                /*allow_maze=*/false);
    }
  }
  OBS_COUNT("route.nets_routed", nl_.num_nets());

  // Rip-up and reroute overflowed nets with the maze fallback enabled.
  // The loop is bounded twice over: by the ripup_iters cap and by a
  // watchdog that detects non-convergence — `bad.size()` not dropping for
  // watchdog_patience consecutive iterations means the loop is ripping
  // the same nets up and putting them back (oscillation), and further
  // iterations only burn time. Both exits leave a *valid* routing (edge
  // overflow is a quality metric, not a correctness one), so the
  // diagnostics are repairable kWarnings, not errors.
  std::size_t best_bad = std::numeric_limits<std::size_t>::max();
  int stale_iters = 0;
  bool rrr_cancelled = false;
  for (int iter = 0; iter < opt_.ripup_iters; ++iter) {
    if (opt_.cancel && opt_.cancel->cancelled()) {
      rrr_cancelled = true;
      if (opt_.sink) {
        opt_.sink->note("route.rrr_cancelled", 0,
                        "rip-up-and-reroute stopped by cancellation after " +
                            std::to_string(iter) + " iteration(s)");
      }
      break;
    }
    OBS_SPAN_ARG("route.rrr_iter", iter);
    std::vector<netlist::NetId> bad;
    for (netlist::NetId n : order) {
      if (net_overflows(db.routes[static_cast<std::size_t>(n)])) {
        bad.push_back(n);
      }
    }
    if (bad.empty()) {
      stats_.rrr_converged = true;
      break;
    }
    if (bad.size() < best_bad) {
      best_bad = bad.size();
      stale_iters = 0;
    } else if (opt_.watchdog_patience > 0 &&
               ++stale_iters >= opt_.watchdog_patience) {
      stats_.watchdog_tripped = true;
      OBS_COUNT("route.rrr_watchdog_trips", 1);
      if (opt_.sink) {
        opt_.sink->warning(
            "route.rrr_watchdog", 0,
            "rip-up-and-reroute not converging: " + std::to_string(bad.size()) +
                " overflowed net(s) after " + std::to_string(iter) +
                " iteration(s) (best " + std::to_string(best_bad) +
                "); keeping the current routing");
      }
      break;
    }
    ++stats_.rrr_iterations;
    OBS_COUNT("route.rrr_iterations", 1);
    OBS_COUNT("route.nets_rerouted", bad.size());
    for (netlist::NetId n : bad) {
      unroute_net(db.routes[static_cast<std::size_t>(n)]);
      route_net(n, db.routes[static_cast<std::size_t>(n)], rng,
                opt_.enable_maze);
    }
  }
  if (!stats_.rrr_converged && !stats_.watchdog_tripped && !rrr_cancelled) {
    // The loop exhausted ripup_iters: re-check after the final reroute
    // round so the flag and diagnostic describe the state the caller
    // actually receives.
    stats_.rrr_converged = true;
    for (netlist::NetId n : order) {
      if (net_overflows(db.routes[static_cast<std::size_t>(n)])) {
        stats_.rrr_converged = false;
        break;
      }
    }
    if (!stats_.rrr_converged && opt_.sink) {
      opt_.sink->warning("route.rrr_nonconvergence", 0,
                         "overflowed nets remain after the ripup_iters cap (" +
                             std::to_string(opt_.ripup_iters) +
                             "); keeping the current routing");
    }
  }

  // Final statistics (maze count accumulated during routing).
  stats_.total_wire_gcells = 0;
  stats_.total_vias = 0;
  stats_.overflowed_edges = 0;
  for (const NetRoute& nr : db.routes) {
    stats_.total_wire_gcells += nr.total_wire_gcells();
    stats_.total_vias += static_cast<long>(nr.vias.size());
  }
  for (int l = 1; l <= tech_.num_metal_layers(); ++l) {
    const int cap = usage_.capacity(l);
    for (int y = 0; y < usage_.ny(); ++y) {
      for (int x = 0; x < usage_.nx(); ++x) {
        if (usage_.usage(l, x, y) > cap) ++stats_.overflowed_edges;
      }
    }
  }
  OBS_COUNT("route.maze_invocations", stats_.maze_invocations);
  OBS_COUNT("route.wire_gcells", stats_.total_wire_gcells);
  OBS_COUNT("route.vias", stats_.total_vias);
  OBS_COUNT("route.overflowed_edges", stats_.overflowed_edges);
  db.usage = usage_;
  return db;
}

}  // namespace repro::route
