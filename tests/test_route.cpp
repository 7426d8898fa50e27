#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <set>
#include <string>

#include "route/global_router.hpp"

namespace repro::route {
namespace {

using netlist::CellId;
using netlist::Library;
using netlist::Net;
using netlist::Netlist;
using netlist::PinRef;

std::shared_ptr<const Library> lib() {
  static auto l = std::make_shared<const Library>(Library::make_default());
  return l;
}

/// A netlist of `n` random 2-pin nets between INV cells scattered over a
/// `w x h` DBU area.
std::unique_ptr<Netlist> random_netlist(int n, geom::Dbu w, geom::Dbu h,
                                        std::uint64_t seed) {
  auto nl = std::make_unique<Netlist>(lib(), "t");
  std::mt19937_64 rng(seed);
  const int inv = *lib()->find("INV_X1");
  std::uniform_int_distribution<geom::Dbu> ux(0, w - 1), uy(0, h - 1);
  for (int i = 0; i < n; ++i) {
    const CellId a = nl->add_cell("a" + std::to_string(i), inv,
                                  {ux(rng), uy(rng)});
    const CellId b = nl->add_cell("b" + std::to_string(i), inv,
                                  {ux(rng), uy(rng)});
    Net net;
    net.name = "n" + std::to_string(i);
    net.pins = {{a, 1}, {b, 0}};
    net.driver = 0;
    nl->add_net(net);
  }
  return nl;
}

/// Verifies that a routed net is a single connected component spanning all
/// its pin GCells, and returns the set of metal layers it uses.
std::set<int> check_net_connected(const NetRoute& nr) {
  // Node = (layer, x, y); union wires along runs, vias across layers.
  std::map<std::tuple<int, int, int>, int> id;
  const auto node = [&](int l, int x, int y) {
    return id.emplace(std::make_tuple(l, x, y), static_cast<int>(id.size()))
        .first->second;
  };
  std::vector<int> parent;
  const auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    }
    return x;
  };
  std::vector<std::pair<int, int>> edges;
  std::set<int> layers;
  for (const WireSeg& w : nr.wires) {
    layers.insert(w.layer);
    EXPECT_TRUE(w.a.x <= w.b.x && w.a.y <= w.b.y);
    EXPECT_TRUE(w.a.x == w.b.x || w.a.y == w.b.y) << "non-rectilinear wire";
    if (w.horizontal()) {
      for (int x = w.a.x; x < w.b.x; ++x) {
        edges.emplace_back(node(w.layer, x, w.a.y),
                           node(w.layer, x + 1, w.a.y));
      }
    } else {
      for (int y = w.a.y; y < w.b.y; ++y) {
        edges.emplace_back(node(w.layer, w.a.x, y),
                           node(w.layer, w.a.x, y + 1));
      }
    }
  }
  for (const Via& v : nr.vias) {
    edges.emplace_back(node(v.via_layer, v.at.x, v.at.y),
                       node(v.via_layer + 1, v.at.x, v.at.y));
  }
  std::vector<int> pin_nodes;
  for (const PinAccess& pa : nr.pin_access) {
    pin_nodes.push_back(node(1, pa.gcell.x, pa.gcell.y));
  }
  parent.resize(id.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<int>(i);
  }
  for (const auto& [a, b] : edges) {
    parent[static_cast<std::size_t>(find(a))] = find(b);
  }
  for (std::size_t i = 1; i < pin_nodes.size(); ++i) {
    EXPECT_EQ(find(pin_nodes[0]), find(pin_nodes[i]))
        << "pins of net disconnected";
  }
  return layers;
}

TEST(GlobalRouter, EveryNetConnectedAndRectilinear) {
  auto nl = random_netlist(300, 40000, 40000, 1);
  const auto tech = tech::Technology::make_default();
  GlobalRouter router(*nl, tech);
  const RouteDB db = router.run();
  ASSERT_EQ(static_cast<int>(db.routes.size()), nl->num_nets());
  for (const NetRoute& nr : db.routes) {
    EXPECT_TRUE(nr.routed());
    check_net_connected(nr);
  }
}

TEST(GlobalRouter, PreferredDirectionsRespected) {
  auto nl = random_netlist(300, 40000, 40000, 2);
  const auto tech = tech::Technology::make_default();
  GlobalRouter router(*nl, tech);
  const RouteDB db = router.run();
  for (const NetRoute& nr : db.routes) {
    for (const WireSeg& w : nr.wires) {
      if (w.length() == 0) continue;
      const bool layer_horizontal =
          tech.metal(w.layer).preferred == tech::Direction::kHorizontal;
      EXPECT_EQ(w.horizontal(), layer_horizontal)
          << "M" << w.layer << " run against preferred direction";
    }
  }
}

TEST(GlobalRouter, UsageMatchesCommittedWires) {
  auto nl = random_netlist(200, 30000, 30000, 3);
  const auto tech = tech::Technology::make_default();
  GlobalRouter router(*nl, tech);
  const RouteDB db = router.run();
  // Recompute usage from scratch and compare to the router's map.
  UsageMap fresh(tech, db.grid.nx(), db.grid.ny());
  for (const NetRoute& nr : db.routes) {
    for (const WireSeg& w : nr.wires) {
      if (w.horizontal()) {
        for (int x = w.a.x; x < w.b.x; ++x) fresh.add(w.layer, x, w.a.y, 1);
      } else {
        for (int y = w.a.y; y < w.b.y; ++y) fresh.add(w.layer, w.a.x, y, 1);
      }
    }
  }
  for (int l = 1; l <= tech.num_metal_layers(); ++l) {
    EXPECT_EQ(fresh.total_usage(l), db.usage.total_usage(l)) << "M" << l;
  }
}

TEST(GlobalRouter, LongNetsClimbShortNetsStayLow) {
  auto nl = std::make_unique<Netlist>(lib(), "t");
  const int inv = *lib()->find("INV_X1");
  // Short net: adjacent cells. Long net: across an 80-gcell die.
  const CellId a = nl->add_cell("a", inv, {0, 0});
  const CellId b = nl->add_cell("b", inv, {1600, 0});
  const CellId c = nl->add_cell("c", inv, {0, 4000});
  const CellId d = nl->add_cell("d", inv, {63000, 60000});
  // Stretch the die with a far-away anchor cell (unconnected).
  nl->add_cell("anchor", inv, {63500, 63500});
  Net s;
  s.name = "short";
  s.pins = {{a, 1}, {b, 0}};
  s.driver = 0;
  nl->add_net(s);
  Net l;
  l.name = "long";
  l.pins = {{c, 1}, {d, 0}};
  l.driver = 0;
  nl->add_net(l);

  const auto tech = tech::Technology::make_default();
  RouterOptions opt;
  opt.promote_prob = 0.0;
  GlobalRouter router(*nl, tech, opt);
  const RouteDB db = router.run();
  EXPECT_LE(db.routes[0].highest_layer(), 3) << "short net should stay low";
  EXPECT_GE(db.routes[1].highest_layer(), 8) << "long net should climb";
}

TEST(GlobalRouter, MultiPinNetsRouted) {
  auto nl = std::make_unique<Netlist>(lib(), "t");
  const int inv = *lib()->find("INV_X1");
  const int nand = *lib()->find("NAND2_X1");
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<geom::Dbu> u(0, 30000);
  for (int i = 0; i < 30; ++i) {
    const CellId drv = nl->add_cell("d" + std::to_string(i), inv,
                                    {u(rng), u(rng)});
    Net net;
    net.name = "n" + std::to_string(i);
    net.pins.push_back({drv, 1});
    net.driver = 0;
    for (int k = 0; k < 2 + i % 4; ++k) {
      const CellId ld = nl->add_cell(
          "l" + std::to_string(i) + "_" + std::to_string(k), nand,
          {u(rng), u(rng)});
      net.pins.push_back({ld, k % 2});
    }
    nl->add_net(net);
  }
  const auto tech = tech::Technology::make_default();
  GlobalRouter router(*nl, tech);
  const RouteDB db = router.run();
  for (const NetRoute& nr : db.routes) check_net_connected(nr);
}

TEST(GlobalRouter, DeterministicGivenSeed) {
  const auto tech = tech::Technology::make_default();
  auto run_once = [&](std::uint64_t seed) {
    auto nl = random_netlist(150, 30000, 30000, 7);
    RouterOptions opt;
    opt.seed = seed;
    GlobalRouter router(*nl, tech, opt);
    const RouteDB db = router.run();
    long sig = 0;
    for (const NetRoute& nr : db.routes) {
      for (const WireSeg& w : nr.wires) {
        sig = sig * 31 + w.layer * 7 + w.a.x + w.a.y * 3 + w.b.x * 5 +
              w.b.y * 11;
      }
    }
    return sig;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));  // different seeds should differ
}

// The maze router's layouts depend on the order in which equal-f states
// pop, so the bucket queue must pop exactly what a binary heap of
// (f, state) pairs would, over pushes that never fall below the popped f.
TEST(MazeQueue, PopsInTheExactOrderOfABinaryHeapOfPairs) {
  std::mt19937_64 rng(7);
  MazeQueue q;
  for (int round = 0; round < 50; ++round) {
    using Key = std::pair<long, std::uint32_t>;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> ref;
    const long base = static_cast<long>(rng() % 100);
    q.reset(base);  // also drops whatever the last round left queued
    for (int i = 0; i < 8; ++i) {
      const auto s = static_cast<std::uint32_t>(rng() % 64);
      q.push(base, s);
      ref.emplace(base, s);
    }
    for (int step = 0; step < 400 && !ref.empty(); ++step) {
      long f = -1;
      std::uint32_t s = 0;
      ASSERT_TRUE(q.pop(f, s));
      ASSERT_EQ(Key(f, s), ref.top()) << "round " << round;
      ref.pop();
      // Like an A* relaxation: 0-3 successors at f + 0..20, ties common.
      for (int k = static_cast<int>(rng() % 4); k > 0; --k) {
        const long nf = f + static_cast<long>(rng() % 21);
        const auto ns = static_cast<std::uint32_t>(rng() % 64);
        q.push(nf, ns);
        ref.emplace(nf, ns);
      }
    }
    if (ref.empty()) {
      long f = 0;
      std::uint32_t s = 0;
      EXPECT_FALSE(q.pop(f, s));
    }
  }
}

TEST(MazeQueue, PushBelowThePoppedKeyThrows) {
  MazeQueue q;
  q.reset(10);
  q.push(10, 3);
  q.push(12, 1);
  long f = 0;
  std::uint32_t s = 0;
  ASSERT_TRUE(q.pop(f, s));
  ASSERT_TRUE(q.pop(f, s));
  EXPECT_EQ(f, 12);
  EXPECT_NO_THROW(q.push(12, 0));  // equal to the popped key is fine
  EXPECT_THROW(q.push(11, 0), std::logic_error);
  q.reset(10);
  EXPECT_THROW(q.push(9, 0), std::logic_error);
}

TEST(GridGeometry, MapsPointsToCells) {
  const GridGeometry g(geom::Rect(0, 0, 8000, 4000), 800);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.ny(), 5);
  EXPECT_EQ(g.gcell_of({0, 0}).x, 0);
  EXPECT_EQ(g.gcell_of({799, 799}).x, 0);
  EXPECT_EQ(g.gcell_of({800, 800}).x, 1);
  EXPECT_EQ(g.gcell_of({800, 800}).y, 1);
  // Out-of-die points clamp.
  EXPECT_EQ(g.gcell_of({-100, 99999}).x, 0);
  EXPECT_EQ(g.gcell_of({-100, 99999}).y, 4);
  const geom::Point c = g.center_of({1, 1});
  EXPECT_EQ(c.x, 1200);
  EXPECT_EQ(c.y, 1200);
}

TEST(GlobalRouter, RandomizedRoutingScramblesButStaysLegal) {
  const auto tech = tech::Technology::make_default();
  auto run_with = [&](double prob) {
    auto nl = random_netlist(200, 40000, 40000, 11);
    RouterOptions opt;
    opt.random_route_prob = prob;
    opt.seed = 99;
    GlobalRouter router(*nl, tech, opt);
    return router.run();
  };
  const RouteDB normal = run_with(0.0);
  const RouteDB scrambled = run_with(0.9);
  // Still fully connected and rectilinear.
  long nw = 0, sw = 0;
  int differs = 0;
  for (std::size_t i = 0; i < normal.routes.size(); ++i) {
    check_net_connected(scrambled.routes[i]);
    nw += normal.routes[i].total_wire_gcells();
    sw += scrambled.routes[i].total_wire_gcells();
    if (normal.routes[i].wires.size() != scrambled.routes[i].wires.size()) {
      ++differs;
    }
  }
  // Obfuscation changed a meaningful share of routes and did not shorten
  // total wirelength.
  EXPECT_GT(differs, 20);
  EXPECT_GE(sw, nw);
}

TEST(GlobalRouter, WireLiftingRaisesShortNets) {
  const auto tech = tech::Technology::make_default();
  auto run_with = [&](double lift) {
    auto nl = random_netlist(150, 40000, 40000, 21);
    RouterOptions opt;
    opt.lift_to_pair = 3;
    opt.lift_prob = lift;
    opt.seed = 5;
    GlobalRouter router(*nl, tech, opt);
    return router.run();
  };
  const RouteDB normal = run_with(0.0);
  const RouteDB lifted = run_with(1.0);
  int normal_high = 0, lifted_high = 0;
  for (std::size_t i = 0; i < normal.routes.size(); ++i) {
    check_net_connected(lifted.routes[i]);
    normal_high += (normal.routes[i].highest_layer() >= 8);
    lifted_high += (lifted.routes[i].highest_layer() >= 8);
  }
  // With lift_prob = 1 every routed segment reaches the top pair.
  EXPECT_GT(lifted_high, normal_high + 50);
}

class RouterSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(RouterSeedSweep, InvariantsHoldAcrossSeeds) {
  auto nl = random_netlist(120, 25000, 25000,
                           static_cast<std::uint64_t>(GetParam()));
  const auto tech = tech::Technology::make_default();
  RouterOptions opt;
  opt.seed = static_cast<std::uint64_t>(GetParam()) * 17;
  GlobalRouter router(*nl, tech, opt);
  const RouteDB db = router.run();
  for (const NetRoute& nr : db.routes) {
    const std::set<int> layers = check_net_connected(nr);
    // M1 is closed to routing.
    EXPECT_EQ(layers.count(1), 0u);
    // Wires stay on the grid.
    for (const WireSeg& w : nr.wires) {
      EXPECT_GE(w.a.x, 0);
      EXPECT_GE(w.a.y, 0);
      EXPECT_LT(w.b.x, db.grid.nx());
      EXPECT_LT(w.b.y, db.grid.ny());
    }
    for (const Via& v : nr.vias) {
      EXPECT_GE(v.via_layer, 1);
      EXPECT_LE(v.via_layer, 8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterSeedSweep, ::testing::Range(1, 7));

// --- RRR watchdog ---------------------------------------------------------

/// A netlist the router provably cannot route overflow-free: `n`
/// identical full-width nets in a strip only a few gcells tall, so the
/// demand across any vertical cut exceeds the total horizontal capacity.
/// Rip-up-and-reroute can shuffle the overflow around but never remove
/// it — the scenario the watchdog exists for.
std::unique_ptr<Netlist> unroutable_netlist(int n) {
  auto nl = std::make_unique<Netlist>(lib(), "jam");
  const int inv = *lib()->find("INV_X1");
  for (int i = 0; i < n; ++i) {
    const CellId a = nl->add_cell("a" + std::to_string(i), inv, {0, 1000});
    const CellId b = nl->add_cell("b" + std::to_string(i), inv,
                                  {39999, 1000});
    Net net;
    net.name = "jam" + std::to_string(i);
    net.pins = {{a, 1}, {b, 0}};
    net.driver = 0;
    nl->add_net(net);
  }
  return nl;
}

bool has_diag(const common::DiagnosticSink& sink, const std::string& code) {
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(RrrWatchdog, TripsOnOscillationAndKeepsAValidRouting) {
  auto nl = unroutable_netlist(400);
  const auto tech = tech::Technology::make_default();
  common::DiagnosticSink sink;
  RouterOptions opt;
  opt.ripup_iters = 50;  // without the watchdog, 50 futile rounds
  opt.watchdog_patience = 2;
  opt.sink = &sink;
  GlobalRouter router(*nl, tech, opt);
  const RouteDB db = router.run();

  EXPECT_TRUE(router.stats().watchdog_tripped);
  EXPECT_FALSE(router.stats().rrr_converged);
  EXPECT_LT(router.stats().rrr_iterations, opt.ripup_iters)
      << "the watchdog must abandon the loop well before the cap";
  EXPECT_TRUE(has_diag(sink, "route.rrr_watchdog"));
  EXPECT_EQ(sink.num_errors(), 0u)
      << "non-convergence is repairable (a quality issue), not an error";
  // Abandoning RRR must still leave every net fully routed and legal.
  for (const NetRoute& nr : db.routes) {
    EXPECT_TRUE(nr.routed());
    check_net_connected(nr);
  }
}

TEST(RrrWatchdog, QuietOnAConvergedRun) {
  auto nl = random_netlist(50, 40000, 40000, 11);
  const auto tech = tech::Technology::make_default();
  common::DiagnosticSink sink;
  RouterOptions opt;
  opt.sink = &sink;
  GlobalRouter router(*nl, tech, opt);
  (void)router.run();
  EXPECT_TRUE(router.stats().rrr_converged);
  EXPECT_FALSE(router.stats().watchdog_tripped);
  EXPECT_TRUE(sink.diagnostics().empty());
}

TEST(RrrWatchdog, ExhaustedIterationCapIsDiagnosed) {
  auto nl = unroutable_netlist(400);
  const auto tech = tech::Technology::make_default();
  common::DiagnosticSink sink;
  RouterOptions opt;
  opt.ripup_iters = 2;
  opt.watchdog_patience = 0;  // disabled: exercise the cap path alone
  opt.sink = &sink;
  GlobalRouter router(*nl, tech, opt);
  (void)router.run();
  EXPECT_FALSE(router.stats().rrr_converged);
  EXPECT_FALSE(router.stats().watchdog_tripped);
  EXPECT_EQ(router.stats().rrr_iterations, 2);
  EXPECT_TRUE(has_diag(sink, "route.rrr_nonconvergence"));
  EXPECT_EQ(sink.num_errors(), 0u);
}

TEST(RrrWatchdog, CancellationStopsTheLoopWithoutDamage) {
  auto nl = unroutable_netlist(200);
  const auto tech = tech::Technology::make_default();
  common::DiagnosticSink sink;
  common::CancelToken cancel;
  cancel.request_cancel("shutting down");
  RouterOptions opt;
  opt.ripup_iters = 50;
  opt.cancel = &cancel;
  opt.sink = &sink;
  GlobalRouter router(*nl, tech, opt);
  const RouteDB db = router.run();
  EXPECT_EQ(router.stats().rrr_iterations, 0);
  EXPECT_FALSE(router.stats().watchdog_tripped);
  EXPECT_TRUE(has_diag(sink, "route.rrr_cancelled"));
  // The initial routing pass still completed: state is valid.
  for (const NetRoute& nr : db.routes) {
    EXPECT_TRUE(nr.routed());
    check_net_connected(nr);
  }
}

}  // namespace
}  // namespace repro::route
