#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "common/parallel.hpp"
#include "lefdef/lefdef.hpp"
#include "synth/synth.hpp"

namespace repro::synth {
namespace {

TEST(Synth, PresetsExistAndDiffer) {
  const auto names = preset_names();
  ASSERT_EQ(names.size(), 5u);
  for (const auto& n : names) {
    const SynthParams p = preset(n);
    EXPECT_EQ(p.name, n);
    EXPECT_GT(p.num_cells, 0);
  }
  EXPECT_NE(preset("sb1").num_cells, preset("sb12").num_cells);
  EXPECT_NE(preset("sb10").aspect, preset("sb1").aspect);
  EXPECT_GT(preset("sb10").num_buses, 0);  // the outlier design
  EXPECT_THROW(preset("sb99"), std::invalid_argument);
}

class SynthMini : public ::testing::Test {
 protected:
  static const SynthDesign& design() {
    static const SynthDesign d = [] {
      SynthParams p = preset("sb1");
      p.num_cells = 1500;
      p.name = "mini";
      return generate(p);
    }();
    return d;
  }
};

TEST_F(SynthMini, NetlistIsStructurallyValid) {
  const auto& d = design();
  EXPECT_NO_THROW(d.netlist->check());
  EXPECT_GT(d.netlist->num_nets(), 1000);
}

TEST_F(SynthMini, CellsInsideDieAndLegal) {
  const auto& d = design();
  const geom::Rect die = d.floorplan.die;
  for (netlist::CellId c = 0; c < d.netlist->num_cells(); ++c) {
    const auto& inst = d.netlist->cell(c);
    const auto& lc = d.netlist->lib_cell_of(c);
    EXPECT_GE(inst.origin.x, die.lo.x);
    EXPECT_GE(inst.origin.y, die.lo.y);
    EXPECT_LE(inst.origin.x + lc.width, die.hi.x);
    EXPECT_LE(inst.origin.y + lc.height, die.hi.y);
    EXPECT_EQ(inst.origin.x % d.floorplan.site_width, 0);
    EXPECT_EQ(inst.origin.y % d.floorplan.row_height, 0);
  }
}

TEST_F(SynthMini, EachOutputDrivesAtMostOneNet) {
  const auto& d = design();
  std::set<std::pair<netlist::CellId, int>> driver_pins;
  for (netlist::NetId n = 0; n < d.netlist->num_nets(); ++n) {
    const auto& net = d.netlist->net(n);
    ASSERT_TRUE(net.has_driver()) << net.name;
    const auto& drv = net.pins[static_cast<std::size_t>(net.driver)];
    EXPECT_TRUE(driver_pins.insert({drv.cell, drv.lib_pin}).second)
        << "output pin drives two nets: " << net.name;
  }
}

TEST_F(SynthMini, EachInputPinLoadsAtMostOneNet) {
  const auto& d = design();
  std::set<std::pair<netlist::CellId, int>> load_pins;
  for (netlist::NetId n = 0; n < d.netlist->num_nets(); ++n) {
    const auto& net = d.netlist->net(n);
    for (int p = 0; p < net.degree(); ++p) {
      if (p == net.driver) continue;
      const auto& pin = net.pins[static_cast<std::size_t>(p)];
      EXPECT_TRUE(load_pins.insert({pin.cell, pin.lib_pin}).second)
          << "input pin on two nets: " << net.name;
    }
  }
}

TEST_F(SynthMini, AllNetsRouted) {
  const auto& d = design();
  ASSERT_EQ(static_cast<int>(d.routes.routes.size()), d.netlist->num_nets());
  for (netlist::NetId n = 0; n < d.netlist->num_nets(); ++n) {
    EXPECT_TRUE(d.routes.route_of(n).routed()) << d.netlist->net(n).name;
  }
  EXPECT_GT(d.route_stats.total_wire_gcells, 0);
  EXPECT_GT(d.route_stats.total_vias, 0);
}

TEST(Synth, CongestionConcentratesInLowerLayers) {
  // At realistic sizes the lower half of the stack (M2-M5) carries more
  // wire than the upper half (M6-M9): short nets dominate. (Tiny dies
  // shift everything up, so this property is checked on a full preset.)
  const SynthDesign d = generate(preset("sb18"));
  long low = 0, high = 0;
  for (int l = 2; l <= 5; ++l) low += d.routes.usage.total_usage(l);
  for (int l = 6; l <= 9; ++l) high += d.routes.usage.total_usage(l);
  EXPECT_GT(low, high);
}

TEST(Synth, DeterministicGivenSeed) {
  SynthParams p = preset("sb18");
  p.num_cells = 800;
  const SynthDesign a = generate(p);
  const SynthDesign b = generate(p);
  ASSERT_EQ(a.netlist->num_nets(), b.netlist->num_nets());
  for (netlist::CellId c = 0; c < a.netlist->num_cells(); ++c) {
    EXPECT_EQ(a.netlist->cell(c).origin, b.netlist->cell(c).origin);
  }
  EXPECT_EQ(a.route_stats.total_wire_gcells, b.route_stats.total_wire_gcells);
}

// Pins the generated layouts: the DEF text of every preset at scale 0.12,
// its maze-fallback count and its overflowed-edge count, at 1 and 4
// threads. Any change to placement, routing order, the maze search or its
// tie-breaking, or the suite's parallel schedule shows up here first.
TEST(Synth, SuiteLayoutsArePinnedAtAnyThreadCount) {
  struct Pin {
    const char* name;
    std::uint64_t def_fnv;
    int maze_invocations;
    long overflowed_edges;
  };
  const Pin pins[] = {
      {"sb1", 0xeeaae5fe2b1dbd13ULL, 654, 872},
      {"sb5", 0x10f1576f5a0e4389ULL, 1033, 1603},
      {"sb10", 0xed51a7c41ec5b985ULL, 412, 413},
      {"sb12", 0x8ef38111a87e4dc4ULL, 628, 982},
      {"sb18", 0x7dcfbcef9bfe0a4cULL, 384, 321},
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    common::set_global_threads(threads);
    const std::vector<SynthDesign> suite = generate_benchmark_suite(0.12);
    ASSERT_EQ(suite.size(), std::size(pins));
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const SynthDesign& d = suite[i];
      EXPECT_EQ(d.params.name, pins[i].name);
      std::ostringstream def;
      lefdef::write_def(def, *d.netlist, d.routes);
      EXPECT_EQ(common::fnv1a64(def.str()), pins[i].def_fnv) << pins[i].name;
      EXPECT_EQ(d.route_stats.maze_invocations, pins[i].maze_invocations)
          << pins[i].name;
      EXPECT_EQ(d.route_stats.overflowed_edges, pins[i].overflowed_edges)
          << pins[i].name;
    }
  }
  common::set_global_threads(0);
}

TEST(Synth, RejectsTinyDesigns) {
  SynthParams p = preset("sb1");
  p.num_cells = 10;
  EXPECT_THROW(generate(p), std::invalid_argument);
}

}  // namespace
}  // namespace repro::synth
